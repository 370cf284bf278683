package serve

import (
	"fmt"
	"testing"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/workload"
)

// delayStage forwards each request after a fixed virtual delay,
// recording the order it saw them in.
type delayStage struct {
	sim   *des.Sim
	delay time.Duration
	seen  []int
	next  Sink
}

// delay builds a delayStage, logging the build and, when built is
// non-nil, handing the stage to it.
func delay(sim *des.Sim, name string, d time.Duration, log *[]string, built func(*delayStage)) Builder {
	return func(next Sink) (Stage, error) {
		*log = append(*log, "built:"+name)
		s := &delayStage{sim: sim, delay: d, next: next}
		if built != nil {
			built(s)
		}
		return s, nil
	}
}

func (s *delayStage) Submit(req *workload.Request) {
	s.seen = append(s.seen, req.ID)
	s.sim.After(s.delay, func() { s.next(req) })
}

func TestComposeBuildsBackToFront(t *testing.T) {
	var sim des.Sim
	var log []string
	_, err := Compose(&sim, nil,
		delay(&sim, "a", time.Millisecond, &log, nil),
		delay(&sim, "b", time.Millisecond, &log, nil),
		delay(&sim, "c", time.Millisecond, &log, nil),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"built:c", "built:b", "built:a"}
	for i, w := range want {
		if log[i] != w {
			t.Fatalf("build order %v, want %v", log, want)
		}
	}
}

func TestComposeValidation(t *testing.T) {
	var sim des.Sim
	if _, err := Compose(nil, nil); err == nil {
		t.Fatal("nil sim accepted")
	}
	if _, err := Compose(&sim, nil); err == nil {
		t.Fatal("empty pipeline accepted")
	}
	failing := func(next Sink) (Stage, error) { return nil, fmt.Errorf("boom") }
	if _, err := Compose(&sim, nil, failing); err == nil {
		t.Fatal("builder error swallowed")
	}
}

func TestPipelineFlowsThroughStagesInOrder(t *testing.T) {
	var sim des.Sim
	var log []string
	var done []int
	var a, b *delayStage
	terminal := func(req *workload.Request) { done = append(done, req.ID) }
	pipe, err := Compose(&sim, terminal,
		delay(&sim, "a", 1*time.Millisecond, &log, func(s *delayStage) { a = s }),
		delay(&sim, "b", 2*time.Millisecond, &log, func(s *delayStage) { b = s }),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		req := &workload.Request{ID: i}
		sim.At(des.Time(i)*1e6, func() { pipe.Submit(req) })
	}
	sim.Run()
	if len(done) != 3 {
		t.Fatalf("terminal saw %d requests, want 3", len(done))
	}
	if len(a.seen) != 3 || len(b.seen) != 3 {
		t.Fatalf("stage traffic a=%v b=%v", a.seen, b.seen)
	}
	if sim.Now() != des.Time(2*1e6+3*1e6) {
		t.Fatalf("last completion at %d", sim.Now())
	}
}

func TestTee(t *testing.T) {
	var got []string
	s := Tee(
		func(*workload.Request) { got = append(got, "x") },
		func(*workload.Request) { got = append(got, "y") },
	)
	s(&workload.Request{})
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("tee order %v", got)
	}
}
