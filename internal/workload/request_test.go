package workload

import (
	"math"
	"testing"
	"unsafe"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
)

func testWorkload(t *testing.T) *dataset.Workload {
	t.Helper()
	gc := dataset.GenConfig{NCenters: 32, PerCenter: 64, Dim: 16, PhysNList: 32, PhysNProbe: 4, Templates: 128, Seed: 1}
	w, err := dataset.Build(dataset.WikiAll, gc)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGeneratorRate(t *testing.T) {
	w := testWorkload(t)
	var sim des.Sim
	g := NewGenerator(w, 50, DefaultShape(), 3)
	count := 0
	g.Start(&sim, des.Time(60*1e9), func(r *Request) { count++ })
	sim.Run()
	// 50 rps for 60s => ~3000 arrivals; Poisson std ~ 55.
	if math.Abs(float64(count)-3000) > 300 {
		t.Fatalf("generated %d arrivals, want ~3000", count)
	}
	if g.Count() != count {
		t.Fatalf("Count() = %d, generated %d", g.Count(), count)
	}
}

func TestGeneratorStopsAtDeadline(t *testing.T) {
	w := testWorkload(t)
	var sim des.Sim
	g := NewGenerator(w, 100, DefaultShape(), 5)
	var last des.Time
	g.Start(&sim, des.Time(1e9), func(r *Request) { last = r.ArrivalAt })
	sim.Run()
	if last > 1e9 {
		t.Fatalf("arrival after deadline: %d", last)
	}
}

func TestGeneratorIDsAndQueries(t *testing.T) {
	w := testWorkload(t)
	var sim des.Sim
	g := NewGenerator(w, 200, DefaultShape(), 7)
	var reqs []*Request
	g.Start(&sim, des.Time(2*1e9), func(r *Request) { reqs = append(reqs, r) })
	sim.Run()
	seen := map[int]bool{}
	distinct := map[dataset.QueryID]bool{}
	for i, r := range reqs {
		if r.ID != i {
			t.Fatalf("IDs not sequential: %d at position %d", r.ID, i)
		}
		if seen[r.ID] {
			t.Fatal("duplicate request ID")
		}
		seen[r.ID] = true
		distinct[r.Query] = true
		if r.Shape != DefaultShape() {
			t.Fatal("shape not propagated")
		}
	}
	if len(distinct) < 5 {
		t.Fatalf("only %d distinct queries sampled", len(distinct))
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	w := testWorkload(t)
	collect := func() []des.Time {
		var sim des.Sim
		g := NewGenerator(w, 100, DefaultShape(), 11)
		var at []des.Time
		g.Start(&sim, des.Time(2*1e9), func(r *Request) { at = append(at, r.ArrivalAt) })
		sim.Run()
		return at
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatal("different arrival counts across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("arrival times differ across identical runs")
		}
	}
}

// TestRequestFootprint pins the record size: a fleet run keeps one
// Request per arrival, so every word here is paid a quarter million
// times per pass.
func TestRequestFootprint(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n > 112 {
		t.Fatalf("Request is %d bytes, want at most 112", n)
	}
}

func TestRequestDerivedMetrics(t *testing.T) {
	r := &Request{ArrivalAt: 100, SearchStart: 150, SearchDone: 300, LLMStart: 320, FirstToken: 500, Done: 900}
	if r.TTFT() != 400 {
		t.Fatalf("TTFT = %d", r.TTFT())
	}
	if r.E2E() != 800 {
		t.Fatalf("E2E = %d", r.E2E())
	}
	if r.QueueingDelay() != 50 {
		t.Fatalf("queueing = %d", r.QueueingDelay())
	}
	if r.SearchLatency() != 150 {
		t.Fatalf("search = %d", r.SearchLatency())
	}
}
