package des

import (
	"testing"
	"time"
)

// sink prevents the compiler from proving the callbacks dead.
var sinkCount int

func countEvent(any) { sinkCount++ }
func countPlain()    { sinkCount++ }

// TestScheduleAndPopAllocFree pins the tentpole contract: once the
// heap's backing array has grown to the working-set size, scheduling
// through AtArg/AfterArg with a pre-bound callback and popping events
// allocate nothing and keep the heap's arrays. testing.AllocsPerRun
// reports interface boxing, closure capture and reallocation churn; the
// capacities, growth AllocsPerRun rounds away.
func TestScheduleAndPopAllocFree(t *testing.T) {
	var s Sim
	arg := &struct{ n int }{}
	// Warm the heap's backing array beyond the per-iteration burst.
	for i := 0; i < 256; i++ {
		s.AtArg(Time(i), countEvent, arg)
	}
	s.Run()
	fn := countEvent // long-lived func value, as engines hold in fields
	caps := heapCaps(&s)
	allocs := testing.AllocsPerRun(100, func() {
		base := s.Now()
		for i := 0; i < 64; i++ {
			s.AtArg(base+Time(i), fn, arg)
		}
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("AtArg schedule+pop allocated %.1f objects/op, want 0", allocs)
	}
	if heapCaps(&s) != caps {
		t.Fatalf("heap arrays (key, slab, free) regrew: capacities %v, warm %v", heapCaps(&s), caps)
	}
}

// heapCaps returns the capacities of the heap's arrays: AllocsPerRun
// reads 0 for an array that doubles a few times in the measured runs, a
// changed capacity does not.
func heapCaps(s *Sim) [3]int { return [3]int{cap(s.key), cap(s.slab), cap(s.free)} }

// TestPlainCallbackScheduleAllocFree covers the thunk form: a stored
// func() field (no fresh closure per event) also schedules and fires
// without allocation.
func TestPlainCallbackScheduleAllocFree(t *testing.T) {
	var s Sim
	for i := 0; i < 256; i++ {
		s.At(Time(i), countPlain)
	}
	s.Run()
	fn := countPlain
	caps := heapCaps(&s)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			s.AfterArg(time.Duration(i), countEvent, nil)
			_ = fn
			s.At(s.Now()+Time(i), fn)
		}
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("At schedule+pop allocated %.1f objects/op, want 0", allocs)
	}
	if heapCaps(&s) != caps {
		t.Fatalf("heap arrays (key, slab, free) regrew: capacities %v, warm %v", heapCaps(&s), caps)
	}
}

// TestAtArgDeliversArgument guards the arg plumbing the allocation-free
// path rides on.
func TestAtArgDeliversArgument(t *testing.T) {
	var s Sim
	type payload struct{ v int }
	got := 0
	deliver := func(a any) { got = a.(*payload).v }
	s.AtArg(10, deliver, &payload{v: 42})
	s.AfterArg(20*time.Nanosecond, deliver, &payload{v: 43})
	s.RunUntil(10)
	if got != 42 {
		t.Fatalf("AtArg delivered %d, want 42", got)
	}
	s.Run()
	if got != 43 {
		t.Fatalf("AfterArg delivered %d, want 43", got)
	}
	if s.Now() != 20 {
		t.Fatalf("clock = %d, want 20", s.Now())
	}
}
