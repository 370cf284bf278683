package gpu

import (
	"testing"

	"vectorliterag/internal/des"
	"vectorliterag/internal/hw"
)

func TestNewStates(t *testing.T) {
	states := NewStates(hw.H100Node())
	if len(states) != 8 {
		t.Fatalf("states = %d", len(states))
	}
	for i, s := range states {
		if s.ID != i || s.ShardBytes != 0 || s.RetrievalBusyUntil() != 0 {
			t.Fatalf("state %d misinitialized: %+v", i, s)
		}
	}
}

func TestMarkRetrievalBusyExtends(t *testing.T) {
	s := &State{Spec: hw.H100()}
	s.MarkRetrievalBusy(100)
	s.MarkRetrievalBusy(50) // earlier end must not shrink the window
	if s.RetrievalBusyUntil() != 100 {
		t.Fatalf("busyUntil = %d", s.RetrievalBusyUntil())
	}
	s.MarkRetrievalBusy(200)
	if s.RetrievalBusyUntil() != 200 {
		t.Fatalf("busyUntil = %d", s.RetrievalBusyUntil())
	}
}

func TestStretchForContention(t *testing.T) {
	const f = 1.0 // 2x slowdown inside the window
	// No contention: unchanged.
	if got := StretchForContention(0, 100, 0, f); got != 100 {
		t.Fatalf("idle stretch = %d", got)
	}
	// Fully inside the window: doubled.
	if got := StretchForContention(0, 100, 1000, f); got != 200 {
		t.Fatalf("full-window stretch = %d", got)
	}
	// Window covers half the work: 50 units of work take 100; the
	// remaining 50 run free => 150 total.
	if got := StretchForContention(0, 100, 100, f); got != 150 {
		t.Fatalf("half-window stretch = %d", got)
	}
	// Zero factor: unchanged.
	if got := StretchForContention(0, 100, 1000, 0); got != 100 {
		t.Fatalf("zero-factor stretch = %d", got)
	}
	// Monotone in window length.
	prev := des.Time(0)
	for _, until := range []des.Time{0, 25, 50, 100, 400} {
		got := StretchForContention(0, 100, until, f)
		if got < prev {
			t.Fatalf("stretch not monotone in window: %d after %d", got, prev)
		}
		prev = got
	}
}
