package des

import (
	"testing"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	var s Sim
	var order []int
	s.At(300, func() { order = append(order, 3) })
	s.At(100, func() { order = append(order, 1) })
	s.At(200, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 300 {
		t.Fatalf("clock = %d", s.Now())
	}
}

func TestTiesFireFIFO(t *testing.T) {
	var s Sim
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(50, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	var s Sim
	var fired Time = -1
	s.At(100, func() {
		s.After(50*time.Nanosecond, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 150 {
		t.Fatalf("After fired at %d, want 150", fired)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	var s Sim
	var fired Time = -1
	s.At(100, func() {
		s.At(10, func() { fired = s.Now() }) // in the past
	})
	s.Run()
	if fired != 100 {
		t.Fatalf("past event fired at %d, want clamp to 100", fired)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	var s Sim
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i)*100, func() { count++ })
	}
	s.RunUntil(450)
	if count != 4 {
		t.Fatalf("fired %d events before deadline, want 4", count)
	}
	if s.Now() != 450 {
		t.Fatalf("clock = %d, want 450", s.Now())
	}
	if s.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", s.Pending())
	}
}

func TestCascadedEvents(t *testing.T) {
	// A self-rescheduling process: models a server loop.
	var s Sim
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		if ticks < 100 {
			s.After(10*time.Nanosecond, tick)
		}
	}
	s.At(0, tick)
	s.Run()
	if ticks != 100 {
		t.Fatalf("ticks = %d", ticks)
	}
	if s.Now() != 990 {
		t.Fatalf("clock = %d, want 990", s.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	var s Sim
	if s.Step() {
		t.Fatal("Step on empty sim returned true")
	}
}

// TestDrainedHeapReturnsToFront: frontCap periodic chains fill the
// sorted front, a 40-event burst behind them overflows into the heap,
// and while the burst drains every chain push lands in the heap too.
// Once the burst has fired, the heap's keys must be back in the front,
// so no later chain push reaches the heap.
func TestDrainedHeapReturnsToFront(t *testing.T) {
	var s Sim
	fired := 0
	for c := range frontCap {
		var tick func()
		tick = func() {
			fired++
			if s.Now() < 10_000 {
				s.After(100, tick)
			}
		}
		s.At(Time(1+c), tick)
	}
	for range 40 {
		s.At(50, func() {})
	}
	s.RunUntil(60)
	if len(s.key) != 0 {
		t.Fatalf("%d keys left in the heap once the burst drained", len(s.key))
	}
	for s.Step() {
		if len(s.key) != 0 {
			t.Fatalf("at %d: a chain push reached the heap (%d keys)", s.Now(), len(s.key))
		}
	}
	if want := frontCap * 101; fired != want {
		t.Fatalf("%d chain events fired, want %d", fired, want)
	}
}
