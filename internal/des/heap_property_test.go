package des

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refHeap is a container/heap reference implementation with
// the exact (at, seq) ordering the simulator used before the hand-
// rolled 4-ary heap replaced it. The property test drains randomized
// schedules through both and requires bit-identical order — including
// same-timestamp ties, whose FIFO resolution the golden serving
// artifacts depend on.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// depths are the pending-event levels the drain tests hold: a lone
// event, the serving pipeline's handful, one past the sorted front's
// capacity, and a deep queue that lives mostly in the heap.
var depths = []int{1, 8, frontCap + 1, 300}

// TestHeapDrainsIdenticalToContainerHeap schedules random interleaved
// batches — heavy on duplicate timestamps — into the simulator and the
// reference heap, interleaving partial drains with further scheduling
// back up to each depth, plus same-instant bursts that overflow the
// sorted front, and checks the fire order matches event for event.
func TestHeapDrainsIdenticalToContainerHeap(t *testing.T) {
	for _, depth := range depths {
		for trial := 0; trial < 30; trial++ {
			r := rand.New(rand.NewSource(int64(trial)))
			var s Sim
			ref := &refHeap{}
			var refSeq uint64
			var got, want []int
			id := 0
			add := func(at Time) {
				ev := id
				id++
				s.At(at, func() { got = append(got, ev) })
				refSeq++
				heap.Push(ref, refEvent{at: at, seq: refSeq, id: ev})
			}
			schedule := func(n int) {
				for i := 0; i < n; i++ {
					// Small timestamp range forces plenty of exact ties.
					add(s.Now() + Time(r.Intn(16)))
				}
			}
			schedule(depth)
			for s.Pending() > 0 {
				// Partial drain to a random horizon, then schedule more — the
				// pattern real pipelines produce (events scheduling events).
				horizon := s.Now() + Time(r.Intn(8))
				s.RunUntil(horizon)
				drainRef(ref, horizon, &want, -1)
				if id >= 4096 {
					continue
				}
				switch r.Intn(4) {
				case 0:
					// A same-instant burst: more keys than the front holds,
					// each one later than every pending key at that instant.
					at := s.Now() + Time(r.Intn(4))
					for i := 0; i < frontCap+1+r.Intn(frontCap); i++ {
						add(at)
					}
				case 1, 2:
					schedule(max(depth-s.Pending(), 0) + r.Intn(4))
				}
			}
			s.Run()
			drainRef(ref, 1<<62, &want, -1)
			if len(got) != len(want) || len(got) != id {
				t.Fatalf("depth %d trial %d: drained %d events, reference %d, scheduled %d",
					depth, trial, len(got), len(want), id)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("depth %d trial %d: fire order diverges at %d: sim=%d ref=%d",
						depth, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestHeapSlotReuseDrainsIdentical holds a working set of pending
// events at each depth for thousands of events, so nearly every push
// lands in a slab slot a popped event just freed. Each event carries
// its own ID through the arg word and the fire order must still match
// the reference event for event: a slot handed to two live events, or a
// key naming another event's slot, delivers the wrong ID. The slab never
// outgrows the high-water mark of pending events.
func TestHeapSlotReuseDrainsIdentical(t *testing.T) {
	for _, depth := range depths {
		for trial := 0; trial < 10; trial++ {
			r := rand.New(rand.NewSource(int64(1000 + trial)))
			var s Sim
			ref := &refHeap{}
			var refSeq uint64
			var got, want []int
			ids := make([]int, 0, 8192)
			fire := func(a any) { got = append(got, *a.(*int)) }
			highWater := 0
			add := func(at Time) {
				ids = append(ids, len(ids))
				s.AtArg(at, fire, &ids[len(ids)-1])
				refSeq++
				heap.Push(ref, refEvent{at: at, seq: refSeq, id: len(ids) - 1})
			}
			schedule := func(n int) {
				for i := 0; i < n; i++ {
					add(s.Now() + Time(r.Intn(32)))
				}
				highWater = max(highWater, s.Pending())
			}
			schedule(depth)
			for len(ids) < cap(ids) {
				// Fire one event, then top the working set back up; now and
				// then a same-instant burst overflows the front.
				at, _ := s.nextAt()
				s.Step()
				drainRef(ref, at, &want, 1)
				if r.Intn(64) == 0 {
					burst := min(frontCap+1+r.Intn(frontCap), cap(ids)-len(ids))
					for i := 0; i < burst; i++ {
						add(s.Now())
					}
					highWater = max(highWater, s.Pending())
				}
				schedule(min(max(depth-s.Pending(), 0), cap(ids)-len(ids)))
			}
			s.Run()
			drainRef(ref, 1<<62, &want, -1)
			if len(got) != len(ids) || len(want) != len(ids) {
				t.Fatalf("depth %d trial %d: fired %d, reference %d, scheduled %d", depth, trial, len(got), len(want), len(ids))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("depth %d trial %d: fire order diverges at %d: sim=%d ref=%d", depth, trial, i, got[i], want[i])
				}
			}
			if len(s.slab) > highWater {
				t.Fatalf("depth %d trial %d: slab grew to %d slots for at most %d pending events", depth, trial, len(s.slab), highWater)
			}
		}
	}
}

// drainRef pops up to n reference events due by upto (all of them for
// n < 0) onto out.
func drainRef(ref *refHeap, upto Time, out *[]int, n int) {
	for ref.Len() > 0 && (*ref)[0].at <= upto && n != 0 {
		*out = append(*out, heap.Pop(ref).(refEvent).id)
		n--
	}
}

// TestPoppedSlotHoldsNoCallback checks that a fired event leaves no
// callback or argument behind: every free slab slot is zero, so the
// slab keeps nothing reachable once its events have run.
func TestPoppedSlotHoldsNoCallback(t *testing.T) {
	var s Sim
	r := rand.New(rand.NewSource(7))
	arg := &struct{ n int }{}
	for i := 0; i < 200; i++ {
		s.AtArg(Time(r.Intn(100)), countEvent, arg)
		s.At(Time(r.Intn(100)), countPlain)
	}
	check := func(when string) {
		t.Helper()
		for _, slot := range s.free {
			if p := s.slab[slot]; p.fn != nil || p.argFn != nil || p.arg != nil {
				t.Fatalf("%s: free slot %d still holds a callback", when, slot)
			}
		}
		// The sorted front's clause: a ring position past its pending keys
		// holds no callback, and each pending key's position holds one.
		for i := 0; i < frontCap; i++ {
			p := s.fpay[(s.head+i)&frontMask]
			if empty := p.fn == nil && p.argFn == nil && p.arg == nil; empty != (i >= s.nf) {
				t.Fatalf("%s: front position %d of %d pending: holds a callback %v", when, i, s.nf, !empty)
			}
		}
		if live := len(s.slab) - len(s.free); live != len(s.key) {
			t.Fatalf("%s: %d slab slots hold callbacks for %d events in the heap", when, live, len(s.key))
		}
	}
	s.RunUntil(50)
	if len(s.free) == 0 {
		t.Fatal("no slab slot freed after a partial drain")
	}
	for i := 0; i < 3; i++ {
		s.AtArg(s.Now()+Time(i), countEvent, arg)
	}
	if s.nf == 0 {
		t.Fatal("no event pending in the front after a partial drain")
	}
	check("partial drain")
	s.Run()
	if len(s.free) != len(s.slab) {
		t.Fatalf("drained: %d of %d slab slots free", len(s.free), len(s.slab))
	}
	check("full drain")
}
