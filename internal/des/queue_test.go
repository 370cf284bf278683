package des

import (
	"slices"
	"testing"

	"vectorliterag/internal/rng"
)

// runQueueOps drives a Queue and a plain re-slicing FIFO through the
// operations the bytes encode — b%4 of 0 or 1 pushes, 2 pops, 3 drops
// b/4 mod (Len+1) items — and fails on the first step where their
// lengths or contents differ, or where a slot of the backing array
// outside the live window still holds an item.
func runQueueOps(t *testing.T, ops []byte) {
	t.Helper()
	vals := make([]int, len(ops))
	var q Queue[*int]
	var ref []*int
	for step, b := range ops {
		switch b % 4 {
		case 0, 1:
			vals[step] = step
			q.Push(&vals[step])
			ref = append(ref, &vals[step])
		case 2:
			if len(ref) == 0 {
				continue
			}
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: Pop returned %d, want %d", step, *got, *ref[0])
			}
			ref = ref[1:]
		case 3:
			n := int(b/4) % (len(ref) + 1)
			q.Drop(n)
			ref = ref[n:]
		}
		if q.Len() != len(ref) || !slices.Equal(q.Items(), ref) {
			t.Fatalf("step %d: queue holds %d items, reference %d, or their order differs", step, q.Len(), len(ref))
		}
		all := q.items[:cap(q.items)]
		for i, p := range all {
			if p != nil && (i < q.head || i >= len(q.items)) {
				t.Fatalf("step %d: slot %d outside the live window [%d, %d) still holds %d", step, i, q.head, len(q.items), *p)
			}
		}
	}
}

// TestQueueMatchesSliceFIFO runs random Push/Pop/Drop sequences against
// the reference FIFO. Three trials in four force some of the ops to
// pushes, so queues grow deep and compact as well as drain.
func TestQueueMatchesSliceFIFO(t *testing.T) {
	r := rng.New(65)
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 1+r.Intn(600))
		for i := range ops {
			ops[i] = byte(r.Uint64())
			if r.Intn(4) < trial%4 {
				ops[i] &^= 3 // a push
			}
		}
		runQueueOps(t, ops)
	}
}

// FuzzQueue is the differential check over arbitrary op sequences.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 0, 1, 2, 2, 0, 0, 7, 0, 0, 0, 0, 0, 2, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 251, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2})
	f.Fuzz(runQueueOps)
}

// TestQueueWarmAllocFree pins the compact-when-full rule: a queue that
// never drains, and so never rewinds, keeps reusing its array once warm.
// The capacity check is the sharp one: AllocsPerRun divides whole
// allocations by runs, so an array that doubled a few times would still
// read 0.
func TestQueueWarmAllocFree(t *testing.T) {
	var q Queue[*int]
	v := new(int)
	for i := 0; i < 16; i++ {
		q.Push(v)
	}
	q.Drop(11)
	warm := cap(q.items)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 40; i++ {
			q.Push(v)
			q.Pop()
		}
		q.Push(v)
		q.Push(v)
		q.Drop(2)
	})
	if allocs != 0 {
		t.Fatalf("warm queue allocated %.1f objects per run, want 0", allocs)
	}
	if q.Len() != 5 || cap(q.items) != warm {
		t.Fatalf("queue holds %d items in an array of %d, want 5 in %d", q.Len(), cap(q.items), warm)
	}
}
