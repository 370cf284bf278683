package workload

import (
	"testing"

	"vectorliterag/internal/des"
)

// TestPoolRecyclesAndResets pins the pooled request lifecycle: a
// released request comes back zeroed, and the pool constructs no more
// objects than the peak number simultaneously outstanding.
func TestPoolRecyclesAndResets(t *testing.T) {
	var p Pool
	a := p.Get()
	a.ID = 7
	a.HitRate = 0.5
	a.FirstToken = 123
	p.Put(a)
	b := p.Get()
	if b != a {
		t.Fatal("pool did not recycle the released request")
	}
	if *b != (Request{}) {
		t.Fatalf("recycled request not zeroed: %+v", *b)
	}
	p.Put(b)
	// Get/Put pairs reuse one object forever.
	for i := 0; i < 100; i++ {
		p.Put(p.Get())
	}
	if p.Allocated() != 1 {
		t.Fatalf("pool constructed %d requests for a 1-deep lifecycle", p.Allocated())
	}
	// Depth-k usage constructs exactly k.
	var live []*Request
	for i := 0; i < 5; i++ {
		live = append(live, p.Get())
	}
	for _, r := range live {
		p.Put(r)
	}
	if p.Allocated() != 5 {
		t.Fatalf("pool constructed %d requests, want peak in-flight 5", p.Allocated())
	}
	p.Put(nil) // nil release is a no-op
	if got := p.Get(); got == nil {
		t.Fatal("Get returned nil")
	}
}

// TestPooledLifecycleAllocFree is the tentpole regression guard for the
// request path: once the pool holds the working set, a full
// get→stamp→release cycle allocates nothing and keeps its free list's
// array: AllocsPerRun reads 0 for one that doubles a few times.
func TestPooledLifecycleAllocFree(t *testing.T) {
	var p Pool
	var live [64]*Request
	// Warm the pool and its free-list backing array.
	for i := range live {
		live[i] = p.Get()
	}
	for _, r := range live {
		p.Put(r)
	}
	warm := cap(p.free)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range live {
			r := p.Get()
			r.ID = i
			r.ArrivalAt = des.Time(i)
			live[i] = r
		}
		for _, r := range live {
			p.Put(r)
		}
	})
	if allocs != 0 {
		t.Fatalf("pooled request lifecycle allocated %.1f objects/op, want 0", allocs)
	}
	if cap(p.free) != warm {
		t.Fatalf("free list regrew: capacity %d, warm %d", cap(p.free), warm)
	}
	if p.Allocated() != len(live) {
		t.Fatalf("pool constructed %d requests, want %d", p.Allocated(), len(live))
	}
}

// TestGeneratorUsesPool runs a pooled generator whose submit hook
// releases immediately (the lifecycle of a run whose pipeline completes
// every request): the whole arrival stream reuses one request object,
// and IDs/arrival times still advance as without a pool.
func TestGeneratorUsesPool(t *testing.T) {
	w := testWorkload(t)
	var sim des.Sim
	g := NewGenerator(w, 100, DefaultShape(), 11)
	g.Pool = &Pool{}
	count := 0
	var lastAt des.Time = -1
	g.Start(&sim, des.Time(2*1e9), func(r *Request) {
		if r.ID != count {
			t.Fatalf("ID %d at position %d", r.ID, count)
		}
		if r.ArrivalAt < lastAt {
			t.Fatalf("arrivals out of order: %d after %d", r.ArrivalAt, lastAt)
		}
		lastAt = r.ArrivalAt
		count++
		g.Pool.Put(r)
	})
	sim.Run()
	if count == 0 {
		t.Fatal("no arrivals")
	}
	if g.Pool.Allocated() != 1 {
		t.Fatalf("pooled generator constructed %d requests for %d arrivals, want 1",
			g.Pool.Allocated(), count)
	}
}
