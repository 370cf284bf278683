package workload

import (
	"testing"

	"vectorliterag/internal/des"
)

// TestArenaSlotsStayPut: an arena filled past its first chunk keeps
// every slot where New put it until Records, which returns every request
// in allocation order — joined once, into the arena's only chunk.
func TestArenaSlotsStayPut(t *testing.T) {
	a := NewArena(3)
	var slots []*Request
	for i := 0; i < 20; i++ {
		r := a.New()
		if *r != (Request{}) {
			t.Fatalf("slot %d not zeroed: %+v", i, *r)
		}
		r.ID, r.ArrivalAt = i, des.Time(10*i)
		slots = append(slots, r)
		// Mutate earlier requests after later allocations, as a run does
		// while they are in flight.
		slots[i/2].Done = des.Time(i)
	}
	for i, r := range slots {
		if r.ID != i {
			t.Fatalf("slot %d moved: it holds ID %d", i, r.ID)
		}
	}
	if a.Len() != 20 {
		t.Fatalf("Len %d, want 20", a.Len())
	}
	recs := a.Records()
	if len(recs) != 20 {
		t.Fatalf("%d records, want 20", len(recs))
	}
	for i, r := range recs {
		if r.ID != i || r.ArrivalAt != des.Time(10*i) || r.Done != slots[i].Done {
			t.Fatalf("record %d is %+v, want the slot %+v", i, r, *slots[i])
		}
	}
	if again := a.Records(); &again[0] != &recs[0] {
		t.Fatal("a second Records joined the chunks again")
	}
}

// TestArenaOneChunkIsTheRecord: an arena that never overflowed returns
// its chunk itself, so the records are the served requests, not a copy.
func TestArenaOneChunkIsTheRecord(t *testing.T) {
	a := NewArena(8)
	first := a.New()
	a.New()
	first.FirstToken = 7
	recs := a.Records()
	if len(recs) != 2 || &recs[0] != first || recs[0].FirstToken != 7 {
		t.Fatalf("records %+v are not the arena's slots", recs)
	}
	if NewArena(0).New() == nil {
		t.Fatal("an arena sized to nothing returned no slot")
	}
}

// TestGeneratorAllocatesIntoArena: with an arena's New as its allocator
// the generator emits each arrival into the next slot, so the arena's
// records are the arrival stream, in order, with the IDs and instants
// the heap-allocating generator gives them.
func TestGeneratorAllocatesIntoArena(t *testing.T) {
	w := testWorkload(t)
	stream := func(alloc func() *Request) (got []Request) {
		var sim des.Sim
		g := NewGenerator(w, 100, DefaultShape(), 11)
		g.Alloc = alloc
		g.Start(&sim, des.Time(2*1e9), func(r *Request) { got = append(got, *r) })
		sim.Run()
		return got
	}
	want := stream(nil)
	a := NewArena(4)
	got := stream(a.New)
	recs := a.Records()
	if len(want) == 0 || len(got) != len(want) || len(recs) != len(want) {
		t.Fatalf("%d arrivals, %d from the arena, %d records", len(want), len(got), len(recs))
	}
	for i := range want {
		if got[i] != want[i] || recs[i] != want[i] {
			t.Fatalf("arrival %d: arena %+v, record %+v, heap %+v", i, got[i], recs[i], want[i])
		}
	}
}
