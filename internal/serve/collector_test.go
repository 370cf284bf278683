package serve

import (
	"testing"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/workload"
)

// TestCollectorStreamsRecordsThroughPooling pins the streaming
// collector's contract under request pooling: Done snapshots the
// final timestamps, after which the same live object can be recycled
// for a later arrival without corrupting the earlier record; requests
// still in flight are re-read at aggregation time so mid-flight state
// (e.g. a first token with decode unfinished) is reported exactly as
// the pre-pooling collector saw it.
func TestCollectorStreamsRecordsThroughPooling(t *testing.T) {
	c := NewCollector()
	pool := &workload.Pool{}

	// Request 0 completes and is released back to the pool.
	r0 := pool.Get()
	r0.ID = 0
	r0.ArrivalAt = 100
	c.Admit(r0)
	r0.FirstToken = 200
	r0.Done = 300
	c.Done(r0)
	pool.Put(r0)

	// Request 1 reuses the same object for a new identity; it stays in
	// flight and keeps mutating after admission.
	r1 := pool.Get()
	if r1 != r0 {
		t.Fatal("pool did not recycle the released request")
	}
	r1.ID = 1
	r1.ArrivalAt = 1000
	c.Admit(r1)
	r1.FirstToken = 1600 // first token emitted, decode still running

	recs := c.Requests()
	if len(recs) != 2 || c.Admitted() != 2 || c.Completed() != 1 {
		t.Fatalf("records=%d admitted=%d completed=%d", len(recs), c.Admitted(), c.Completed())
	}
	if recs[0].ID != 0 || recs[0].ArrivalAt != 100 || recs[0].FirstToken != 200 || recs[0].Done != 300 {
		t.Fatalf("completed record corrupted by pooling: %+v", recs[0])
	}
	if recs[1].ID != 1 || recs[1].FirstToken != 1600 || recs[1].Done != 0 {
		t.Fatalf("in-flight record not refreshed: %+v", recs[1])
	}

	// Summaries see the same view: one served-and-done, one served but
	// stuck (still counted, still in the TTFT percentile set).
	s := metrics.Summarize(c.Requests(), time.Second, des.Time(0))
	if s.N != 2 || s.Unserved != 0 {
		t.Fatalf("summary N=%d unserved=%d", s.N, s.Unserved)
	}
	if s.Attainment != 1 {
		t.Fatalf("attainment %v, both TTFTs are within the SLO", s.Attainment)
	}
}

// TestCollectorSummarizeReusesScratch guards the allocation-free
// aggregation path: re-reading a warm collector's records and
// summarizing them with a warm Summarizer allocates nothing — the
// latencies vary, so every percentile is a real selection over reused
// scratch.
func TestCollectorSummarizeReusesScratch(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 4096; i++ {
		r := &workload.Request{ID: i, ArrivalAt: des.Time(i) * 1000}
		c.Admit(r)
		d := des.Time(i*7919%1000 + 1)
		r.SearchStart = r.ArrivalAt + d
		r.SearchDone = r.ArrivalAt + 2*d
		r.LLMStart = r.ArrivalAt + 2*d + 10
		r.FirstToken = r.ArrivalAt + 3*d + 20
		r.Done = r.ArrivalAt + 4*d + 30
		c.Done(r)
	}
	var agg metrics.Summarizer
	agg.Summarize(c.Requests(), time.Second, 0) // size the scratch
	allocs := testing.AllocsPerRun(50, func() {
		agg.Summarize(c.Requests(), time.Second, 0)
	})
	if allocs != 0 {
		t.Fatalf("Summarize allocated %.1f objects/op on a warm collector, want 0", allocs)
	}
}

// TestCollectorReserve: reserving room regrows nothing afterwards and
// loses nothing admitted before; a reservation that turns out low only
// costs the regrowth it was meant to save.
func TestCollectorReserve(t *testing.T) {
	c := NewCollector()
	first := &workload.Request{ID: 0, ArrivalAt: 5}
	c.Admit(first)
	c.Reserve(100)
	first.FirstToken = 9 // still live: the reservation must keep tracking it
	reqs := make([]workload.Request, 150)
	base := &c.records[0]
	for i := 1; i < 100; i++ {
		reqs[i].ID = i
		c.Admit(&reqs[i])
	}
	if &c.records[0] != base {
		t.Fatal("record array regrew inside the reservation")
	}
	for i := 100; i < 150; i++ {
		reqs[i].ID = i
		c.Admit(&reqs[i])
	}
	recs := c.Requests()
	if len(recs) != 150 || recs[0].FirstToken != 9 {
		t.Fatalf("%d records, first %+v", len(recs), recs[0])
	}
	for i, r := range recs {
		if r.ID != i {
			t.Fatalf("record %d has ID %d", i, r.ID)
		}
	}
}

// TestCollectorInPlace: an in-place collector is an ID list — it keeps
// the admitted IDs in admission order, copies nothing, and the records
// are read where their owner keeps them.
func TestCollectorInPlace(t *testing.T) {
	reqs := make([]workload.Request, 4)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, ArrivalAt: des.Time(100 * i)}
	}
	c := NewCollector()
	c.InPlace(2)
	if c.Admitted() != 0 || len(c.IDs()) != 0 {
		t.Fatal("an empty in-place collector admitted something")
	}
	c.Admit(&reqs[2])
	c.Admit(&reqs[0])
	c.Admit(&reqs[3])
	reqs[2].FirstToken, reqs[2].Done = 240, 290
	c.Done(&reqs[2])
	reqs[0].FirstToken = 50 // in flight: no refresh needed, the record is the request
	c.Abandon(&reqs[3])     // a rejection: nothing to freeze

	if ids := c.IDs(); len(ids) != 3 || ids[0] != 2 || ids[1] != 0 || ids[2] != 3 {
		t.Fatalf("IDs %v, want admission order [2 0 3]", ids)
	}
	if c.Admitted() != 3 || c.Completed() != 1 || len(c.Requests()) != 0 {
		t.Fatalf("admitted=%d completed=%d records=%d: an in-place collector keeps no copies",
			c.Admitted(), c.Completed(), len(c.Requests()))
	}
	var agg metrics.Summarizer
	if s := agg.SummarizeIDs(reqs, c.IDs(), time.Second, 0); s.N != 3 || s.Unserved != 1 {
		t.Fatalf("summary N=%d unserved=%d, want 3 and the rejected one", s.N, s.Unserved)
	}
}
