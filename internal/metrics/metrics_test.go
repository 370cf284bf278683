package metrics

import (
	"testing"
	"time"

	"vectorliterag/internal/workload"
)

func mkReq(arrival, searchStart, searchDone, llmStart, firstToken, done int64) workload.Request {
	return workload.Request{
		ArrivalAt: arrival, SearchStart: searchStart, SearchDone: searchDone,
		LLMStart: llmStart, FirstToken: firstToken, Done: done,
	}
}

func TestSummarizeBasic(t *testing.T) {
	ms := int64(time.Millisecond)
	reqs := []workload.Request{
		mkReq(0, 10*ms, 50*ms, 60*ms, 200*ms, 1000*ms), // TTFT 200ms ok
		mkReq(0, 20*ms, 80*ms, 90*ms, 500*ms, 2000*ms), // TTFT 500ms violation
		mkReq(0, 10*ms, 40*ms, 50*ms, 300*ms, 1500*ms), // TTFT 300ms ok
	}
	s := new(Summarizer).Summarize(reqs, 400*time.Millisecond, 0)
	if s.N != 3 || s.Unserved != 0 {
		t.Fatalf("N=%d unserved=%d", s.N, s.Unserved)
	}
	if want := 2.0 / 3.0; s.Attainment != want {
		t.Fatalf("attainment = %v", s.Attainment)
	}
	if s.TTFT.P50 != 300*time.Millisecond {
		t.Fatalf("TTFT p50 = %v", s.TTFT.P50)
	}
	if s.Breakdown.Queueing <= 0 || s.Breakdown.Search <= 0 || s.Breakdown.Prefill <= 0 {
		t.Fatalf("bad breakdown %+v", s.Breakdown)
	}
}

func TestSummarizeWarmupCut(t *testing.T) {
	ms := int64(time.Millisecond)
	early := mkReq(0, 1*ms, 2*ms, 3*ms, 10*ms, 20*ms)
	late := mkReq(100*ms, 101*ms, 102*ms, 103*ms, 900*ms, 1000*ms)
	s := new(Summarizer).Summarize([]workload.Request{early, late}, 500*time.Millisecond, 50*ms)
	if s.N != 1 {
		t.Fatalf("warmup cut kept %d", s.N)
	}
	if s.Attainment != 0 {
		t.Fatalf("attainment = %v, the late request violates", s.Attainment)
	}
}

func TestSummarizeUnservedCountAsViolations(t *testing.T) {
	ms := int64(time.Millisecond)
	served := mkReq(0, 1*ms, 2*ms, 3*ms, 100*ms, 200*ms)
	stuck := workload.Request{ArrivalAt: 0} // never got a first token
	s := new(Summarizer).Summarize([]workload.Request{served, stuck}, 500*time.Millisecond, 0)
	if s.N != 2 || s.Unserved != 1 {
		t.Fatalf("N=%d unserved=%d", s.N, s.Unserved)
	}
	if s.Attainment != 0.5 {
		t.Fatalf("attainment = %v, want 0.5", s.Attainment)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := new(Summarizer).Summarize(nil, time.Second, 0)
	if s.N != 0 || s.Attainment != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestSummarizeAllUnserved(t *testing.T) {
	s := new(Summarizer).Summarize([]workload.Request{{ArrivalAt: 0}, {ArrivalAt: 5}}, time.Second, 0)
	if s.N != 2 || s.Unserved != 2 || s.Attainment != 0 {
		t.Fatalf("summary %+v", s)
	}
}

// TestSummarizeIDsMatchesGathered: summarizing records through an ID
// list is, bit for bit, summarizing those records gathered in ID order —
// served, stuck and undone ones, across the warmup cut, on a reused
// Summarizer whose scratch a larger call sized first.
func TestSummarizeIDsMatchesGathered(t *testing.T) {
	ms := int64(time.Millisecond)
	reqs := make([]workload.Request, 200)
	for i := range reqs {
		a := int64(i) * 3 * ms
		d := int64(i*7919%97+1) * ms
		reqs[i] = mkReq(a, a+d, a+2*d, a+2*d+ms, a+3*d, a+5*d)
		switch i % 11 {
		case 3:
			reqs[i].FirstToken, reqs[i].Done = 0, 0 // stuck before its first token
		case 5:
			reqs[i].Done = 0 // still decoding
		}
	}
	var ids []int32
	var gathered []workload.Request
	for i := 0; i < 150; i++ {
		id := int32(i * 7 % 200)
		ids = append(ids, id)
		gathered = append(gathered, reqs[id])
	}
	var a Summarizer
	a.Summarize(reqs, 150*time.Millisecond, 0)
	got := a.SummarizeIDs(reqs, ids, 150*time.Millisecond, 60*ms)
	if want := new(Summarizer).Summarize(gathered, 150*time.Millisecond, 60*ms); got != want || got.Unserved == 0 || got.E2E.P50 == 0 {
		t.Fatalf("by ID %+v\n gathered %+v", got, want)
	}
}

func TestBreakdownSumsToTTFT(t *testing.T) {
	ms := int64(time.Millisecond)
	r := mkReq(0, 30*ms, 90*ms, 100*ms, 250*ms, 900*ms)
	s := new(Summarizer).Summarize([]workload.Request{r}, time.Second, 0)
	sum := s.Breakdown.Queueing + s.Breakdown.Search + s.Breakdown.LLMWait + s.Breakdown.Prefill
	if sum != s.TTFT.Mean {
		t.Fatalf("breakdown sum %v != mean TTFT %v", sum, s.TTFT.Mean)
	}
}

// TestSummarizeIDsNoneIsEmpty: an ID list with no entry — nil or empty —
// summarizes no record, whatever the records hold.
func TestSummarizeIDsNoneIsEmpty(t *testing.T) {
	ms := int64(time.Millisecond)
	reqs := []workload.Request{mkReq(0, ms, 2*ms, 3*ms, 10*ms, 20*ms), {ArrivalAt: 5}}
	var a Summarizer
	for _, ids := range [][]int32{nil, {}} {
		if s := a.SummarizeIDs(reqs, ids, time.Second, 0); s != (Summary{}) {
			t.Fatalf("ids %#v: summary %+v, want none", ids, s)
		}
	}
}

// TestSummarizerReusesScratch guards the allocation-free aggregation
// path: summarizing a run's records, whole and through an ID list, with
// a warm Summarizer allocates nothing — the latencies vary, so every
// percentile is a real selection over reused scratch.
func TestSummarizerReusesScratch(t *testing.T) {
	reqs := make([]workload.Request, 4096)
	ids := make([]int32, 0, len(reqs)/3)
	for i := range reqs {
		a := int64(i) * 1000
		d := int64(i*7919%1000 + 1)
		reqs[i] = mkReq(a, a+d, a+2*d, a+2*d+10, a+3*d+20, a+4*d+30)
		if i%3 == 1 {
			ids = append(ids, int32(i))
		}
	}
	var agg Summarizer
	agg.Summarize(reqs, time.Second, 0) // size the scratch
	allocs := testing.AllocsPerRun(50, func() {
		agg.Summarize(reqs, time.Second, 0)
		agg.SummarizeIDs(reqs, ids, time.Second, 0)
	})
	if allocs != 0 {
		t.Fatalf("a warm Summarizer allocated %.1f objects per pass, want 0", allocs)
	}
}
