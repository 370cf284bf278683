package metrics

import (
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/stats"
	"vectorliterag/internal/workload"
)

// referenceSummary is the summary materialized: every counted record's
// latencies copied into one sample per set, the means by stats.Mean and
// the percentiles by stats.SelectPercentiles.
func referenceSummary(reqs []workload.Request, ids []int32, all bool, slo time.Duration, cutoff des.Time) Summary {
	var ttft, e2e, search []float64
	var sumQ, sumS, sumW, sumP float64
	var s Summary
	ok := 0
	m := len(ids)
	if all {
		m = len(reqs)
	}
	for i := range m {
		r := &reqs[i]
		if !all {
			r = &reqs[ids[i]]
		}
		if r.ArrivalAt < cutoff {
			continue
		}
		s.N++
		if r.FirstToken == 0 {
			continue
		}
		if time.Duration(r.TTFT()) <= slo {
			ok++
		}
		ttft = append(ttft, float64(r.TTFT()))
		if r.Done > 0 {
			e2e = append(e2e, float64(r.E2E()))
		}
		search = append(search, float64(r.SearchLatency()))
		sumQ += float64(r.QueueingDelay())
		sumS += float64(r.SearchLatency())
		sumW += float64(r.LLMStart - r.SearchDone)
		sumP += float64(r.FirstToken - r.LLMStart)
	}
	s.Unserved = s.N - len(ttft)
	if s.N == 0 {
		return s
	}
	s.Attainment = float64(ok) / float64(s.N)
	if len(ttft) == 0 {
		return s
	}
	s.TTFT, s.E2E, s.Search = referenceQuantiles(ttft), referenceQuantiles(e2e), referenceQuantiles(search)
	fs := float64(len(ttft))
	s.Breakdown = Breakdown{
		Queueing: time.Duration(sumQ / fs),
		Search:   time.Duration(sumS / fs),
		LLMWait:  time.Duration(sumW / fs),
		Prefill:  time.Duration(sumP / fs),
	}
	return s
}

func referenceQuantiles(sample []float64) Quantiles {
	if len(sample) == 0 {
		return Quantiles{}
	}
	var p [4]float64
	mean := stats.Mean(sample)
	stats.SelectPercentiles(slices.Clone(sample), summaryPs, p[:])
	return Quantiles{Mean: time.Duration(mean), P50: time.Duration(p[0]), P90: time.Duration(p[1]),
		P95: time.Duration(p[2]), P99: time.Duration(p[3])}
}

// checkSummary holds Summarize (or, with ids, SummarizeIDs) on a to the
// reference field by field: counts and durations exactly, attainment
// by Float64bits.
func checkSummary(t *testing.T, name string, a *Summarizer, reqs []workload.Request, ids []int32, slo time.Duration, cutoff des.Time) Summary {
	t.Helper()
	var got Summary
	if ids == nil {
		got = a.Summarize(reqs, slo, cutoff)
	} else {
		got = a.SummarizeIDs(reqs, ids, slo, cutoff)
	}
	want := referenceSummary(reqs, ids, ids == nil, slo, cutoff)
	if got.N != want.N || got.Unserved != want.Unserved {
		t.Errorf("%s: N %d unserved %d, reference %d and %d", name, got.N, got.Unserved, want.N, want.Unserved)
	}
	if math.Float64bits(got.Attainment) != math.Float64bits(want.Attainment) {
		t.Errorf("%s: attainment %v, reference %v", name, got.Attainment, want.Attainment)
	}
	for _, q := range []struct {
		set       string
		got, want Quantiles
	}{{"TTFT", got.TTFT, want.TTFT}, {"E2E", got.E2E, want.E2E}, {"search", got.Search, want.Search}} {
		if q.got != q.want {
			t.Errorf("%s: %s %+v, reference %+v", name, q.set, q.got, q.want)
		}
	}
	if got.Breakdown != want.Breakdown {
		t.Errorf("%s: breakdown %+v, reference %+v", name, got.Breakdown, want.Breakdown)
	}
	return got
}

// withLatencies builds records arriving 1 µs apart whose queueing,
// search, LLM wait, prefill and decode take the given durations.
func withLatencies(n int, lat func(i int) (q, s, w, p, d int64)) []workload.Request {
	reqs := make([]workload.Request, n)
	for i := range reqs {
		a := int64(i+1) * 1000
		q, s, w, p, d := lat(i)
		reqs[i] = mkReq(a, a+q, a+q+s, a+q+s+w, a+q+s+w+p, a+q+s+w+p+d)
	}
	return reqs
}

// sizedSummarizer is a Summarizer whose scratch a summary of n records
// sized: its histograms and collect room outsize the summaries after.
func sizedSummarizer(n int) *Summarizer {
	a := new(Summarizer)
	a.Summarize(withLatencies(n, func(i int) (q, s, w, p, d int64) {
		return int64(i % 97), int64(i % 89), 0, int64(i), 1
	}), time.Second, 0)
	return a
}

// TestSummarizeMatchesReference: the streamed summary equals the
// materialized one on every shape that stresses its walks — no record,
// one, two, all-equal latencies, latencies at power-of-two bucket edges
// ± 1, zero and negative stage times, one bucket holding more records
// than the collect scratch (which forces a refinement walk), records
// straddling the cutoff, unserved and undone records, and a stride-64
// ID list — on a cold Summarizer and on one a larger summary sized.
func TestSummarizeMatchesReference(t *testing.T) {
	const ms = int64(time.Millisecond)
	r := rng.New(3)
	exp := func(mean float64) int64 { return int64(r.ExpFloat64() * mean) }
	shapes := map[string][]workload.Request{
		"none": nil,
		"one":  withLatencies(1, func(int) (q, s, w, p, d int64) { return ms, 2 * ms, 0, 3 * ms, 40 * ms }),
		"two": withLatencies(2, func(i int) (q, s, w, p, d int64) {
			return int64(i) * ms, 5 * ms, ms, 7 * ms, int64(i+1) * 90 * ms
		}),
		"all-equal": withLatencies(3000, func(int) (q, s, w, p, d int64) { return 20 * ms, 60 * ms, 5 * ms, 150 * ms, 4000 * ms }),
		"pow2-edges": withLatencies(4000, func(i int) (q, s, w, p, d int64) {
			// TTFT, search and E2E each one off, on or one past a
			// power of two.
			edge := func(k int) int64 { return int64(1)<<((i*k)%62) + int64(i%3) - 1 }
			return 0, edge(7), 0, edge(13) - edge(7), edge(5) - edge(13)
		}),
		"zero-and-negative": withLatencies(2500, func(i int) (q, s, w, p, d int64) {
			return int64(i%5) - 2, int64(i%7) * ms / 3, -int64(i % 3), int64(i%11) - 5, int64(i%13) - 6
		}),
		"past-collect-cap": withLatencies(20_000, func(i int) (q, s, w, p, d int64) {
			// Every TTFT distinct inside the bucket of 2^30 ns.
			return 0, 1 << 29, 0, 1<<29 + int64(i), ms
		}),
		"latency": withLatencies(20_000, func(int) (q, s, w, p, d int64) {
			return exp(20e6), exp(60e6), exp(5e6), exp(150e6), exp(4e9)
		}),
	}
	unserved := withLatencies(3000, func(int) (q, s, w, p, d int64) {
		return exp(20e6), exp(60e6), exp(5e6), exp(150e6), exp(4e9)
	})
	for i := range unserved {
		switch i % 7 {
		case 2:
			unserved[i].FirstToken, unserved[i].Done = 0, 0
		case 4:
			unserved[i].Done = 0
		}
	}
	shapes["unserved-and-undone"] = unserved

	warm := sizedSummarizer(230_000)
	for name, reqs := range shapes {
		for _, slo := range []time.Duration{0, 300 * time.Millisecond} {
			checkSummary(t, name, new(Summarizer), reqs, nil, slo, 0)
			checkSummary(t, name+"/warm", warm, reqs, nil, slo, 0)
			if len(reqs) > 2 {
				// The cutoff lands on a record's arrival: it counts, the
				// one before does not.
				cut := reqs[len(reqs)/3].ArrivalAt
				checkSummary(t, name+"/cutoff", new(Summarizer), reqs, nil, slo, cut)
				checkSummary(t, name+"/cutoff+1", warm, reqs, nil, slo, cut+1)
			}
			var ids []int32
			for i := 5; i < len(reqs); i += 64 {
				ids = append(ids, int32(i))
			}
			checkSummary(t, name+"/stride64", new(Summarizer), reqs, ids, slo, 0)
			checkSummary(t, name+"/stride64/warm", warm, reqs, ids, slo, 0)
		}
	}
}

// TestColdSummaryAllocatesLess: a cold Summarizer allocates less for a
// summary than the one float per record the materialized sample took,
// at the sizes of a serving-sweep run, a fleet replica's share and a
// 64-replica fleet's run, and at most 128 KB however many records.
func TestColdSummaryAllocatesLess(t *testing.T) {
	reqs := withLatencies(230_000, func(i int) (q, s, w, p, d int64) {
		return int64(i % 977 * 1000), 5e7, 1e6, 1e8 + int64(i%4099*1000), 4e9
	})
	for _, n := range []int{2_950, 3_600, 230_000} {
		a := new(Summarizer)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a.Summarize(reqs[:n], time.Second, 0)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(min(8*n, 128<<10)) {
			t.Errorf("n=%d: a cold summary allocated %d bytes", n, got)
		}
	}
}

// fuzzWarm is FuzzSummarize's Summarizer for ID lists, sized once by a
// larger summary: each input then runs on the same scratch geometry.
var fuzzWarm = sizedSummarizer(20_000)

// FuzzSummarize holds Summarize and SummarizeIDs to the materialized
// reference on arbitrary records: each takes 8 bytes for its TTFT and 8
// for its search time (raw, so negatives and huge values occur, or
// folded to a few values for heavy duplicates), its arrival from its
// index, and whether it is served and done from its bytes.
func FuzzSummarize(f *testing.F) {
	f.Add([]byte{}, false, uint8(0), uint16(0), uint32(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, true, uint8(1), uint16(0), uint32(1<<20))
	f.Add(slices.Repeat([]byte{0, 0, 0, 64, 0, 0, 0, 0}, 64), false, uint8(3), uint16(5), uint32(0))
	f.Add(slices.Repeat([]byte{255, 1, 0, 0, 0, 0, 0, 128, 7, 0, 0, 0, 0, 0, 0, 0}, 40), true, uint8(64), uint16(9), uint32(1<<30))
	f.Fuzz(func(t *testing.T, data []byte, few bool, stride uint8, cutIdx uint16, sloNs uint32) {
		var reqs []workload.Request
		for i := 0; len(data) >= 16; i, data = i+1, data[16:] {
			t1 := int64(binary.LittleEndian.Uint64(data))
			s1 := int64(binary.LittleEndian.Uint64(data[8:]))
			if few {
				t1, s1 = t1%5<<20, s1%3
			}
			a := int64(i+1) * 1000
			r := mkReq(a, a, a+s1, a+s1, a+t1, a+t1+int64(data[1]))
			switch {
			case data[0]%9 == 0:
				r.FirstToken, r.Done = 0, 0
			case data[0]%9 == 1:
				r.Done = 0
			}
			reqs = append(reqs, r)
		}
		var cutoff des.Time
		if len(reqs) > 0 {
			cutoff = reqs[int(cutIdx)%len(reqs)].ArrivalAt
		}
		slo := time.Duration(sloNs)
		checkSummary(t, "all", new(Summarizer), reqs, nil, slo, cutoff)
		var ids []int32
		for i := 0; i < len(reqs); i += int(stride) + 1 {
			ids = append(ids, int32(i))
		}
		checkSummary(t, "ids", fuzzWarm, reqs, ids, slo, 0)
	})
}
