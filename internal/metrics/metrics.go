// Package metrics computes the serving metrics the paper reports: SLO
// attainment (fraction of requests whose TTFT meets the combined
// budget), TTFT and end-to-end latency percentiles, and the TTFT stage
// breakdown of Fig. 12 (queuing delay, vector search, prefill).
//
// Aggregation operates over []workload.Request *values* — a run's
// arrival-ordered records, one per arrival — read after the run, whole
// or through an ID list (one replica's share). A Summarizer reuses its
// scratch buffer across calls.
package metrics

import (
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/stats"
	"vectorliterag/internal/workload"
)

// Quantiles is a latency five-number summary.
type Quantiles struct {
	Mean, P50, P90, P95, P99 time.Duration
}

// Breakdown is the mean TTFT stage split.
type Breakdown struct {
	Queueing time.Duration // arrival → search batch start
	Search   time.Duration // search batch start → results forwarded
	LLMWait  time.Duration // forwarded → admitted to prefill
	Prefill  time.Duration // admission → first token
}

// Summary aggregates one run.
type Summary struct {
	N          int     // all counted requests, served or not
	Unserved   int     // requests that never produced a first token
	Attainment float64 // fraction with TTFT <= SLO (unserved = violation)
	TTFT       Quantiles
	E2E        Quantiles
	Search     Quantiles
	Breakdown  Breakdown
}

// Summarizer aggregates runs into Summaries while reusing its sample
// scratch across calls — the allocation-free aggregation path a run
// holds while it summarizes itself and its replicas.
type Summarizer struct {
	buf []float64
}

// Summarize filters to requests that arrived at or after cutoff (warmup
// exclusion) and aggregates. slo is the combined TTFT budget
// (SLO_search + SLO_LLM, Table I). Requests still stuck in the system
// at measurement time count as SLO violations — under overload a
// backlog is a failure, not missing data — but are excluded from the
// latency percentiles.
func (a *Summarizer) Summarize(reqs []workload.Request, slo time.Duration, cutoff des.Time) Summary {
	return a.summarize(reqs, nil, true, slo, cutoff)
}

// SummarizeIDs is Summarize over the records reqs[ids[0]], reqs[ids[1]],
// ... in that order — one replica's share of a run's arrival-ordered
// records, read where they lie. An empty or nil ids is no record at all.
func (a *Summarizer) SummarizeIDs(reqs []workload.Request, ids []int32, slo time.Duration, cutoff des.Time) Summary {
	return a.summarize(reqs, ids, false, slo, cutoff)
}

// summarize reads every record of reqs when all is set, and otherwise
// the records ids names.
//
// The three latency sets are sampled one after another into one
// scratch buffer, each read and released before the next is taken, so
// the scratch is one float per record rather than three.
func (a *Summarizer) summarize(reqs []workload.Request, ids []int32, all bool, slo time.Duration, cutoff des.Time) Summary {
	var sumQ, sumS, sumW, sumP float64
	ok := 0
	ttft, n := a.sample(reqs, ids, all, cutoff, func(r *workload.Request) (des.Time, bool) {
		t := r.TTFT()
		if time.Duration(t) <= slo {
			ok++
		}
		sumQ += float64(r.QueueingDelay())
		sumS += float64(r.SearchLatency())
		sumW += float64(r.LLMStart - r.SearchDone)
		sumP += float64(r.FirstToken - r.LLMStart)
		return t, true
	})
	served := len(ttft)
	s := Summary{N: n, Unserved: n - served}
	if n == 0 {
		return s
	}
	s.Attainment = float64(ok) / float64(n)
	if served == 0 {
		return s
	}
	s.TTFT = quantiles(ttft)
	e2e, _ := a.sample(reqs, ids, all, cutoff, func(r *workload.Request) (des.Time, bool) { return r.E2E(), r.Done > 0 })
	s.E2E = quantiles(e2e)
	search, _ := a.sample(reqs, ids, all, cutoff, func(r *workload.Request) (des.Time, bool) { return r.SearchLatency(), true })
	s.Search = quantiles(search)
	fs := float64(served)
	s.Breakdown = Breakdown{
		Queueing: time.Duration(sumQ / fs),
		Search:   time.Duration(sumS / fs),
		LLMWait:  time.Duration(sumW / fs),
		Prefill:  time.Duration(sumP / fs),
	}
	return s
}

// sample walks the records summarize reads, in order, and returns in
// the scratch buffer of(r) for every one that arrived at or after cutoff
// and produced a first token, where of reports a value, along with how
// many arrived at or after cutoff. The sample is valid until the next
// call.
func (a *Summarizer) sample(reqs []workload.Request, ids []int32, all bool, cutoff des.Time, of func(*workload.Request) (des.Time, bool)) (sample []float64, n int) {
	m := len(ids)
	if all {
		m = len(reqs)
	}
	// No sample can outgrow the record count: size the scratch once
	// instead of regrowing it append by append.
	if cap(a.buf) < m {
		a.buf = make([]float64, 0, m)
	}
	sample = a.buf[:0]
	for i := 0; i < m; i++ {
		r := &reqs[i]
		if !all {
			r = &reqs[ids[i]]
		}
		if r.ArrivalAt < cutoff {
			continue
		}
		n++
		if r.FirstToken == 0 {
			continue
		}
		if v, ok := of(r); ok {
			sample = append(sample, float64(v))
		}
	}
	return sample, n
}

// Goodput is SLO-meeting completions per second of arrival window —
// requests that arrived in [cutoff, horizon), eventually finished
// generation, and produced their first token within their tenant's
// combined TTFT budget: slos is indexed by Request.Tenant, and a tenant
// out of range (a single corpus passes one budget) is judged against
// slos[0]. Failed, abandoned, and still-stuck requests simply do not
// count, so goodput falls exactly by the work a failure storm or an
// overload destroys. It is the resilience headline, and the overload
// experiment's across arms, where a single shared SLO would mis-credit
// bronze completions against gold's budget.
func Goodput(reqs []workload.Request, slos []time.Duration, cutoff, horizon des.Time) float64 {
	window := float64(horizon-cutoff) / float64(time.Second)
	if window <= 0 || len(slos) == 0 {
		return 0
	}
	ok := 0
	for i := range reqs {
		r := &reqs[i]
		if r.ArrivalAt < cutoff || r.ArrivalAt >= horizon || r.FirstToken == 0 || r.Done == 0 {
			continue
		}
		slo := slos[0]
		if r.Tenant >= 0 && r.Tenant < len(slos) {
			slo = slos[r.Tenant]
		}
		if time.Duration(r.TTFT()) <= slo {
			ok++
		}
	}
	return float64(ok) / window
}

// summaryPs are the percentiles a Quantiles reports, ascending.
var summaryPs = []float64{0.50, 0.90, 0.95, 0.99}

// quantiles computes the five-number summary: the mean over the sample
// in collection order (bit-compatible with the historical float
// summation order), then the percentiles by selection, which reorders
// the sample in place — it is the caller's scratch, and nothing reads
// it again.
func quantiles(sample []float64) Quantiles {
	if len(sample) == 0 {
		return Quantiles{}
	}
	mean := stats.Mean(sample)
	var p [4]float64
	stats.SelectPercentiles(sample, summaryPs, p[:])
	return Quantiles{
		Mean: time.Duration(mean),
		P50:  time.Duration(p[0]),
		P90:  time.Duration(p[1]),
		P95:  time.Duration(p[2]),
		P99:  time.Duration(p[3]),
	}
}
