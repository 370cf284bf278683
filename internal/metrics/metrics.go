// Package metrics computes the serving metrics the paper reports: SLO
// attainment (fraction of requests whose TTFT meets the combined
// budget), TTFT and end-to-end latency percentiles, and the TTFT stage
// breakdown of Fig. 12 (queuing delay, vector search, prefill).
//
// Aggregation operates over []workload.Request *values* — a run's
// arrival-ordered records, one per arrival — read after the run, whole
// or through an ID list (one replica's share). A Summarizer streams the
// records through a stats.Selector, which keeps no per-record sample,
// and reuses its scratch across calls.
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

// Summarizer aggregates runs into Summaries while reusing its
// selection scratch across calls — the allocation-free aggregation path
// a run holds while it summarizes itself and its replicas.
type Summarizer struct {
	sel stats.Selector
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

// The latency sets a summary streams through its Selector.
const (
	ttftSet = iota
	e2eSet
	searchSet
	latencySets
)

// chunk is how many latencies of each set a walk hands the Selector at
// once.
const chunk = 256

// observe hands one chunk of each latency set to sel.
func observe(sel *stats.Selector, ttft, e2e, search []int64) {
	sel.Observe(ttftSet, ttft)
	sel.Observe(e2eSet, e2e)
	sel.Observe(searchSet, search)
}

// summarize reads every record of reqs when all is set, and otherwise
// the records ids names, in walks the Selector asks for. The first
// takes the counts, the attainment and the breakdown sums; every walk
// streams each served record's three latencies, so no walk keeps a
// per-record sample.
func (a *Summarizer) summarize(reqs []workload.Request, ids []int32, all bool, slo time.Duration, cutoff des.Time) Summary {
	m := len(ids)
	if all {
		m = len(reqs)
	}
	sel := &a.sel
	sel.Reset(latencySets, m, summaryPs)
	var s Summary
	var sumT, sumE, sumS, sumQ, sumW, sumP float64 // in collection order
	ok := 0
	// Latencies pass to the Selector a chunk at a time; TTFT and search
	// fill together, E2E only for records done.
	var ttft, search, e2e [chunk]int64
	for first := true; ; first = false {
		nt, ne := 0, 0
		for i := 0; i < m; i++ {
			r := &reqs[i]
			if !all {
				r = &reqs[ids[i]]
			}
			if r.ArrivalAt < cutoff {
				continue
			}
			if first {
				s.N++
			}
			if r.FirstToken == 0 {
				continue
			}
			t, sl := r.TTFT(), r.SearchLatency()
			if first {
				if time.Duration(t) <= slo {
					ok++
				}
				sumT += float64(t)
				sumS += float64(sl)
				sumQ += float64(r.QueueingDelay())
				sumW += float64(r.LLMStart - r.SearchDone)
				sumP += float64(r.FirstToken - r.LLMStart)
				if r.Done > 0 {
					sumE += float64(r.E2E())
				}
			}
			ttft[nt], search[nt] = t, sl
			nt++
			if r.Done > 0 {
				e2e[ne] = r.E2E()
				ne++
			}
			if nt == chunk {
				observe(sel, ttft[:], e2e[:ne], search[:])
				nt, ne = 0, 0
			}
		}
		observe(sel, ttft[:nt], e2e[:ne], search[:nt])
		if !sel.Next() {
			break
		}
	}
	if s.N == 0 {
		return s
	}
	s.Attainment = float64(ok) / float64(s.N)
	var served int
	served, s.TTFT = quantiles(sel, ttftSet, sumT)
	s.Unserved = s.N - served
	if served == 0 {
		return s
	}
	_, s.E2E = quantiles(sel, e2eSet, sumE)
	_, s.Search = quantiles(sel, searchSet, sumS)
	fs := float64(served)
	s.Breakdown = Breakdown{
		Queueing: time.Duration(sumQ / fs),
		Search:   time.Duration(sumS / fs),
		LLMWait:  time.Duration(sumW / fs),
		Prefill:  time.Duration(sumP / fs),
	}
	return s
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

// quantiles reads set's sample count and five-number summary off sel
// after its last walk: the mean of the sample, whose sum the caller
// took in collection order (the float adds stats.Mean makes), and the
// percentiles stats.SelectPercentiles reads from the sample.
func quantiles(sel *stats.Selector, set int, sum float64) (int, Quantiles) {
	var p [4]float64
	n := sel.Result(set, p[:])
	if n == 0 {
		return 0, Quantiles{}
	}
	return n, Quantiles{
		Mean: time.Duration(sum / float64(n)),
		P50:  time.Duration(p[0]),
		P90:  time.Duration(p[1]),
		P95:  time.Duration(p[2]),
		P99:  time.Duration(p[3]),
	}
}
