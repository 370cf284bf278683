package metrics

import (
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/workload"
)

// Window is one bucket of an attainment-over-time series: the requests
// that *arrived* inside [Start, Start+width), their SLO attainment, and
// the mean served hit rate the retrieval tier recorded for them. It is
// the unit of the drift-study artifact — attainment dips when the plan
// goes stale and recovers after the adaptive swap.
type Window struct {
	Start       time.Duration
	N           int
	Unserved    int
	Attainment  float64
	MeanHitRate float64 // over served requests; 0 when none served

	// Freshness columns, filled by AnnotateFreshness on live-ingest
	// runs (zero on frozen runs): inserts arriving in the window and
	// the fraction of them searchable within the freshness SLO.
	Inserts         int
	FreshAttainment float64

	// Unexported accumulators, folded into the exported fields when the
	// bucketing pass finalizes; keeping them inline is what lets
	// Timeline aggregate without per-window side slices.
	ok, served, freshOK int
	hitSum              float64
}

// Timeline buckets requests by arrival time into fixed windows and
// computes per-window SLO attainment. Requests still stuck in the
// system count as violations, exactly as in Summarize. Windows run from
// time zero through the last arrival; empty windows are kept so the
// series has no gaps.
func Timeline(reqs []workload.Request, slo time.Duration, width time.Duration) []Window {
	if width <= 0 || len(reqs) == 0 {
		return nil
	}
	var last des.Time
	for i := range reqs {
		if reqs[i].ArrivalAt > last {
			last = reqs[i].ArrivalAt
		}
	}
	wins := make([]Window, int(last/des.Time(width))+1)
	for i := range wins {
		wins[i].Start = time.Duration(i) * width
	}
	for i := range reqs {
		r := &reqs[i]
		b := int(r.ArrivalAt / des.Time(width))
		wins[b].N++
		if r.FirstToken == 0 {
			wins[b].Unserved++
			continue
		}
		wins[b].served++
		wins[b].hitSum += r.HitRate
		if time.Duration(r.TTFT()) <= slo {
			wins[b].ok++
		}
	}
	for i := range wins {
		if wins[i].N > 0 {
			wins[i].Attainment = float64(wins[i].ok) / float64(wins[i].N)
		}
		if wins[i].served > 0 {
			wins[i].MeanHitRate = wins[i].hitSum / float64(wins[i].served)
		}
	}
	return wins
}
