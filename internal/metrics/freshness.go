package metrics

import (
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/workload"
)

// Freshness aggregates a live-ingest run's time-to-searchable — the
// freshness twin of the TTFT summary: how long each mutation waited
// between arriving and becoming visible to queries, and what fraction
// of inserts met the freshness SLO. Mutations never applied by
// measurement time count as violations (a stuck write is a failure,
// not missing data) but are excluded from the percentiles, exactly
// like unserved requests in Summarize.
type Freshness struct {
	Inserts    int       // counted insert mutations
	Deletes    int       // counted delete mutations
	Pending    int       // inserts not yet searchable at measurement time
	Attainment float64   // fraction of inserts searchable within the SLO
	TTS        Quantiles // time-to-searchable over applied inserts
}

// SummarizeFreshness aggregates the mutation log of a live run.
// slo is the freshness budget; mutations arriving before cutoff
// (warmup) are excluded. Attainment covers inserts only — a delete has
// no searchability event — but Deletes are counted for reporting.
func SummarizeFreshness(muts []workload.Mutation, slo time.Duration, cutoff des.Time) Freshness {
	var f Freshness
	var tts []float64
	ok := 0
	for i := range muts {
		m := &muts[i]
		if m.ArrivalAt < cutoff {
			continue
		}
		if m.Kind == workload.MutDelete {
			f.Deletes++
			continue
		}
		f.Inserts++
		if m.AppliedAt == 0 {
			f.Pending++
			continue
		}
		t := m.TimeToSearchable()
		tts = append(tts, float64(t))
		if time.Duration(t) <= slo {
			ok++
		}
	}
	if f.Inserts > 0 {
		f.Attainment = float64(ok) / float64(f.Inserts)
	}
	f.TTS = quantiles(tts)
	return f
}

// AnnotateFreshness folds a mutation log into an attainment timeline:
// each window gains the inserts that arrived inside it and their
// freshness-SLO attainment, so a live run's series shows TTFT and
// time-to-searchable side by side (re-encode stalls appear as
// freshness dips in the window they hit). Mutations past the last
// window are dropped — the timeline's extent is set by request
// arrivals.
func AnnotateFreshness(wins []Window, muts []workload.Mutation, slo time.Duration, width time.Duration) {
	if width <= 0 || len(wins) == 0 {
		return
	}
	for i := range muts {
		m := &muts[i]
		if m.Kind != workload.MutInsert {
			continue
		}
		b := int(m.ArrivalAt / des.Time(width))
		if b < 0 || b >= len(wins) {
			continue
		}
		wins[b].Inserts++
		if m.AppliedAt != 0 && time.Duration(m.TimeToSearchable()) <= slo {
			wins[b].freshOK++
		}
	}
	for i := range wins {
		if wins[i].Inserts > 0 {
			wins[i].FreshAttainment = float64(wins[i].freshOK) / float64(wins[i].Inserts)
		}
	}
}
