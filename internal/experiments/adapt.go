package experiments

import (
	"fmt"
	"strings"
	"time"

	"vectorliterag/internal/adapt"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/rag"
	"vectorliterag/internal/workload"
)

// adaptBucket is the timeline resolution.
const adaptBucket = 30 * time.Second

// Adapt is the online-adaptation study (paper §IV-B3, beyond the
// paper's offline Fig. 9 costing): one non-stationary run — a mid-run
// popularity rotation — served by the static vLiteRAG plan and by the
// adaptive controller, under identical arrivals and drift. The artifact
// is attainment-over-time for both arms plus the controller's trigger
// timeline, showing detection, the background rebuild, the mid-reload
// CPU divert, and recovery inside a single run.
//
// It runs on ORCAS-2K + Qwen3-32B: the dataset whose CPU scan is heavy
// enough that a stranded hot set actually costs SLO attainment, at a
// rate the fresh plan sustains comfortably.
func Adapt(cfg Config) (*Report, error) {
	w, err := WorkloadFor(dataset.Orcas2K)
	if err != nil {
		return nil, err
	}
	dep := qwenH100()
	duration := 360 * time.Second
	if cfg.Quick {
		duration = 240 * time.Second
	}
	const (
		rate      = 20.0
		sloSearch = 150 * time.Millisecond
		driftAt   = 45 * time.Second
	)
	rotate := w.DefaultDriftRotation()
	var adaptive, static *rag.Result
	err = cfg.sweep(grid{dep: dep, spec: dataset.Orcas2K, rates: []float64{rate}, base: func(o *rag.Options) {
		o.Duration, o.Drain = duration, 120*time.Second
		o.SLOSearch = sloSearch
		o.Drift = []dataset.DriftEvent{{At: driftAt, Rotate: rotate}}
	}}, func(_ string, o rag.Options) (err error) {
		ad := o
		ad.Monitor = &adapt.MonitorConfig{}
		if adaptive, err = rag.Run(ad); err != nil {
			return fmt.Errorf("adaptive arm: %w", err)
		}
		if static, err = rag.Run(o); err != nil {
			return fmt.Errorf("static arm: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	ctrl := adaptive.Adapt
	// validateErr is non-empty when a rebuild broke the paper's envelope.
	validateErr := ""
	for _, rb := range ctrl.Rebuilds {
		if rb.Aborted != "" {
			validateErr = "aborted: " + rb.Aborted
		} else if err := rb.Timing.Validate(); err != nil && validateErr == "" {
			validateErr = err.Error()
		}
	}
	staticPost := attainmentFrom(static.Requests, driftAt, static.SLOTotal)
	adaptivePost := attainmentFrom(adaptive.Requests, driftAt, adaptive.SLOTotal)

	rep := &Report{}
	rep.Table(dataCol("expected_hit"), dataCol("rebuilds"), dataCol("validate_err"),
		dataCol("static_post"), dataCol("adaptive_post")).
		Add(ctrl.ExpectedHitRate, len(ctrl.Rebuilds), validateErr, staticPost, adaptivePost)
	rep.Printf("Online adaptation: %s + %s @ %.0f req/s, SLO_search %v\n",
		dataset.Orcas2K.Name, dep.Model.Name, rate, sloSearch)
	rep.Printf("popularity rotates by %d templates at t=%v; expected hit rate %.3f\n\n",
		rotate, driftAt, ctrl.ExpectedHitRate)
	t := rep.Table(
		col("window", "%v", "window_start_s", "%.0f"),
		col("static att", "%.3f", "static_attainment", ""),
		col("adaptive att", "%.3f", "adaptive_attainment", ""),
		col("static hit", "%.3f", "static_hit_rate", ""),
		col("adaptive hit", "%.3f", "adaptive_hit_rate", ""),
		textCol("events", ""),
	)
	st := metrics.Timeline(static.Requests, static.SLOTotal, adaptBucket)
	ad := metrics.Timeline(adaptive.Requests, adaptive.SLOTotal, adaptBucket)
	for i := range min(len(st), len(ad)) {
		start := st[i].Start
		in := func(at time.Duration) bool { return at >= start && at < start+adaptBucket }
		events := []string{}
		if in(driftAt) {
			events = append(events, "drift")
		}
		for j, rb := range ctrl.Rebuilds {
			if in(time.Duration(rb.TriggeredAt)) {
				events = append(events, fmt.Sprintf("trigger#%d", j+1))
			}
			if rb.SwappedAt > 0 && in(time.Duration(rb.SwappedAt)) {
				events = append(events, fmt.Sprintf("swap#%d", j+1))
			}
		}
		t.Add(start, st[i].Attainment, ad[i].Attainment, st[i].MeanHitRate, ad[i].MeanHitRate,
			strings.Join(events, " "))
	}

	rep.Printf("\nrebuild timeline:\n")
	if len(ctrl.Rebuilds) == 0 {
		rep.Printf("  (none triggered)\n")
	}
	round := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	for i, rb := range ctrl.Rebuilds {
		if rb.Aborted != "" {
			rep.Printf("  #%d triggered %v, ABORTED (%s)\n", i+1, round(time.Duration(rb.TriggeredAt)), rb.Aborted)
			continue
		}
		rep.Printf("  #%d triggered %v: profile %v + algorithm %v + split %v + load %v = %v; swap at %v; rho %.3f -> %.3f\n",
			i+1, round(time.Duration(rb.TriggeredAt)),
			round(rb.Timing.Profiling), round(rb.Timing.Algorithm), round(rb.Timing.Splitting), round(rb.Timing.Loading),
			round(rb.Timing.Total()), round(time.Duration(rb.SwappedAt)), rb.OldRho, rb.NewRho)
	}
	if validateErr != "" {
		rep.Printf("  WARNING: %s\n", validateErr)
	}
	rep.Printf("\npost-drift attainment: static %.3f, adaptive %.3f", staticPost, adaptivePost)
	if adaptivePost > staticPost && len(ctrl.Rebuilds) > 0 && validateErr == "" {
		rep.Printf("  (recovered within the run ✓)")
	}
	rep.Printf("\n")
	return rep, nil
}

// attainmentFrom computes SLO attainment over requests arriving at or
// after the cutoff (unserved count as violations, as in Summarize).
func attainmentFrom(reqs []workload.Request, from time.Duration, slo time.Duration) float64 {
	n, ok := 0, 0
	for i := range reqs {
		r := &reqs[i]
		if time.Duration(r.ArrivalAt) < from {
			continue
		}
		n++
		if r.FirstToken > 0 && time.Duration(r.TTFT()) <= slo {
			ok++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(ok) / float64(n)
}
