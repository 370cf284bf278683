package experiments

import (
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/rag"
	"vectorliterag/internal/workload"
)

// overloadQueueCap is the per-tenant admission bound shared by the
// reject-only and brownout arms. Sized like the FairScheduler's
// in-flight bound: deep enough to absorb a burst, shallow
// enough that a queue this long already means the SLO is lost.
const overloadQueueCap = 32

// overloadOpts assembles the ramp-past-capacity scenario. All three
// tenants ramp linearly over 30 s and hold: gold 9→12 req/s, silver
// 3→6, bronze 2.5→39 — an aggregate 14.5→57 req/s against ≈38 req/s
// of provisioned capacity, i.e. sustained ≈1.5× overload rather than
// the tenants experiment's transient burst. Precision upgrades are on
// in every arm so the brownout ladder's SQ8→PQ rung has recall to
// give back, and the run is pinned to a one-replica fleet (explicit
// NetDelay) so worker count provably never moves the schedule.
func overloadOpts(cfg Config, rampOver time.Duration) (rag.Options, error) {
	duration := 240 * time.Second
	if cfg.Quick {
		duration = 90 * time.Second
	}
	opts, err := cfg.threeTenants(duration)
	if err != nil {
		return opts, err
	}
	for i, peak := range []float64{12, 6, 39} {
		tc := &opts.Tenants[i]
		tc.RateSchedule = workload.Ramp(tc.Rate, peak, rampOver)
	}
	opts.Precision = &rag.PrecisionOptions{}
	opts.Warmup = 20 * time.Second
	opts.Replicas, opts.NetDelay = 1, rag.DefaultNetDelay
	opts.Workers = cfg.workers
	return opts, nil
}

// collapsed reports whether the naive-queue failure signature is
// present in an arm's rows: either aggregate attainment fell below
// half, or some tenant's queue grew past ten times the bounded arms'
// cap — the unbounded-backlog half of the metastable picture.
func collapsed(t *Table, arm string) bool {
	for _, r := range t.Rows() {
		if r.Str("arm") == arm && (r.Float("agg_attainment") < 0.5 || r.Int("peak queue") > 10*overloadQueueCap) {
			return true
		}
	}
	return false
}

// Overload is the overload-resilience study: three tenants ramp their
// aggregate arrival rate from well inside a Qwen3-32B/H100 node's
// ≈38 req/s capacity to ≈1.5× past it (bronze supplies most of the
// surge), then hold there. Three arms serve the identical traces:
//
//   - naive-queue:  unbounded per-tenant queues, no shedding — the
//     metastable baseline where bronze's backlog grows without bound
//     and drags the aggregate down with it.
//   - reject-only:  bounded admission (per-tenant queue cap) with
//     early rejection, no brownout — load is dropped, never degraded.
//   - brownout:     bounded admission plus the closed-loop controller
//     walking the shed ladder (nprobe → rerank depth → SQ8→PQ
//     precision fallback), tier-biased so gold sheds least.
//
// The artifact: under the same 1.5× overload, the brownout arm keeps
// gold at or above its tier target while the naive queue collapses.
func Overload(cfg Config) (*Report, error) {
	const rampOver = 30 * time.Second
	opts, err := overloadOpts(cfg, rampOver)
	if err != nil {
		return nil, err
	}
	var baseRate, peakRate float64 // aggregate arrival rate before and after the ramp
	for _, tc := range opts.Tenants {
		baseRate += tc.RateSchedule.RateAt(0)
		peakRate += tc.RateSchedule.RateAt(rampOver)
	}
	rep := &Report{}
	rep.Printf("Overload resilience: aggregate ramp %.1f→%.1f req/s over %v against ≈38 req/s capacity\n",
		baseRate, peakRate, rampOver)
	rep.Printf("bounded arms cap each tenant's queue at %d; brownout walks the tier-biased shed ladder\n\n",
		overloadQueueCap)
	t := rep.Table(
		col("arm", "", "arm", ""),
		col("tenant", "", "tenant", ""),
		col("tier", "", "tier", ""),
		col("peak rate", "%.1f", "peak_rate", "%.1f"),
		col("attainment", "%.3f", "attainment", ""),
		col("target", "%.2f", "target", "%.2f"),
		col("met", "", "met", ""),
		col("TTFT p90", "%.0fms", "ttft_p90_s", ""),
		col("peak queue", "", "peak_queue", ""),
		col("rejected", "", "rejected", ""),
		// Per-arm outcomes, repeated on each of the arm's tenant rows.
		// Goodput is requests served within their own tenant's combined SLO
		// per second of measured window; recall_gain is the served mean
		// per-query gain from SQ8 upgrades, some of which the brownout arm
		// gives back when the precision-fallback rung forces PQ scans; the
		// last three are the controller's trajectory (zero without brownout).
		csvCol("goodput_rps", ""),
		csvCol("agg_attainment", ""),
		csvCol("recall_gain", ""),
		csvCol("max_level", ""),
		csvCol("time_in_brownout_s", ""),
		csvCol("mean_shed", ""),
	)
	err = eachArm(opts, []arm[rag.Options]{
		{name: "naive-queue"},
		{"reject-only", func(o *rag.Options) {
			o.Overload = &rag.OverloadOptions{QueueCap: overloadQueueCap}
		}},
		{"brownout", func(o *rag.Options) {
			o.Overload = &rag.OverloadOptions{QueueCap: overloadQueueCap, Brownout: true}
		}},
	}, func(name string, o rag.Options) error {
		r, err := rag.Run(o)
		if err != nil {
			return err
		}
		slos := make([]time.Duration, len(r.Tenants))
		for i, tr := range r.Tenants {
			slos[i] = tr.SLOTotal
		}
		goodput := metrics.TenantGoodput(r.Requests, slos, des.Time(o.Warmup), des.Time(o.Duration))
		ov := r.Overload
		if ov == nil {
			ov = &rag.OverloadReport{}
		}
		for i, tr := range r.Tenants {
			att, target := tr.Summary.Attainment, tr.Tier.Target()
			t.Add(name, tr.Name, string(tr.Tier), o.Tenants[i].RateSchedule.RateAt(time.Hour),
				att, target, att >= target, tr.Summary.TTFT.P90, tr.PeakQueue, tr.Rejected,
				goodput, r.Attainment, r.RecallGain, ov.MaxLevel, ov.TimeInBrownout, ov.MeanShed)
		}
		rep.Printf("\n%s: goodput %.2f req/s, aggregate attainment %.3f, recall gain %.4f",
			name, goodput, r.Attainment, r.RecallGain)
		if o.Overload != nil {
			rep.Printf(", rejected %d", ov.RejectedTotal)
			if o.Overload.Brownout {
				rep.Printf("\n  brownout: max level %d, %.0f%% of run in brownout, mean shed %.2f",
					ov.MaxLevel, ov.BrownoutShare*100, ov.MeanShed)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Printf("\n")
	gold := t.Row("arm", "brownout", "tenant", "gold").Float("attainment")
	if naive := collapsed(t, "naive-queue"); gold >= 0.90 && naive {
		rep.Printf("\noverload contained: brownout holds gold ≥0.90 at 1.5× capacity while the naive queue collapses ✓\n")
	} else {
		rep.Printf("\ngold under brownout %.3f (want ≥0.90); naive collapse %t\n", gold, naive)
	}
	return rep, nil
}
