package rag

import (
	"reflect"
	"testing"
	"time"

	"vectorliterag/internal/adapt"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/workload"
)

// driftOpts is the shared §IV-B3 scenario: steady traffic with one
// mid-run popularity rotation large enough to strand the initial hot
// set, under a search SLO tight enough that the stale plan's CPU
// detours matter. It attaches no controller: the static arm.
func driftOpts(t *testing.T, rate float64) Options {
	t.Helper()
	w := testW(t)
	rot := w.DefaultDriftRotation()
	o := baseOpts(t, VLiteRAG, rate)
	o.Duration = 240 * time.Second
	o.Drain = 120 * time.Second
	o.SLOSearch = 100 * time.Millisecond
	o.Drift = []dataset.DriftEvent{{At: 45 * time.Second, Rotate: rot}}
	return o
}

// meanHitFrom averages the served hit rate over requests arriving at or
// after the cutoff.
// adaptive is o with the adapt controller attached at default
// thresholds.
func adaptive(o Options) Options {
	o.Monitor = &adapt.MonitorConfig{}
	return o
}

func meanHitFrom(res *Result, from time.Duration) float64 {
	n, sum := 0, 0.0
	for _, r := range res.Requests {
		if time.Duration(r.ArrivalAt) < from || r.FirstToken == 0 {
			continue
		}
		n++
		sum += r.HitRate
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func postDriftAttainment(res *Result, from time.Duration, slo time.Duration) float64 {
	n, ok := 0, 0
	for _, r := range res.Requests {
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

func TestAdaptiveRecoversFromDrift(t *testing.T) {
	opts := driftOpts(t, 28)

	ad, err := Run(adaptive(opts))
	if err != nil {
		t.Fatal(err)
	}
	static, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	if len(ad.Adapt.Rebuilds) != 1 {
		t.Fatalf("want exactly one rebuild (echo triggers suppressed), got %d: %+v",
			len(ad.Adapt.Rebuilds), ad.Adapt.Rebuilds)
	}
	rb := ad.Adapt.Rebuilds[0]
	if rb.Aborted != "" {
		t.Fatalf("rebuild aborted: %s", rb.Aborted)
	}
	if err := rb.Timing.Validate(); err != nil {
		t.Fatalf("rebuild timing outside the paper's envelope: %v", err)
	}
	if rb.TriggeredAt < int64(45*time.Second) {
		t.Fatalf("rebuild triggered at %v, before the drift at 45s", time.Duration(rb.TriggeredAt))
	}
	if !(rb.TriggeredAt < rb.ProfileDoneAt && rb.ProfileDoneAt < rb.AlgoDoneAt &&
		rb.AlgoDoneAt < rb.SplitDoneAt && rb.SplitDoneAt < rb.SwappedAt) {
		t.Fatalf("rebuild phases out of order: %+v", rb)
	}
	if got := time.Duration(rb.SwappedAt - rb.TriggeredAt); got != rb.Timing.Total() {
		t.Fatalf("simulated cycle %v != priced total %v", got, rb.Timing.Total())
	}

	// The recovery signal: after the swap the adaptive run serves the
	// drifted queries from a matching hot set again, while the static
	// plan keeps missing. The stale plan's post-drift hit rate on this
	// workload is ~0.55; the fresh plan restores ~0.93.
	from := time.Duration(rb.SwappedAt)
	adHit := meanHitFrom(ad, from)
	stHit := meanHitFrom(static, from)
	if adHit < stHit+0.2 {
		t.Fatalf("post-swap hit rate %.3f not well above static %.3f", adHit, stHit)
	}
	if adHit < ad.Adapt.ExpectedHitRate-0.1 {
		t.Fatalf("post-swap hit rate %.3f never returned to expectation %.3f",
			adHit, ad.Adapt.ExpectedHitRate)
	}
	// And attainment must not be worse than the static arm's over the
	// post-drift interval.
	adAtt := postDriftAttainment(ad, 45*time.Second, ad.SLOTotal)
	stAtt := postDriftAttainment(static, 45*time.Second, static.SLOTotal)
	if adAtt < stAtt {
		t.Fatalf("adaptive post-drift attainment %.3f below static %.3f", adAtt, stAtt)
	}
	t.Logf("post-drift attainment: static %.3f, adaptive %.3f; post-swap hit: static %.3f, adaptive %.3f; rebuild %v (trigger %v, swap %v)",
		stAtt, adAtt, stHit, adHit, rb.Timing.Total().Round(time.Millisecond),
		time.Duration(rb.TriggeredAt).Round(time.Millisecond),
		time.Duration(rb.SwappedAt).Round(time.Millisecond))
}

func TestAdaptiveNoDriftNoRebuild(t *testing.T) {
	res, err := Run(adaptive(baseOpts(t, VLiteRAG, 12)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Adapt.Rebuilds) != 0 {
		t.Fatalf("stationary workload triggered %d rebuilds: %+v", len(res.Adapt.Rebuilds), res.Adapt.Rebuilds)
	}
	if res.Adapt.Observed == 0 {
		t.Fatal("monitor observed no requests")
	}
}

// TestAdaptiveDeterministic extends the repo's determinism contract to
// the control plane: same seed ⇒ bit-identical trigger timestamps,
// rebuild timings, and final summary — even with an inhomogeneous
// arrival process layered on top of the drift trace.
func TestAdaptiveDeterministic(t *testing.T) {
	mk := func() Options {
		o := driftOpts(t, 12)
		o.RateSchedule = workload.Bursts(12, 16, 60*time.Second, 10*time.Second)
		return adaptive(o)
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Adapt, b.Adapt) {
		t.Fatalf("controller records differ:\n%+v\nvs\n%+v", a.Adapt, b.Adapt)
	}
	if a.Summary != b.Summary {
		t.Fatalf("summaries differ:\n%+v\nvs\n%+v", a.Summary, b.Summary)
	}
	if a.Generated != b.Generated {
		t.Fatalf("arrival counts differ: %d vs %d", a.Generated, b.Generated)
	}
}

// TestAdaptivePartialMonitorConfigGetsDefaults: pinning only the window
// must not zero out the thresholds (which would silently disable
// detection).
func TestAdaptivePartialMonitorConfigGetsDefaults(t *testing.T) {
	opts := driftOpts(t, 28)
	opts.Monitor = &adapt.MonitorConfig{WindowRequests: 280}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Adapt.Rebuilds) == 0 {
		t.Fatal("window-only monitor config disabled drift detection")
	}
}

// TestAdaptiveReportsPendingRebuild: a trigger whose cycle cannot finish
// before the clock stops must surface as Pending, not vanish.
func TestAdaptiveReportsPendingRebuild(t *testing.T) {
	opts := driftOpts(t, 28)
	opts.Duration = 70 * time.Second // trigger ~58s; the ~42s cycle cannot finish
	opts.Drain = 10 * time.Second
	res, err := Run(adaptive(opts))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Adapt.Rebuilds) != 0 {
		t.Fatalf("cycle implausibly completed: %+v", res.Adapt.Rebuilds)
	}
	if res.Adapt.Pending == nil {
		t.Fatal("in-flight rebuild dropped from the report")
	}
	if res.Adapt.Pending.TriggeredAt < int64(45*time.Second) {
		t.Fatalf("pending trigger at %v, before the drift", time.Duration(res.Adapt.Pending.TriggeredAt))
	}
}

func TestAdaptiveRejectsNonHybrid(t *testing.T) {
	if _, err := Run(adaptive(baseOpts(t, CPUOnly, 10))); err == nil {
		t.Fatal("non-hybrid system accepted for adaptive serving")
	}
}

// TestDriftRestoresRotation: a drifted run must leave the shared
// workload exactly as it found it.
func TestDriftRestoresRotation(t *testing.T) {
	w := testW(t)
	before := w.PopularityRotation()
	o := baseOpts(t, CPUOnly, 10)
	o.Drift = []dataset.DriftEvent{{At: 10 * time.Second, Rotate: 17}}
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	if got := w.PopularityRotation(); got != before {
		t.Fatalf("rotation leaked: %d -> %d", before, got)
	}
}

func TestRunValidatesDriftAndSchedule(t *testing.T) {
	o := baseOpts(t, CPUOnly, 10)
	o.Drift = []dataset.DriftEvent{{At: 10 * time.Second, Rotate: 0}}
	if _, err := Run(o); err == nil {
		t.Fatal("no-op drift trace accepted")
	}
	o = baseOpts(t, CPUOnly, 10)
	o.Rate = 0
	o.RateSchedule = workload.Constant(0)
	if _, err := Run(o); err == nil {
		t.Fatal("zero-rate schedule accepted")
	}
	// A schedule alone (zero Rate) is valid.
	o = baseOpts(t, CPUOnly, 0)
	o.RateSchedule = workload.Ramp(5, 15, 30*time.Second)
	o.Duration = 40 * time.Second
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated < 100 {
		t.Fatalf("ramp schedule produced only %d arrivals", res.Generated)
	}
}
