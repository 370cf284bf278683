package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	vlr "vectorliterag"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/rag"
)

// publicServe is the run a serve command line used to make through the
// public API: one of the five Serve* entry points, picked by mode, with
// a tenant lineup assembled on its own. It returns the public report.
func publicServe(t *testing.T, f *serveFlags, w *vlr.Workload) any {
	t.Helper()
	m, node, err := modelByName(f.model)
	if err != nil {
		t.Fatal(err)
	}
	var prec *vlr.PrecisionOptions
	if f.precision {
		prec = &vlr.PrecisionOptions{SQBudgetFrac: f.sqBudget, NVMeColdShare: f.nvmeShare}
	}
	var over *vlr.OverloadOptions
	if f.brownout || f.set["queue-cap"] {
		over = &vlr.OverloadOptions{QueueCap: f.queueCap, Brownout: f.brownout}
		if f.stageBudgets != "" {
			over.RetrievalBudget, over.GenerationBudget, _ = parseStageBudgets(f.stageBudgets)
		}
	}
	must := func(rep any, err error) any {
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if f.tenants > 0 {
		names := strings.Split(f.tiers, ",")
		specs := make([]vlr.TenantSpec, f.tenants)
		total := 0
		for i := range specs {
			tier := must(vlr.ParseTier(names[i%len(names)])).(vlr.Tier)
			specs[i] = vlr.TenantSpec{Name: fmt.Sprintf("%s-%d", tier, i), Tier: tier, Workload: w, SLOSearch: f.slo}
			total += tier.Weight()
		}
		for i := range specs {
			specs[i].Rate = f.rate * float64(specs[i].Tier.Weight()) / float64(total)
		}
		last := &specs[len(specs)-1]
		if f.pattern == "burst" {
			last.RateSchedule = vlr.BurstRate(last.Rate, f.rate*1.5, 60*time.Second, 15*time.Second)
		}
		mto := vlr.MultiTenantServeOptions{
			Tenants: specs, Node: node, Model: m, Duration: f.dur, Seed: f.seed,
			SharedQueue: f.sharedQueue, Precision: prec, Overload: over,
		}
		if f.replicas > 1 {
			mto.Replicas, mto.Policy, mto.Workers, mto.NetDelay = f.replicas, vlr.RoutePolicy(f.policy), f.workers, f.netDelay
		}
		return must(vlr.ServeTenants(mto))
	}
	var drift []vlr.DriftEvent
	if f.driftAt > 0 {
		drift = []vlr.DriftEvent{{At: f.driftAt, Rotate: w.DefaultDriftRotation()}}
	}
	var sched vlr.RateSchedule
	if f.pattern == "diurnal" {
		sched = vlr.DiurnalRate(f.rate, f.rate*0.4, f.dur)
	}
	so := vlr.ServeOptions{
		Workload: w, System: vlr.System(f.system), Rate: f.rate, Node: node, Model: m,
		Duration: f.dur, Seed: f.seed, SLOSearch: f.slo, Drift: drift, RateSchedule: sched,
		Workers: f.workers, NetDelay: f.netDelay, Precision: prec, Overload: over,
	}
	switch {
	case f.ingest:
		return must(vlr.ServeLive(vlr.LiveServeOptions{ServeOptions: so, Ingest: vlr.LiveIngestOptions{
			InsertRate: f.ingestRate, DeleteRate: f.deleteRate, ReencodeEvery: f.reencodeEvery, Compaction: f.adaptive,
		}}))
	case f.adaptive:
		return must(vlr.ServeAdaptive(vlr.AdaptiveServeOptions{ServeOptions: so}))
	case f.replicas > 1:
		rc, err := resilienceFromFlags(f)
		if err != nil {
			t.Fatal(err)
		}
		return must(vlr.ServeCluster(vlr.ClusterOptions{
			ServeOptions: so, Replicas: f.replicas, Policy: vlr.RoutePolicy(f.policy), Faults: f.faults, Resilience: rc,
		}))
	}
	return must(vlr.Serve(so))
}

// asPublic projects a run's result onto the public report type want
// has, field for field as the public layer builds it. The timeline is
// the per-request check: the public reports carry no request records,
// and its windows are counted and judged from them.
func asPublic(want any, res *rag.Result) any {
	rep := vlr.Report{
		Summary: res.Summary, SLOTotal: res.SLOTotal, Rho: res.Rho, AvgBatch: res.AvgBatch, Mu0: res.Mu0,
		RecallGain: res.RecallGain, SQClusters: res.SQClusters, NVMeClusters: res.NVMeClusters,
		Timeline: metrics.Timeline(res.Requests, res.SLOTotal, timelineBucket), Overload: res.Overload,
	}
	switch want.(type) {
	case *vlr.Report:
		return &rep
	case *vlr.AdaptiveReport:
		a := res.Adapt
		return &vlr.AdaptiveReport{Report: rep, ExpectedHitRate: a.ExpectedHitRate, Rebuilds: a.Rebuilds, Pending: a.Pending}
	case *vlr.LiveReport:
		l := res.Live
		metrics.AnnotateFreshness(rep.Timeline, l.Mutations, l.FreshnessSLO, timelineBucket)
		lr := &vlr.LiveReport{
			Report: rep, Freshness: l.Freshness, FreshnessSLO: l.FreshnessSLO, Mutations: len(l.Mutations),
			Reencodes: l.Reencodes, Compactions: l.Compactions, SizeSkew: l.SizeSkew, ResidualRatio: l.ResidualRatio,
		}
		if res.Adapt != nil {
			lr.Rebuilds = res.Adapt.Rebuilds
		}
		return lr
	case *vlr.ClusterReport:
		cr := &vlr.ClusterReport{Report: rep, Policy: res.Policy, Workers: res.Workers, NetDelay: res.NetDelay, Resilience: res.Resilience}
		for _, r := range res.PerReplica {
			cr.PerReplica = append(cr.PerReplica, vlr.ReplicaReport{Submitted: r.Submitted, Summary: r.Summary, AvgBatch: r.AvgBatch})
		}
		return cr
	}
	mt := &vlr.MultiTenantReport{
		Fairness: res.Fairness, Attainment: res.Attainment, RecallGain: res.RecallGain, Mu0: res.Mu0, MuLLM: res.MuLLM,
		BudgetBytes: res.BudgetBytes, UsedBytes: res.UsedBytes, AvgBatch: res.AvgBatch,
		SharedQueue: want.(*vlr.MultiTenantReport).SharedQueue, Replicas: len(res.PerReplica),
		Workers: res.Workers, NetDelay: res.NetDelay, Overload: res.Overload,
	}
	for _, tr := range res.Tenants {
		mt.Tenants = append(mt.Tenants, vlr.TenantReport{
			Name: tr.Name, Tier: tr.Tier, Rate: tr.Rate, SLOTotal: tr.SLOTotal,
			Target: tr.Tier.Target(), Met: tr.Summary.Attainment >= tr.Tier.Target(),
			Summary: tr.Summary, Alloc: tr.Alloc, PeakQueue: tr.PeakQueue, Rejected: tr.Rejected,
		})
	}
	return mt
}

// TestServeMatchesPublicAPI is the differential test of the serve
// command's one rag.Options: for each serving mode, the run it builds
// reports what the public Serve* call for the same flags reports, down
// to every summary and the request records behind each window.
func TestServeMatchesPublicAPI(t *testing.T) {
	w := orcas1K(t)
	for _, args := range []string{
		"",
		"-system ALL-GPU",
		"-adapt -drift-at 10s -rate-pattern diurnal",
		"-ingest",
		"-ingest -adapt",
		"-ingest -adapt -ingest-rate 0 -delete-rate 0",
		"-replicas 3 -faults crash@5s:r0:5s -retry 2 -hedge-ms -1 -timeout-ms 8000 -degrade",
		"-replicas 2",
		"-replicas 4 -netdelay 1ms -policy round-robin -workers 1",
		"-tenants 3 -rate-pattern burst",
		"-tenants 3 -replicas 2 -workers 1",
		"-tenants 3 -shared-queue",
		"-tenants 3 -brownout -queue-cap 32 -stage-budgets 350ms:600ms",
		"-brownout -queue-cap 32",
		"-precision -sq-budget 0.2",
	} {
		// A 30 s window: the default 20 s warmup would leave a 20 s one
		// nothing to measure.
		f := parseServe(t, "-duration 30s "+args)
		if err := validateServeFlags(f); err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		o, err := f.options(w)
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		res, err := rag.Run(o)
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		want := publicServe(t, f, w)
		if got := asPublic(want, res); !reflect.DeepEqual(got, want) {
			t.Errorf("%q: the command's run reports\n%+v\nthe public API\n%+v", args, got, want)
		}
		if o.Tenants == nil && res.Summary.N == 0 {
			t.Errorf("%q: no request measured", args)
		}
		// No public report shows whether a controller ran: -ingest -adapt
		// attaches one only beside a stream, as ServeLive does.
		if f.ingest && f.ingestRate == 0 && f.deleteRate == 0 && res.Adapt != nil {
			t.Errorf("%q: a controller attached to a corpus with no stream", args)
		}
	}
}

// TestRecoveryText: a crash whose failovers all completed prints its
// time to recover to the millisecond; one none of whose failovers
// completed (a negative duration) prints "never recovered", not the
// "0s" that rounding −1 ns gives.
func TestRecoveryText(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want string
	}{
		{1234567890, "time to recover 1.235s"},
		{400 * time.Microsecond, "time to recover 0s"},
		{-1, "never recovered"},
		{-3 * time.Second, "never recovered"},
	} {
		if got := recoveryText(c.d); got != c.want {
			t.Errorf("recoveryText(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// TestTimeoutHint: a resilient run that timed attempts out and met no
// SLO gets one line saying what -timeout-ms times; a run that served
// something, or timed nothing out, gets none.
func TestTimeoutHint(t *testing.T) {
	for _, c := range []struct {
		goodput  float64
		timedOut int
		want     string
	}{
		{0, 1316, "goodput 0 after 1316 timeouts: -timeout-ms runs to an attempt's last token, so it must outlast a whole generation at this load"},
		{0.5, 1316, ""},
		{0, 0, ""},
		{12.3, 0, ""},
	} {
		if got := timeoutHint(c.goodput, c.timedOut); got != c.want {
			t.Errorf("timeoutHint(%v, %d) = %q, want %q", c.goodput, c.timedOut, got, c.want)
		}
	}
}

// TestLatencies: a summary line prints "-" for a set with no sample,
// where the summary's zero fields would read as instant service, and
// every value as it is otherwise, a genuine zero included.
func TestLatencies(t *testing.T) {
	for _, c := range []struct {
		sampled bool
		ds      []time.Duration
		want    string
	}{
		{false, []time.Duration{0, 0}, "mean - p90 -"},
		{true, []time.Duration{1500 * time.Millisecond, 2 * time.Second}, "mean 1.5s p90 2s"},
		{true, []time.Duration{0, time.Millisecond}, "mean 0s p90 1ms"},
	} {
		if got := fmt.Sprintf("mean %v p90 %v", latencies(c.sampled, c.ds...)...); got != c.want {
			t.Errorf("latencies(%v, %v) prints %q, want %q", c.sampled, c.ds, got, c.want)
		}
	}
}
