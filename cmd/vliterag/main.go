// Command vliterag regenerates the paper's evaluation artifacts and
// runs ad-hoc serving experiments.
//
// Usage:
//
//	vliterag list                      # registered experiments
//	vliterag run -exp fig11 [-quick]   # regenerate one figure/table
//	vliterag run -exp all  [-quick]    # regenerate everything
//	vliterag serve -system vLiteRAG -dataset orcas1k -rate 30
//	vliterag serve -replicas 2 -policy least-loaded -rate 60
//	vliterag serve -replicas 16 -workers 8 -netdelay 1ms -rate 480
//	    # parallel sharded cluster: N worker goroutines, bit-identical
//	    # schedule for any -workers value
//	vliterag serve -replicas 3 -rate 90 -faults crash@20s:r0:10s \
//	    -retry 2 -timeout-ms 8000 -hedge-ms -1 -degrade
//	    # failure storm with retries, auto-hedging, and graceful
//	    # degradation under the capacity loss
//	vliterag serve -adapt -dataset orcas2k -rate 20 -slo 150ms \
//	    -drift-at 45s -duration 6m     # online adaptation under drift
//	vliterag serve -tenants 3 -tiers gold,silver,bronze -rate 15 \
//	    -rate-pattern burst            # SLO-tiered multi-tenant serving
//	vliterag serve -tenants 3 -shared-queue -rate 15 -rate-pattern burst
//	vliterag serve -tenants 3 -rate 50 -brownout -queue-cap 32 \
//	    -stage-budgets 350ms:600ms     # overload control: bounded
//	    # admission plus the tier-biased quality-shedding ladder
//	vliterag serve -ingest -ingest-rate 4 -delete-rate 1 \
//	    -reencode-every 25s -rate 30  # live-corpus streaming ingest:
//	    # mutations, tombstones, and freshness SLOs on the timeline
//	vliterag build -dataset orcas2k    # offline partitioning only
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	vlr "vectorliterag"
)

// profiler wires the optional -cpuprofile/-memprofile flag pair into a
// subcommand's flag set, so perf work can attach pprof evidence to any
// run/serve/build invocation.
type profiler struct {
	cpu, mem *string
	cpuFile  *os.File
}

func profileFlags(fs *flag.FlagSet) *profiler {
	return &profiler{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// start begins CPU profiling if requested; call stop before exiting.
func (p *profiler) start() error {
	if *p.cpu == "" {
		return nil
	}
	f, err := os.Create(*p.cpu)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	p.cpuFile = f
	return nil
}

// stop flushes both profiles. It is safe to call when profiling was
// never started.
func (p *profiler) stop() error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			return err
		}
		p.cpuFile = nil
	}
	if *p.mem == "" {
		return nil
	}
	f, err := os.Create(*p.mem)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC() // flush recently freed objects out of the heap profile
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		for _, id := range vlr.Experiments() {
			fmt.Println(id)
		}
	case "run":
		err = runCmd(os.Args[2:])
	case "serve":
		err = serveCmd(os.Args[2:])
	case "build":
		err = buildCmd(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vliterag:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: vliterag {list | run -exp <id>|all [-quick] | serve [flags] | build [flags]}")
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	exp := fs.String("exp", "", "experiment id (see `vliterag list`) or 'all'")
	quick := fs.Bool("quick", false, "shrink sweeps for a fast run")
	asCSV := fs.Bool("csv", false, "emit the data rows of every table as CSV instead of text")
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exp == "" {
		return fmt.Errorf("missing -exp")
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = vlr.Experiments()
	}
	if err := prof.start(); err != nil {
		return err
	}
	err := func() error {
		for _, id := range ids {
			start := time.Now()
			var out string
			var err error
			if *asCSV {
				out, err = vlr.RunExperimentCSV(id, *quick)
			} else {
				out, err = vlr.RunExperiment(id, *quick)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			fmt.Printf("=== %s (%.1fs) ===\n%s\n", id, time.Since(start).Seconds(), out)
		}
		return nil
	}()
	if stopErr := prof.stop(); err == nil {
		err = stopErr
	}
	return err
}

func datasetByName(name string) (vlr.Spec, error) {
	switch strings.ToLower(name) {
	case "wikiall", "wiki-all":
		return vlr.WikiAll, nil
	case "orcas1k", "orcas-1k":
		return vlr.Orcas1K, nil
	case "orcas2k", "orcas-2k":
		return vlr.Orcas2K, nil
	}
	return vlr.Spec{}, fmt.Errorf("unknown dataset %q (wikiall|orcas1k|orcas2k)", name)
}

func modelByName(name string) (vlr.ModelSpec, vlr.Node, error) {
	switch strings.ToLower(name) {
	case "llama3-8b", "8b":
		return vlr.Llama3_8B, vlr.L40SNode(), nil
	case "qwen3-32b", "32b":
		return vlr.Qwen3_32B, vlr.H100Node(), nil
	case "llama3-70b", "70b":
		return vlr.Llama3_70B, vlr.H100Node(), nil
	}
	return vlr.ModelSpec{}, vlr.Node{}, fmt.Errorf("unknown model %q (llama3-8b|qwen3-32b|llama3-70b)", name)
}

// ratePattern builds the non-stationary arrival schedule a -rate-pattern
// flag selects, anchored at the nominal -rate.
func ratePattern(pattern string, rate float64, dur time.Duration) (vlr.RateSchedule, error) {
	switch strings.ToLower(pattern) {
	case "", "constant":
		return nil, nil // plain constant-rate Poisson
	case "ramp":
		return vlr.RampRate(rate/2, rate*1.2, dur), nil
	case "burst":
		return vlr.BurstRate(rate, rate*1.5, 60*time.Second, 15*time.Second), nil
	case "diurnal":
		return vlr.DiurnalRate(rate, rate*0.4, dur), nil
	}
	return nil, fmt.Errorf("unknown rate pattern %q (constant|ramp|burst|diurnal)", pattern)
}

func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var f serveFlags
	fs.StringVar(&f.system, "system", "vLiteRAG", "CPU-Only|DED-GPU|ALL-GPU|vLiteRAG|HedraRAG")
	fs.StringVar(&f.dataset, "dataset", "orcas1k", "wikiall|orcas1k|orcas2k")
	fs.StringVar(&f.model, "model", "qwen3-32b", "llama3-8b|qwen3-32b|llama3-70b")
	fs.Float64Var(&f.rate, "rate", 30, "arrival rate (req/s; cluster-wide when -replicas > 1)")
	fs.DurationVar(&f.dur, "duration", 120*time.Second, "virtual arrival window")
	fs.Uint64Var(&f.seed, "seed", 1, "random seed")
	fs.IntVar(&f.replicas, "replicas", 1, "independent node pipelines behind the front-end router")
	fs.StringVar(&f.policy, "policy", "least-loaded", "cluster routing policy (round-robin|least-loaded)")
	fs.IntVar(&f.workers, "workers", 0, "worker goroutines for sharded cluster/tenant runs (wall-clock only; 0 = one per GOMAXPROCS, 1 = sequential)")
	fs.DurationVar(&f.netDelay, "netdelay", 0, "modeled front<->replica network transit (needs -replicas > 1); >0 selects the parallel sharded engine (a replicated tenant run defaults to 1ms)")
	fs.BoolVar(&f.adaptive, "adapt", false, "vLiteRAG with in-loop drift detection and background index rebuilds")
	fs.IntVar(&f.tenants, "tenants", 0, "serve N SLO-tiered tenants sharing the node (joint HBM allocation + fair scheduling)")
	fs.StringVar(&f.tiers, "tiers", "gold,silver,bronze", "comma-separated tier per tenant, cycled to -tenants (gold|silver|bronze)")
	fs.BoolVar(&f.sharedQueue, "shared-queue", false, "multi-tenant baseline: one unmetered queue instead of the FairScheduler (with -tenants)")
	fs.DurationVar(&f.driftAt, "drift-at", 0, "inject a popularity rotation at this virtual time (0 = no drift)")
	fs.IntVar(&f.driftRotate, "drift-rotate", 0, "rotation size in templates (0 = a third of the template pool)")
	fs.StringVar(&f.pattern, "rate-pattern", "constant", "arrival process: constant|ramp|burst|diurnal")
	fs.DurationVar(&f.slo, "slo", 0, "search SLO override (default: dataset's Table-I value)")
	fs.StringVar(&f.faults, "faults", "", "scripted failure storm, e.g. crash@20s:r0:10s,straggler@35s:r1:8s:x3 (needs -replicas > 1)")
	fs.IntVar(&f.retry, "retry", 0, "max re-dispatches per request after a timeout or crash (resilient cluster runs)")
	fs.IntVar(&f.hedgeMS, "hedge-ms", 0, "fire a backup copy this many ms after dispatch; -1 derives the delay from the running p95")
	fs.IntVar(&f.timeoutMS, "timeout-ms", 0, "per-attempt deadline in ms; expired attempts retry until -retry is exhausted")
	fs.BoolVar(&f.degrade, "degrade", false, "shed retrieval depth proportionally to lost capacity while replicas are down")
	fs.BoolVar(&f.ingest, "ingest", false, "stream live corpus mutations (inserts + deletes) onto the serving timeline")
	fs.Float64Var(&f.ingestRate, "ingest-rate", 4, "insert rate in vectors/s (with -ingest)")
	fs.Float64Var(&f.deleteRate, "delete-rate", 1, "delete rate in vectors/s (with -ingest)")
	fs.DurationVar(&f.reencodeEvery, "reencode-every", 25*time.Second, "background PQ re-encode cadence (with -ingest)")
	fs.IntVar(&f.queueCap, "queue-cap", 0, "bound each admission queue (one per tenant with -tenants), rejecting arrivals past it (0 = default 64 when -brownout is on)")
	fs.BoolVar(&f.brownout, "brownout", false, "closed-loop overload control: shed retrieval quality (nprobe, rerank depth, SQ8 precision) when a stage overruns its latency budget")
	fs.StringVar(&f.stageBudgets, "stage-budgets", "", "per-stage latency budgets as <retrieval>:<generation>, e.g. 350ms:600ms (with -brownout; default: the run's, or each tenant's, own SLOs)")
	fs.BoolVar(&f.precision, "precision", false, "vLiteRAG joint placement x precision: SQ8-upgrade hot clusters within leftover HBM, demote coldest clusters to the modeled NVMe tier")
	fs.Float64Var(&f.sqBudget, "sq-budget", 0, "SQ8 upgrade budget as a fraction of leftover HBM (with -precision; 0 = default 0.10)")
	fs.Float64Var(&f.nvmeShare, "nvme-share", 0, "coldest access share demoted to NVMe (with -precision; 0 = default 0.02)")
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fs.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "timeout-ms":
			f.timeoutSet = true
		case "ingest-rate", "delete-rate", "reencode-every":
			f.ingestTuned = true
		case "queue-cap":
			f.capSet = true
		}
	})
	if err := validateServeFlags(f); err != nil {
		return err
	}
	resilience, err := resilienceFromFlags(f)
	if err != nil {
		return err
	}
	spec, err := datasetByName(f.dataset)
	if err != nil {
		return err
	}
	m, node, err := modelByName(f.model)
	if err != nil {
		return err
	}
	sched, err := ratePattern(f.pattern, f.rate, f.dur)
	if err != nil {
		return err
	}
	if f.tenants > 0 {
		return serveTenants(f, spec, m, node, prof)
	}
	if err := prof.start(); err != nil {
		return err
	}
	defer func() {
		if err := prof.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "vliterag:", err)
		}
	}()
	fmt.Printf("building %s workload (trains a real IVF-PQ index)...\n", spec.Name)
	w, err := vlr.NewWorkload(spec)
	if err != nil {
		return err
	}
	var drift []vlr.DriftEvent
	if f.driftAt > 0 {
		rot := f.driftRotate
		if rot == 0 {
			rot = w.DefaultDriftRotation()
		}
		drift = []vlr.DriftEvent{{At: f.driftAt, Rotate: rot}}
		fmt.Printf("drift: popularity rotates by %d templates at t=%v\n", rot, f.driftAt)
	}
	so := vlr.ServeOptions{
		Workload: w, System: vlr.System(f.system), Rate: f.rate,
		Node: node, Model: m, Duration: f.dur, Seed: f.seed,
		SLOSearch: f.slo, Drift: drift, RateSchedule: sched,
		Workers: f.workers, NetDelay: f.netDelay,
		Precision: f.precisionOptions(), Overload: f.overloadOptions(),
	}
	var rep *vlr.Report
	var perReplica []vlr.ReplicaReport
	var adaptRep *vlr.AdaptiveReport
	var resRep *vlr.ResilienceReport
	var liveRep *vlr.LiveReport
	label := f.system
	switch {
	case f.ingest:
		// -adapt alongside -ingest selects the drift-compaction arm: the
		// adaptive controller answers drift with a cheap re-encode +
		// tombstone purge, escalating to the full re-partition only past
		// the skew thresholds.
		liveRep, err = vlr.ServeLive(vlr.LiveServeOptions{
			ServeOptions: so,
			Ingest: vlr.LiveIngestOptions{
				InsertRate:    f.ingestRate,
				DeleteRate:    f.deleteRate,
				ReencodeEvery: f.reencodeEvery,
				Compaction:    f.adaptive,
			},
		})
		if err != nil {
			return err
		}
		rep = &liveRep.Report
		label = fmt.Sprintf("%s (live ingest)", f.system)
		if f.adaptive {
			label = fmt.Sprintf("%s (live ingest + compaction)", f.system)
		}
	case f.adaptive:
		adaptRep, err = vlr.ServeAdaptive(vlr.AdaptiveServeOptions{ServeOptions: so})
		if err != nil {
			return err
		}
		rep = &adaptRep.Report
		label = "vLiteRAG (adaptive)"
	case f.replicas > 1:
		cr, err := vlr.ServeCluster(vlr.ClusterOptions{
			ServeOptions: so, Replicas: f.replicas, Policy: vlr.RoutePolicy(f.policy),
			Faults: f.faults, Resilience: resilience,
		})
		if err != nil {
			return err
		}
		rep, perReplica, resRep = &cr.Report, cr.PerReplica, cr.Resilience
		label = fmt.Sprintf("%s x%d (%s)", f.system, f.replicas, cr.Policy)
	default:
		rep, err = vlr.Serve(so)
		if err != nil {
			return err
		}
	}
	s := rep.Summary
	fmt.Printf("%s | %s | %s @ %.1f req/s (SLO %v)\n", label, spec.Name, m.Name, f.rate, rep.SLOTotal)
	fmt.Printf("  SLO attainment  %.3f  (%d requests, %d unserved)\n", s.Attainment, s.N, s.Unserved)
	fmt.Printf("  TTFT            p50 %v  p90 %v  p95 %v\n", s.TTFT.P50, s.TTFT.P90, s.TTFT.P95)
	fmt.Printf("  E2E             mean %v  p90 %v\n", s.E2E.Mean, s.E2E.P90)
	fmt.Printf("  breakdown       queue %v  search %v  llm-wait %v  prefill %v\n",
		s.Breakdown.Queueing, s.Breakdown.Search, s.Breakdown.LLMWait, s.Breakdown.Prefill)
	fmt.Printf("  retrieval       rho %.3f  avg batch %.1f\n", rep.Rho, rep.AvgBatch)
	if f.precision {
		fmt.Printf("  precision       %d SQ8 clusters  %d NVMe clusters  recall gain +%.3f pts\n",
			rep.SQClusters, rep.NVMeClusters, 100*rep.RecallGain)
	}
	printOverload(rep.Overload)
	for i, r := range perReplica {
		if resRep != nil {
			// Resilient runs report per-replica routing only: retries and
			// hedges make per-replica summaries ill-defined.
			fmt.Printf("  replica %d       %d copies routed  avg batch %.1f\n", i, r.Submitted, r.AvgBatch)
			continue
		}
		fmt.Printf("  replica %d       %d requests  attainment %.3f  avg batch %.1f\n",
			i, r.Submitted, r.Summary.Attainment, r.AvgBatch)
	}
	if resRep != nil {
		st := resRep.Stats
		fmt.Printf("  resilience      goodput %.2f req/s  retried %d (failover %d)  hedged %d (wins %d)  timed out %d  failed %d\n",
			resRep.Goodput, st.Retried, st.FailedOver, st.Hedged, st.HedgeWins, st.TimedOut, st.Failed)
		for i, d := range resRep.Recoveries {
			fmt.Printf("  crash %d         time to recover %v\n", i+1, d.Round(time.Millisecond))
		}
	}
	if adaptRep != nil {
		printAdaptive(adaptRep)
	}
	if liveRep != nil {
		printLive(liveRep)
	}
	return nil
}

// printOverload renders an overload report; nil prints nothing.
func printOverload(ov *vlr.OverloadReport) {
	if ov == nil {
		return
	}
	fmt.Printf("  overload: queue cap %d  rejected %d total", ov.QueueCap, ov.RejectedTotal)
	if ov.Brownout {
		fmt.Printf("  brownout max level %d  %.0f%% of run browned out  mean shed %.2f",
			ov.MaxLevel, 100*ov.BrownoutShare, ov.MeanShed)
	}
	fmt.Println()
}

// printLive renders the ingest-side record of a live-corpus run:
// mutation counts, time-to-searchable, and the freshness timeline.
func printLive(rep *vlr.LiveReport) {
	f := rep.Freshness
	fmt.Printf("  ingest          %d inserts  %d deletes  %d pending raw  %d re-encodes  %d compactions\n",
		f.Inserts, f.Deletes, f.Pending, rep.Reencodes, rep.Compactions)
	fmt.Printf("  freshness       TTS p50 %v  p99 %v  attainment %.3f (SLO %v)\n",
		f.TTS.P50.Round(time.Millisecond), f.TTS.P99.Round(time.Millisecond), f.Attainment, rep.FreshnessSLO)
	fmt.Printf("  drift           size skew %.2f  residual ratio %.2f\n", rep.SizeSkew, rep.ResidualRatio)
	for i, rb := range rep.Rebuilds {
		kind := "rebuild"
		if rb.Compaction {
			kind = "compaction"
		}
		fmt.Printf("  %s %d    triggered %v, done %v\n", kind, i+1,
			time.Duration(rb.TriggeredAt).Round(time.Millisecond),
			time.Duration(rb.SwappedAt).Round(time.Millisecond))
	}
	fmt.Println("  attainment over time (window: requests / freshness):")
	for _, w := range rep.Timeline {
		fmt.Printf("    %-8v att %.3f  fresh %.3f  (%d reqs, %d inserts)\n",
			w.Start, w.Attainment, w.FreshAttainment, w.N, w.Inserts)
	}
}

// serveTenants runs the multi-tenant serving mode: n tenants on one
// shared corpus, tiers cycled from the -tiers list, the total -rate
// split across tenants in proportion to tier weight. A non-constant
// -rate-pattern drives the last (lowest-listed) tenant's arrivals —
// the "bursty bronze neighbor" demo — while the others stay steady.
func serveTenants(f serveFlags, spec vlr.Spec, m vlr.ModelSpec, node vlr.Node, prof *profiler) error {
	if strings.TrimSpace(f.tiers) == "" {
		return fmt.Errorf("-tiers is empty")
	}
	n, rate := f.tenants, f.rate
	names := strings.Split(f.tiers, ",")
	if err := prof.start(); err != nil {
		return err
	}
	defer func() {
		if err := prof.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "vliterag:", err)
		}
	}()
	fmt.Printf("building %s workload (trains a real IVF-PQ index)...\n", spec.Name)
	w, err := vlr.NewWorkload(spec)
	if err != nil {
		return err
	}
	specs := make([]vlr.TenantSpec, n)
	totalWeight := 0
	parsed := make([]vlr.Tier, n)
	for i := 0; i < n; i++ {
		tier, err := vlr.ParseTier(strings.TrimSpace(names[i%len(names)]))
		if err != nil {
			return err
		}
		parsed[i] = tier
		totalWeight += tier.Weight()
	}
	for i := 0; i < n; i++ {
		share := rate * float64(parsed[i].Weight()) / float64(totalWeight)
		specs[i] = vlr.TenantSpec{
			Name:      fmt.Sprintf("%s-%d", parsed[i], i),
			Tier:      parsed[i],
			Workload:  w,
			Rate:      share,
			SLOSearch: f.slo,
		}
	}
	// The rate pattern drives only the last tenant, re-anchored at that
	// tenant's own share so its baseline matches what the joint
	// allocator provisioned it for. The burst shape is the exception:
	// its peak stays relative to the *total* rate, because the scenario
	// it exists for is a noisy neighbor bursting past the node's
	// provisioning, not a tenant fluctuating within its own share.
	share := specs[n-1].Rate
	var sched vlr.RateSchedule
	if strings.EqualFold(f.pattern, "burst") {
		sched = vlr.BurstRate(share, rate*1.5, 60*time.Second, 15*time.Second)
	} else {
		var err error
		sched, err = ratePattern(f.pattern, share, f.dur)
		if err != nil {
			return err
		}
	}
	if sched != nil {
		specs[n-1].RateSchedule = sched
	}
	mto := vlr.MultiTenantServeOptions{
		Tenants: specs, Node: node, Model: m,
		Duration: f.dur, Seed: f.seed, SharedQueue: f.sharedQueue,
		Precision: f.precisionOptions(), Overload: f.overloadOptions(),
	}
	if f.replicas > 1 {
		mto.Replicas, mto.Policy = f.replicas, vlr.RoutePolicy(f.policy)
		mto.Workers, mto.NetDelay = f.workers, f.netDelay
	}
	rep, err := vlr.ServeTenants(mto)
	if err != nil {
		return err
	}
	mode := "fair-scheduled"
	if rep.SharedQueue {
		mode = "shared-queue baseline"
	}
	if rep.Replicas > 1 {
		mode = fmt.Sprintf("%s, x%d replicas, %d workers", mode, rep.Replicas, rep.Workers)
	}
	fmt.Printf("%d tenants (%s) | %s | %s @ %.1f req/s total\n", n, mode, spec.Name, m.Name, rate)
	for _, tr := range rep.Tenants {
		met := "MISS"
		if tr.Met {
			met = "met "
		}
		fmt.Printf("  %-10s %-6s rate %5.1f  rho %.3f  attainment %.3f (target %.2f %s)  TTFT p90 %v  peak queue %d",
			tr.Name, tr.Tier, tr.Rate, tr.Alloc.Rho, tr.Summary.Attainment, tr.Target, met,
			tr.Summary.TTFT.P90, tr.PeakQueue)
		if rep.Overload != nil {
			fmt.Printf("  rejected %d", tr.Rejected)
		}
		fmt.Println()
	}
	printOverload(rep.Overload)
	fmt.Printf("  aggregate attainment %.3f  Jain fairness %.3f\n", rep.Attainment, rep.Fairness)
	if f.precision {
		fmt.Printf("  precision: recall gain +%.3f pts\n", 100*rep.RecallGain)
	}
	fmt.Printf("  HBM: index budget %.1f GB, used %.1f GB; LLM throughput %.1f -> %.1f req/s\n",
		float64(rep.BudgetBytes)/1e9, float64(rep.UsedBytes)/1e9, rep.Mu0, rep.MuLLM)
	return nil
}

// printAdaptive renders the control-plane record of an adaptive run.
func printAdaptive(rep *vlr.AdaptiveReport) {
	fmt.Printf("  expected hit    %.3f\n", rep.ExpectedHitRate)
	if len(rep.Rebuilds) == 0 && rep.Pending == nil {
		fmt.Println("  rebuilds        none triggered")
	}
	if p := rep.Pending; p != nil {
		// Timing prices stages as they are reached, so Total() here is
		// only the elapsed stages — report it as a lower bound.
		fmt.Printf("  rebuild         triggered %v, still in flight at run end (>= %v of stages priced); lengthen -duration\n",
			time.Duration(p.TriggeredAt).Round(time.Millisecond), p.Timing.Total().Round(time.Millisecond))
	}
	for i, rb := range rep.Rebuilds {
		if rb.Aborted != "" {
			fmt.Printf("  rebuild %d       triggered %v, ABORTED (%s)\n",
				i+1, time.Duration(rb.TriggeredAt).Round(time.Millisecond), rb.Aborted)
			continue
		}
		fmt.Printf("  rebuild %d       triggered %v, swapped %v (profile %v + algo %v + split %v + load %v); rho %.3f -> %.3f\n",
			i+1, time.Duration(rb.TriggeredAt).Round(time.Millisecond),
			time.Duration(rb.SwappedAt).Round(time.Millisecond),
			rb.Timing.Profiling.Round(time.Millisecond), rb.Timing.Algorithm.Round(time.Millisecond),
			rb.Timing.Splitting.Round(time.Millisecond), rb.Timing.Loading.Round(time.Millisecond),
			rb.OldRho, rb.NewRho)
	}
	fmt.Println("  attainment over time (window: attainment / mean hit rate):")
	for _, w := range rep.Timeline {
		fmt.Printf("    %-8v att %.3f  hit %.3f  (%d reqs)\n", w.Start, w.Attainment, w.MeanHitRate, w.N)
	}
}

func buildCmd(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	ds := fs.String("dataset", "orcas1k", "wikiall|orcas1k|orcas2k")
	model := fs.String("model", "qwen3-32b", "llama3-8b|qwen3-32b|llama3-70b")
	slo := fs.Duration("slo", 0, "search SLO (default: dataset's Table-I value)")
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := datasetByName(*ds)
	if err != nil {
		return err
	}
	m, node, err := modelByName(*model)
	if err != nil {
		return err
	}
	if err := prof.start(); err != nil {
		return err
	}
	defer func() {
		if err := prof.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "vliterag:", err)
		}
	}()
	w, err := vlr.NewWorkload(spec)
	if err != nil {
		return err
	}
	sys, err := vlr.BuildSystem(vlr.SystemOptions{
		Workload: w, Node: node, Model: m, SLOSearch: *slo, Seed: 1,
	})
	if err != nil {
		return err
	}
	fmt.Printf("latency-bounded partitioning for %s + %s:\n", spec.Name, m.Name)
	fmt.Printf("  rho            %.3f of clusters (%.2f GB on GPUs)\n", sys.Rho, float64(sys.PlanBytes)/1e9)
	fmt.Printf("  planned batch  %d (mu0 %.1f req/s, tau_s %v)\n",
		sys.Partition.ExpectedBatch, sys.Mu0, sys.Partition.TauS)
	fmt.Printf("  hit rates      mean %.3f, batch-min %.3f\n", sys.MeanHitRate, sys.TailHitRate)
	fmt.Printf("  feasible       %v (converged in %d iterations)\n", sys.Partition.Feasible, sys.Partition.Iterations)
	fmt.Printf("  rebuild cycle  profiling %v + algorithm %v + splitting %v + loading %v = %v\n",
		sys.Rebuild.Profiling.Round(time.Millisecond), sys.Rebuild.Algorithm.Round(time.Millisecond),
		sys.Rebuild.Splitting.Round(time.Millisecond), sys.Rebuild.Loading.Round(time.Millisecond),
		sys.Rebuild.Total().Round(time.Millisecond))
	for g, bytes := range sys.Plan.ShardBytes {
		fmt.Printf("  shard %d        %d clusters, %.2f GB\n", g, len(sys.Plan.Shards[g]), float64(bytes)/1e9)
	}
	return nil
}
