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
//	vliterag serve -replicas 3 -rate 45 -faults crash@20s:r0:10s \
//	    -retry 2 -timeout-ms 20000 -hedge-ms -1 -degrade
//	    # failure storm with retries, auto-hedging, and graceful
//	    # degradation under the capacity loss: nothing fails, and the
//	    # crash's failovers finish within 10 s
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
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/rag"
)

// profiler wires the optional -cpuprofile/-memprofile flag pair into a
// subcommand's flag set, so perf work can attach pprof evidence to any
// run/serve/build invocation.
type profiler struct{ cpu, mem *string }

func profileFlags(fs *flag.FlagSet) *profiler {
	return &profiler{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// around runs fn under the requested profiles: CPU from start to
// finish, then a heap profile. fn's error wins over the profiles'.
func (p *profiler) around(fn func() error) (err error) {
	stop := func() {}
	if *p.cpu != "" {
		f, cerr := os.Create(*p.cpu)
		if cerr != nil {
			return fmt.Errorf("cpuprofile: %w", cerr)
		}
		defer func() {
			if cerr := f.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("cpuprofile: %w", cerr)
			}
		}()
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			return fmt.Errorf("cpuprofile: %w", cerr)
		}
		stop = pprof.StopCPUProfile
	}
	err = fn()
	stop()
	if err != nil || *p.mem == "" {
		return err
	}
	f, err := os.Create(*p.mem)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC() // flush recently freed objects out of the heap profile
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	if err := f.Close(); err != nil {
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
	render := vlr.RunExperiment
	if *asCSV {
		render = vlr.RunExperimentCSV
	}
	return prof.around(func() error {
		for _, id := range ids {
			start := time.Now()
			out, err := render(id, *quick)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			fmt.Printf("=== %s (%.1fs) ===\n%s\n", id, time.Since(start).Seconds(), out)
		}
		return nil
	})
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
// flag selects, anchored at the nominal rate. A burst peaks relative to
// total, the node's whole traffic: the scenario it exists for is a noisy
// neighbor bursting past the node's provisioning, not a tenant
// fluctuating within its own share.
func ratePattern(pattern string, rate, total float64, dur time.Duration) (vlr.RateSchedule, error) {
	switch strings.ToLower(pattern) {
	case "", "constant":
		return nil, nil // plain constant-rate Poisson
	case "ramp":
		return vlr.RampRate(rate/2, rate*1.2, dur), nil
	case "burst":
		return vlr.BurstRate(rate, total*1.5, 60*time.Second, 15*time.Second), nil
	case "diurnal":
		return vlr.DiurnalRate(rate, rate*0.4, dur), nil
	}
	return nil, fmt.Errorf("unknown rate pattern %q (constant|ramp|burst|diurnal)", pattern)
}

// timelineBucket is the width of the attainment-over-time windows.
const timelineBucket = 30 * time.Second

func serveCmd(args []string) error {
	fs, f := serveFlagSet(flag.ExitOnError)
	if err := f.parse(fs, args); err != nil {
		return err
	}
	if err := validateServeFlags(f); err != nil {
		return err
	}
	spec, err := datasetByName(f.dataset)
	if err != nil {
		return err
	}
	return f.prof.around(func() error {
		fmt.Printf("building %s workload (trains a real IVF-PQ index)...\n", spec.Name)
		w, err := vlr.NewWorkload(spec)
		if err != nil {
			return err
		}
		o, err := f.options(w)
		if err != nil {
			return err
		}
		res, err := rag.Run(o)
		if err != nil {
			return err
		}
		if o.Tenants != nil {
			printLineup(f, spec, o.Model, res)
		} else {
			printCorpus(f, spec, &o, res)
		}
		return nil
	})
}

// printCorpus renders a single-corpus run: the summary every run
// reports, then each section the run's topology and planes filled.
func printCorpus(f *serveFlags, spec vlr.Spec, o *rag.Options, res *rag.Result) {
	if len(o.Drift) > 0 {
		fmt.Printf("drift: popularity rotates by %d templates at t=%v\n", o.Drift[0].Rotate, o.Drift[0].At)
	}
	label := f.system
	switch {
	case f.ingest && f.adaptive:
		label += " (live ingest + compaction)"
	case f.ingest:
		label += " (live ingest)"
	case f.adaptive:
		label += " (adaptive)"
	case o.Replicas > 0:
		label = fmt.Sprintf("%s x%d (%s)", f.system, o.Replicas, res.Policy)
	}
	s := res.Summary
	fmt.Printf("%s | %s | %s @ %.1f req/s (SLO %v)\n", label, spec.Name, o.Model.Name, f.rate, res.SLOTotal)
	fmt.Printf("  SLO attainment  %.3f  (%d requests, %d unserved)\n", s.Attainment, s.N, s.Unserved)
	served, b := s.N > s.Unserved, s.Breakdown
	fmt.Printf("  TTFT            p50 %v  p90 %v  p95 %v\n", latencies(served, s.TTFT.P50, s.TTFT.P90, s.TTFT.P95)...)
	fmt.Printf("  E2E             mean %v  p90 %v\n", latencies(s.E2E != (metrics.Quantiles{}), s.E2E.Mean, s.E2E.P90)...)
	fmt.Printf("  breakdown       queue %v  search %v  llm-wait %v  prefill %v\n",
		latencies(served, b.Queueing, b.Search, b.LLMWait, b.Prefill)...)
	fmt.Printf("  retrieval       rho %.3f  avg batch %.1f\n", res.Rho, res.AvgBatch)
	if o.Precision != nil {
		fmt.Printf("  precision       %d SQ8 clusters  %d NVMe clusters  recall gain +%.3f pts\n",
			res.SQClusters, res.NVMeClusters, 100*res.RecallGain)
	}
	printOverload(res.Overload)
	rr := res.Resilience
	for i, r := range res.PerReplica {
		if rr != nil {
			// Resilient runs report per-replica routing only: retries and
			// hedges make per-replica summaries ill-defined.
			fmt.Printf("  replica %d       %d copies routed  avg batch %.1f\n", i, r.Submitted, r.AvgBatch)
			continue
		}
		fmt.Printf("  replica %d       %d requests  attainment %.3f  avg batch %.1f\n",
			i, r.Submitted, r.Summary.Attainment, r.AvgBatch)
	}
	if rr != nil {
		st := rr.Stats
		fmt.Printf("  resilience      goodput %.2f req/s  retried %d (failover %d)  hedged %d (wins %d)  timed out %d  failed %d\n",
			rr.Goodput, st.Retried, st.FailedOver, st.Hedged, st.HedgeWins, st.TimedOut, st.Failed)
		for i, d := range rr.Recoveries {
			fmt.Printf("  crash %d         %s\n", i+1, recoveryText(d))
		}
		if hint := timeoutHint(rr.Goodput, st.TimedOut); hint != "" {
			fmt.Printf("  hint            %s\n", hint)
		}
	}
	switch {
	case res.Live != nil:
		printLive(res)
	case res.Adapt != nil:
		printAdaptive(res)
	}
}

// latencies renders the durations of one summary line, each as "-" when
// the set they summarize has no sample: a summary leaves its fields at
// zero then, which would read as instant service.
func latencies(sampled bool, ds ...time.Duration) []any {
	out := make([]any, len(ds))
	for i, d := range ds {
		out[i] = "-"
		if sampled {
			out[i] = d
		}
	}
	return out
}

// recoveryText renders one crash's time to recover, to the millisecond.
// A negative duration is a crash none of whose failed-over requests
// completed, which a rounded "0s" would read as instant recovery.
func recoveryText(d time.Duration) string {
	if d < 0 {
		return "never recovered"
	}
	return "time to recover " + d.Round(time.Millisecond).String()
}

// timeoutHint explains a resilient run that timed attempts out and
// served nothing within its SLO: the deadline runs to an attempt's last
// token, so at a load where a whole generation outlasts it every attempt
// expires, though the same deadline passes at a lower load. Any other
// run gets no hint.
func timeoutHint(goodput float64, timedOut int) string {
	if goodput > 0 || timedOut == 0 {
		return ""
	}
	return fmt.Sprintf("goodput 0 after %d timeouts: -timeout-ms runs to an attempt's last token, so it must outlast a whole generation at this load", timedOut)
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

// printLive renders the ingest side of a live-corpus run: mutation
// counts, time-to-searchable, and the freshness timeline.
func printLive(res *rag.Result) {
	live := res.Live
	f := live.Freshness
	fmt.Printf("  ingest          %d inserts  %d deletes  %d pending raw  %d re-encodes  %d compactions\n",
		f.Inserts, f.Deletes, f.Pending, live.Reencodes, live.Compactions)
	// With no insert counted there is nothing to be fresh: "-", not 0.
	var tts50, tts99, att any = "-", "-", "-"
	if f.Inserts > 0 {
		tts50, tts99, att = f.TTS.P50.Round(time.Millisecond), f.TTS.P99.Round(time.Millisecond), fmt.Sprintf("%.3f", f.Attainment)
	}
	fmt.Printf("  freshness       TTS p50 %v  p99 %v  attainment %v (SLO %v)\n", tts50, tts99, att, live.FreshnessSLO)
	fmt.Printf("  drift           size skew %.2f  residual ratio %.2f\n", live.SizeSkew, live.ResidualRatio)
	if res.Adapt != nil {
		for i, rb := range res.Adapt.Rebuilds {
			kind := "rebuild"
			if rb.Compaction {
				kind = "compaction"
			}
			fmt.Printf("  %s %d    triggered %v, done %v\n", kind, i+1,
				time.Duration(rb.TriggeredAt).Round(time.Millisecond),
				time.Duration(rb.SwappedAt).Round(time.Millisecond))
		}
	}
	timeline := metrics.Timeline(res.Requests, res.SLOTotal, timelineBucket)
	metrics.AnnotateFreshness(timeline, live.Mutations, live.FreshnessSLO, timelineBucket)
	fmt.Println("  attainment over time (window: requests / freshness):")
	for _, w := range timeline {
		fresh := "-"
		if w.Inserts > 0 {
			fresh = fmt.Sprintf("%.3f", w.FreshAttainment)
		}
		fmt.Printf("    %-8v att %.3f  fresh %-5s  (%d reqs, %d inserts)\n",
			w.Start, w.Attainment, fresh, w.N, w.Inserts)
	}
}

// printAdaptive renders the control-plane record of an adaptive run.
func printAdaptive(res *rag.Result) {
	rep := res.Adapt
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
	for _, w := range metrics.Timeline(res.Requests, res.SLOTotal, timelineBucket) {
		fmt.Printf("    %-8v att %.3f  hit %.3f  (%d reqs)\n", w.Start, w.Attainment, w.MeanHitRate, w.N)
	}
}

// printLineup renders a tenant lineup: one row per tenant against its
// own tier, then the node-wide outcome.
func printLineup(f *serveFlags, spec vlr.Spec, m vlr.ModelSpec, res *rag.Result) {
	mode := "fair-scheduled"
	if f.sharedQueue {
		mode = "shared-queue baseline"
	}
	if len(res.PerReplica) > 1 {
		mode = fmt.Sprintf("%s, x%d replicas, %d workers", mode, len(res.PerReplica), res.Workers)
	}
	fmt.Printf("%d tenants (%s) | %s | %s @ %.1f req/s total\n", len(res.Tenants), mode, spec.Name, m.Name, f.rate)
	for _, tr := range res.Tenants {
		target, met := tr.Tier.Target(), "MISS"
		if tr.Summary.Attainment >= target {
			met = "met "
		}
		fmt.Printf("  %-10s %-6s rate %5.1f  rho %.3f  attainment %.3f (target %.2f %s)  TTFT p90 %v  peak queue %d",
			tr.Name, tr.Tier, tr.Rate, tr.Alloc.Rho, tr.Summary.Attainment, target, met,
			latencies(tr.Summary.N > tr.Summary.Unserved, tr.Summary.TTFT.P90)[0], tr.PeakQueue)
		if res.Overload != nil {
			fmt.Printf("  rejected %d", tr.Rejected)
		}
		fmt.Println()
	}
	printOverload(res.Overload)
	fmt.Printf("  aggregate attainment %.3f  Jain fairness %.3f\n", res.Attainment, res.Fairness)
	if f.precision {
		fmt.Printf("  precision: recall gain +%.3f pts\n", 100*res.RecallGain)
	}
	fmt.Printf("  HBM: index budget %.1f GB, used %.1f GB; LLM throughput %.1f -> %.1f req/s\n",
		float64(res.BudgetBytes)/1e9, float64(res.UsedBytes)/1e9, res.Mu0, res.MuLLM)
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
	return prof.around(func() error { return build(spec, m, node, *slo) })
}

// build runs the offline partitioning alone and prints its decision.
func build(spec vlr.Spec, m vlr.ModelSpec, node vlr.Node, slo time.Duration) error {
	w, err := vlr.NewWorkload(spec)
	if err != nil {
		return err
	}
	sys, err := vlr.BuildSystem(vlr.SystemOptions{
		Workload: w, Node: node, Model: m, SLOSearch: slo, Seed: 1,
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
