package main

import (
	"cmp"
	"flag"
	"fmt"
	"slices"
	"strings"
	"time"

	vlr "vectorliterag"
	"vectorliterag/internal/adapt"
	"vectorliterag/internal/fault"
	"vectorliterag/internal/rag"
)

// serveFlags is the serve subcommand's parsed flag set. set names the
// flags given explicitly: an explicit zero deadline or cap, or a tuning
// flag without the mode it tunes, is refused, while a flag never given
// keeps its default.
type serveFlags struct {
	system, dataset, model, policy, tiers, pattern, faults, stageBudgets string

	rate, ingestRate, deleteRate, sqBudget, nvmeShare float64
	dur, netDelay, driftAt, slo, reencodeEvery        time.Duration
	seed                                              uint64

	replicas, workers, tenants, driftRotate, retry, hedgeMS, timeoutMS, queueCap int

	adaptive, sharedQueue, degrade, ingest, brownout, precision bool

	set  map[string]bool
	prof *profiler
}

// serveFlagSet defines the serve subcommand's flags, bound to the
// returned serveFlags. serveCmd and the tests build the set here alone.
func serveFlagSet(errs flag.ErrorHandling) (*flag.FlagSet, *serveFlags) {
	fs := flag.NewFlagSet("serve", errs)
	f := &serveFlags{prof: profileFlags(fs)}
	fs.StringVar(&f.system, "system", "vLiteRAG", "CPU-Only|DED-GPU|ALL-GPU|vLiteRAG|HedraRAG")
	fs.StringVar(&f.dataset, "dataset", "orcas1k", "wikiall|orcas1k|orcas2k")
	fs.StringVar(&f.model, "model", "qwen3-32b", "llama3-8b|qwen3-32b|llama3-70b")
	fs.Float64Var(&f.rate, "rate", 30, "arrival rate (req/s; cluster-wide when -replicas > 1)")
	fs.DurationVar(&f.dur, "duration", 120*time.Second, "virtual arrival window")
	fs.Uint64Var(&f.seed, "seed", 1, "random seed")
	fs.IntVar(&f.replicas, "replicas", 1, "independent node pipelines behind the front-end router")
	fs.StringVar(&f.policy, "policy", "", "cluster routing policy (round-robin|least-loaded; default least-loaded)")
	fs.IntVar(&f.workers, "workers", 0, "worker goroutines for sharded cluster/tenant runs (wall-clock only; 0 = one per GOMAXPROCS, 1 = sequential)")
	fs.DurationVar(&f.netDelay, "netdelay", 0, "modeled front<->replica network transit (needs -replicas > 1); >0 selects the parallel sharded engine (a replicated tenant run defaults to 1ms)")
	fs.BoolVar(&f.adaptive, "adapt", false, "vLiteRAG with in-loop drift detection and background index rebuilds")
	fs.IntVar(&f.tenants, "tenants", 0, "serve N SLO-tiered tenants sharing the node (joint HBM allocation + fair scheduling)")
	fs.StringVar(&f.tiers, "tiers", "gold,silver,bronze", "comma-separated tier per tenant, cycled to -tenants (gold|silver|bronze)")
	fs.BoolVar(&f.sharedQueue, "shared-queue", false, "multi-tenant baseline: one unmetered queue instead of the FairScheduler (with -tenants)")
	fs.DurationVar(&f.driftAt, "drift-at", 0, "inject a popularity rotation at this virtual time (0 = no drift)")
	fs.IntVar(&f.driftRotate, "drift-rotate", 0, "rotation size in templates (with -drift-at; 0 = a third of the template pool)")
	fs.StringVar(&f.pattern, "rate-pattern", "constant", "arrival process: constant|ramp|burst|diurnal")
	fs.DurationVar(&f.slo, "slo", 0, "search SLO override (default: dataset's Table-I value)")
	fs.StringVar(&f.faults, "faults", "", "scripted failure storm, e.g. crash@20s:r0:10s,straggler@35s:r1:8s:x3 (needs -replicas > 1)")
	fs.IntVar(&f.retry, "retry", 0, "max re-dispatches per request after a timeout or crash (resilient cluster runs)")
	fs.IntVar(&f.hedgeMS, "hedge-ms", 0, "fire a backup copy this many ms after dispatch; -1 derives the delay from the running p95")
	fs.IntVar(&f.timeoutMS, "timeout-ms", 0, "per-attempt deadline in ms, from dispatch to the attempt's last token; expired attempts retry until -retry is exhausted")
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
	return fs, f
}

// parse parses args into f and records which flags were given.
func (f *serveFlags) parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	f.set = map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { f.set[fl.Name] = true })
	return nil
}

// parseStageBudgets splits a -stage-budgets value of the form
// "<retrieval>:<generation>" (e.g. "350ms:600ms") into the two
// per-stage latency budgets. Both must parse and be positive.
func parseStageBudgets(s string) (retr, gen time.Duration, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("serve: -stage-budgets wants <retrieval>:<generation> (e.g. 350ms:600ms), have %q", s)
	}
	if retr, err = time.ParseDuration(strings.TrimSpace(parts[0])); err != nil {
		return 0, 0, fmt.Errorf("serve: -stage-budgets retrieval budget %q: %v", parts[0], err)
	}
	if gen, err = time.ParseDuration(strings.TrimSpace(parts[1])); err != nil {
		return 0, 0, fmt.Errorf("serve: -stage-budgets generation budget %q: %v", parts[1], err)
	}
	if retr <= 0 || gen <= 0 {
		return 0, 0, fmt.Errorf("serve: -stage-budgets must both be positive (have %v:%v)", retr, gen)
	}
	return retr, gen, nil
}

// validateServeFlags refuses what the flags alone say is wrong: a flag
// whose own value no run accepts, or a tuning flag given without the
// mode it tunes, so no flag is parsed and then silently ignored. Which
// modes combine is rag's rules table's to say: rag.Run refuses the
// options before any work.
func validateServeFlags(f *serveFlags) error {
	switch {
	case f.rate <= 0:
		return fmt.Errorf("serve: -rate must be positive (have %g)", f.rate)
	case f.replicas <= 0:
		return fmt.Errorf("serve: -replicas must be positive (have %d)", f.replicas)
	case f.tenants < 0:
		return fmt.Errorf("serve: -tenants must not be negative (have %d)", f.tenants)
	case f.set["timeout-ms"] && f.timeoutMS <= 0:
		return fmt.Errorf("serve: -timeout-ms must be positive (have %d)", f.timeoutMS)
	case f.reencodeEvery <= 0:
		return fmt.Errorf("serve: -reencode-every must be positive (have %v)", f.reencodeEvery)
	case f.set["queue-cap"] && f.queueCap <= 0:
		return fmt.Errorf("serve: -queue-cap must be positive (have %d); omit the flag for the default bound", f.queueCap)
	case (f.sqBudget != 0 || f.nvmeShare != 0) && !f.precision:
		return fmt.Errorf("serve: -sq-budget/-nvme-share tune the -precision refinement; add -precision")
	case (f.set["ingest-rate"] || f.set["delete-rate"] || f.set["reencode-every"]) && !f.ingest:
		return fmt.Errorf("serve: -ingest-rate/-delete-rate/-reencode-every tune the mutation stream and need -ingest")
	case f.stageBudgets != "" && !f.brownout:
		return fmt.Errorf("serve: -stage-budgets tunes the brownout controller's per-stage latency budgets; add -brownout")
	case f.set["drift-rotate"] && f.driftAt == 0:
		return fmt.Errorf("serve: -drift-rotate sizes the rotation -drift-at injects; add -drift-at")
	case f.set["tiers"] && f.tenants == 0:
		return fmt.Errorf("serve: -tiers names the tiers of a -tenants lineup; add -tenants")
	}
	if f.stageBudgets != "" {
		_, _, err := parseStageBudgets(f.stageBudgets)
		return err
	}
	return nil
}

// resilienceFromFlags translates the failure-handling flag group into a
// ResilienceConfig, or nil when none of its flags is set.
func resilienceFromFlags(f *serveFlags) (*vlr.ResilienceConfig, error) {
	if f.faults == "" && f.retry == 0 && f.hedgeMS == 0 && f.timeoutMS == 0 && !f.degrade {
		return nil, nil
	}
	if f.retry < 0 {
		return nil, fmt.Errorf("serve: -retry must be non-negative (have %d)", f.retry)
	}
	rc := &vlr.ResilienceConfig{
		MaxRetries: f.retry,
		Timeout:    time.Duration(f.timeoutMS) * time.Millisecond,
		Degrade:    f.degrade,
	}
	switch {
	case f.hedgeMS > 0:
		rc.HedgeDelay = time.Duration(f.hedgeMS) * time.Millisecond
	case f.hedgeMS < 0:
		rc.HedgeAuto = true
	}
	return rc, nil
}

// options is the one run the validated flags describe, on the corpus w:
// served alone or, with -tenants, by every tenant of a tier-weighted
// lineup. What the flags leave unset rag defaults.
func (f *serveFlags) options(w *vlr.Workload) (rag.Options, error) {
	m, node, err := modelByName(f.model)
	if err != nil {
		return rag.Options{}, err
	}
	kinds := rag.AllKinds()
	k := slices.IndexFunc(kinds, func(k rag.Kind) bool { return strings.EqualFold(string(k), f.system) })
	if k < 0 {
		return rag.Options{}, fmt.Errorf("serve: unknown -system %q (have %v)", f.system, kinds)
	}
	o := rag.Options{
		Node: node, Model: m, Kind: kinds[k],
		Duration: f.dur, Seed: f.seed, SharedQueue: f.sharedQueue,
		Policy: vlr.RoutePolicy(f.policy), Workers: f.workers, NetDelay: f.netDelay,
	}
	if o.Faults, err = fault.Parse(f.faults); err != nil {
		return rag.Options{}, fmt.Errorf("serve: -faults: %w", err)
	}
	if o.Resilience, err = resilienceFromFlags(f); err != nil {
		return rag.Options{}, err
	}
	if f.replicas > 1 {
		o.Replicas = f.replicas
	}
	if f.driftAt != 0 {
		o.Drift = []vlr.DriftEvent{{At: f.driftAt, Rotate: cmp.Or(f.driftRotate, w.DefaultDriftRotation())}}
	}
	if f.precision {
		o.Precision = &vlr.PrecisionOptions{SQBudgetFrac: f.sqBudget, NVMeColdShare: f.nvmeShare}
	}
	if f.brownout || f.set["queue-cap"] {
		o.Overload = &vlr.OverloadOptions{QueueCap: f.queueCap, Brownout: f.brownout}
		if f.stageBudgets != "" {
			// Validated in validateServeFlags; parse errors cannot reach here.
			o.Overload.RetrievalBudget, o.Overload.GenerationBudget, _ = parseStageBudgets(f.stageBudgets)
		}
	}
	if f.ingest {
		o.Ingest = &rag.IngestOptions{InsertRate: f.ingestRate, DeleteRate: f.deleteRate, ReencodeEvery: f.reencodeEvery}
	}
	// -adapt beside -ingest is the compaction controller, which needs a
	// stream to compact: without one the run is the frozen corpus.
	if f.adaptive && (!f.ingest || f.ingestRate > 0 || f.deleteRate > 0) {
		o.Monitor = &adapt.MonitorConfig{}
	}
	if f.tenants == 0 {
		o.W, o.Rate, o.SLOSearch = w, f.rate, f.slo
		o.RateSchedule, err = ratePattern(f.pattern, f.rate, f.rate, f.dur)
		return o, err
	}
	o.Tenants, err = f.lineup(w)
	return o, err
}

// lineup is the -tenants lineup on the corpus w: tiers cycled from the
// -tiers list, the total -rate split across tenants in proportion to
// tier weight. A non-constant -rate-pattern drives the last
// (lowest-listed) tenant's arrivals, anchored at that tenant's own
// share so its baseline matches what the joint allocator provisioned it
// for, while the others stay steady: the "bursty bronze neighbor" demo.
func (f *serveFlags) lineup(w *vlr.Workload) ([]rag.TenantConfig, error) {
	names := strings.Split(f.tiers, ",")
	tenants := make([]rag.TenantConfig, f.tenants)
	total := 0
	for i := range tenants {
		tier, err := vlr.ParseTier(strings.TrimSpace(names[i%len(names)]))
		if err != nil {
			return nil, err
		}
		tenants[i] = rag.TenantConfig{Name: fmt.Sprintf("%s-%d", tier, i), Tier: tier, W: w, SLOSearch: f.slo}
		total += tier.Weight()
	}
	for i := range tenants {
		tenants[i].Rate = f.rate * float64(tenants[i].Tier.Weight()) / float64(total)
	}
	last := &tenants[len(tenants)-1]
	var err error
	last.RateSchedule, err = ratePattern(f.pattern, last.Rate, f.rate, f.dur)
	return tenants, err
}
