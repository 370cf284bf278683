package vectorliterag

import (
	"fmt"
	"time"

	"vectorliterag/internal/adapt"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/experiments"
	"vectorliterag/internal/fault"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/partition"
	"vectorliterag/internal/rag"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/tenant"
	"vectorliterag/internal/workload"
)

// Re-exported core types. Aliases keep a single source of truth in the
// internal packages while giving users one import.
type (
	// Spec is a logical, paper-scale vector-database description.
	Spec = dataset.Spec
	// Workload couples a Spec with its laptop-scale physical index.
	Workload = dataset.Workload
	// GenConfig controls the physical realization of a workload.
	GenConfig = dataset.GenConfig
	// Node is a hardware configuration (GPUs + host CPU).
	Node = hw.Node
	// ModelSpec describes a served LLM.
	ModelSpec = llm.ModelSpec
	// Shape is the token geometry of requests.
	Shape = workload.Shape
	// System selects a serving system (CPU-Only, DED-GPU, ALL-GPU,
	// VLiteRAG, HedraRAG).
	System = rag.Kind
	// RoutePolicy selects how a cluster front end spreads requests
	// across replicas (RoundRobin, LeastLoaded).
	RoutePolicy = serve.Policy
	// Summary aggregates one serving run's metrics.
	Summary = metrics.Summary
	// PartitionResult reports Algorithm 1's decision and diagnostics.
	PartitionResult = partition.Result
	// RebuildTiming is the stage breakdown of an online index update.
	RebuildTiming = adapt.RebuildTiming
	// DriftEvent schedules a mid-run popularity rotation (query drift).
	DriftEvent = dataset.DriftEvent
	// RateSchedule drives arrivals as a time-varying (inhomogeneous
	// Poisson) stream; build one with ConstantRate, RampRate, BurstRate,
	// or DiurnalRate.
	RateSchedule = workload.Schedule
	// RebuildRecord is one background update cycle the adaptive
	// controller ran (trigger, stage timings, swap, coverage change).
	RebuildRecord = adapt.RebuildRecord
	// AttainmentWindow is one bucket of an attainment-over-time series.
	AttainmentWindow = metrics.Window
	// Freshness summarizes a live-ingest run's time-to-searchable — the
	// freshness twin of the TTFT summary.
	Freshness = metrics.Freshness
	// Tier is an SLO service class (GoldTier, SilverTier, BronzeTier)
	// ordering both the joint allocator's weighting and the
	// FairScheduler's dispatch priority.
	Tier = tenant.Tier
	// TenantAllocation is one tenant's slice of the joint HBM decision.
	TenantAllocation = tenant.Allocation
	// FaultEvent is one scripted failure: a replica crash, a straggler
	// episode (LLM slowdown), or a bandwidth episode (retrieval slowdown).
	FaultEvent = fault.Event
	// FaultSchedule is the deterministic failure storm a faulted cluster
	// run injected, as its ResilienceReport echoes it.
	FaultSchedule = fault.Schedule
	// ResilienceConfig tunes the cluster front end's failure handling:
	// per-request timeouts, bounded-backoff retries, hedged requests, and
	// graceful degradation under capacity loss.
	ResilienceConfig = serve.ResilienceConfig
	// ResilienceStats counts the router's failure-handling actions.
	ResilienceStats = serve.ResilienceStats
	// ResilienceReport is the failure-handling addendum of a faulted
	// cluster run.
	ResilienceReport = rag.ResilienceReport
	// PrecisionOptions configures the placement × precision refinement
	// (VLiteRAG only): hot clusters upgraded from PQ to SQ8 within a
	// bounded HBM budget, the coldest CPU-resident clusters demoted to
	// the modeled NVMe tier. Zero fields take the documented defaults.
	PrecisionOptions = rag.PrecisionOptions
	// OverloadOptions configures overload control: bounded per-tenant
	// admission queues with early rejection and, optionally, the
	// closed-loop brownout controller that sheds retrieval quality
	// (nprobe → rerank depth → SQ8 precision) when a stage overruns its
	// latency budget. Zero fields take the documented defaults.
	OverloadOptions = rag.OverloadOptions
	// OverloadReport is the overload-control addendum of a run:
	// per-tenant rejections, the deepest brownout level, time in
	// brownout, and the mean shed fraction.
	OverloadReport = rag.OverloadReport
)

// The fault kinds of a scripted storm.
const (
	CrashFault     = fault.Crash
	StragglerFault = fault.Straggler
	BandwidthFault = fault.Bandwidth
)

// Rate-schedule constructors for non-stationary workloads.
var (
	ConstantRate = workload.Constant
	RampRate     = workload.Ramp
	BurstRate    = workload.Bursts
	DiurnalRate  = workload.Diurnal
)

// The paper's evaluation datasets (§V-A).
var (
	WikiAll = dataset.WikiAll
	Orcas1K = dataset.Orcas1K
	Orcas2K = dataset.Orcas2K
)

// The paper's evaluation models (§V-A).
var (
	Llama3_8B  = llm.Llama3_8B
	Qwen3_32B  = llm.Qwen3_32B
	Llama3_70B = llm.Llama3_70B
)

// The evaluated serving systems.
const (
	CPUOnly  = rag.CPUOnly
	DedGPU   = rag.DedGPU
	AllGPU   = rag.AllGPU
	VLiteRAG = rag.VLiteRAG
	HedraRAG = rag.HedraRAG
)

// Systems lists the paper's four main-evaluation systems; AllSystems
// additionally includes HedraRAG.
func Systems() []System    { return rag.Kinds() }
func AllSystems() []System { return rag.AllKinds() }

// The cluster routing policies.
const (
	RoundRobin  = serve.RoundRobin
	LeastLoaded = serve.LeastLoaded
)

// The SLO service tiers of multi-tenant serving.
const (
	GoldTier   = tenant.Gold
	SilverTier = tenant.Silver
	BronzeTier = tenant.Bronze
)

// Tiers lists the supported service tiers, highest class first.
func Tiers() []Tier { return tenant.Tiers() }

// ParseTier validates a tier name ("gold", "silver", "bronze").
func ParseTier(s string) (Tier, error) { return tenant.ParseTier(s) }

// H100Node returns the 8xH100 evaluation node.
func H100Node() Node { return hw.H100Node() }

// L40SNode returns the 8xL40S evaluation node.
func L40SNode() Node { return hw.L40SNode() }

// DefaultShape is the paper's request geometry: 1024 input tokens,
// 256 output tokens, top-25 documents.
func DefaultShape() Shape { return workload.DefaultShape() }

// NewWorkload builds a workload at the default laptop-scale physical
// realization. Construction trains a real IVF-PQ index over a synthetic
// corpus calibrated to the paper's access-skew characterization; it
// takes a few seconds.
func NewWorkload(spec Spec) (*Workload, error) {
	return dataset.Build(spec, dataset.DefaultGen())
}

// NewWorkloadWithGen builds a workload with a custom physical
// realization (smaller for tests, larger for finer hit-rate
// resolution).
func NewWorkloadWithGen(spec Spec, gen GenConfig) (*Workload, error) {
	return dataset.Build(spec, gen)
}

// SystemOptions configures offline hybrid index construction.
type SystemOptions struct {
	Workload *Workload
	// Node defaults to the H100 node; Model to Qwen3-32B — the paper's
	// middle configuration.
	Node  Node
	Model ModelSpec
	// SLOSearch defaults to the workload's per-dataset target (Table I).
	SLOSearch time.Duration
	Seed      uint64
}

// BuiltSystem is the outcome of hybrid index construction: the
// partitioning decision, the shard plan, and the fitted models.
type BuiltSystem struct {
	Rho       float64
	PlanBytes int64
	Plan      *splitter.Plan
	Partition PartitionResult
	// Mu0 is the measured bare LLM throughput used by Algorithm 1.
	Mu0 float64
	// MeanHitRate / TailHitRate describe the chosen hot set at the
	// planned batch size.
	MeanHitRate, TailHitRate float64
	// Rebuild estimates the online update cycle cost for this plan
	// (Fig. 9).
	Rebuild RebuildTiming
}

// deployment fills the paper's middle configuration — the H100 node,
// Qwen3-32B — where node or model is left zero.
func deployment(node Node, model ModelSpec) (Node, ModelSpec) {
	if node.NumGPUs == 0 {
		node = hw.H100Node()
	}
	if model.Params == 0 {
		model = llm.Qwen3_32B
	}
	return node, model
}

// BuildSystem runs the full offline pipeline of paper §IV-A: profile →
// estimate → model → partition → split.
func BuildSystem(opts SystemOptions) (*BuiltSystem, error) {
	opts.Node, opts.Model = deployment(opts.Node, opts.Model)
	d, err := rag.Decide(rag.Options{
		Node: opts.Node, Model: opts.Model, W: opts.Workload, Kind: rag.VLiteRAG,
		SLOSearch: opts.SLOSearch, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &BuiltSystem{
		Rho:         d.Rho,
		PlanBytes:   d.PlanBytes,
		Plan:        d.Plan,
		Partition:   *d.Partition,
		Mu0:         d.Mu0,
		MeanHitRate: d.MeanHitRate,
		TailHitRate: d.Partition.EtaMin,
		Rebuild:     adapt.EstimateRebuild(opts.Node, opts.Workload.Spec, d.Plan, d.Partition.Iterations),
	}, nil
}

// ServeOptions configures one serving run on the simulator.
type ServeOptions struct {
	Workload *Workload
	System   System
	// Rate is the Poisson arrival rate in requests per virtual second.
	Rate float64
	// Node defaults to the H100 node; Model to Qwen3-32B.
	Node  Node
	Model ModelSpec
	// Duration is the virtual arrival window (default 120 s).
	Duration time.Duration
	// Drain extends the run past the arrival window so queued work —
	// requests, pending mutations, an in-flight background rebuild —
	// can finish (default 120 s).
	Drain time.Duration
	// SLOSearch overrides the dataset SLO.
	SLOSearch time.Duration
	// Prebuilt serves a previously built system's decision as-is instead
	// of re-profiling and re-partitioning: on VLiteRAG, or on HedraRAG's
	// unpruned runtime at the same coverage. This is how a *stale* plan
	// is evaluated after workload drift.
	Prebuilt *BuiltSystem
	// Precision, when non-nil, turns on the joint placement × precision
	// refinement (VLiteRAG only): the hottest placed clusters upgrade
	// from PQ to SQ8 codes within a bounded HBM budget and the coldest
	// CPU-resident clusters demote to the modeled NVMe tier. Nil keeps
	// the classic all-PQ, two-tier placement bit for bit. ServeAdaptive
	// and a compacting ServeLive refuse it: their rebuilds would drop it.
	Precision *PrecisionOptions
	// Overload, when non-nil, meters the pipeline through a bounded
	// admission queue and (with Brownout set) the quality-shedding
	// controller — the single-tenant form of overload control, using
	// the run's own stage SLOs as latency budgets. Nil keeps the
	// unmetered pipeline bit for bit.
	Overload *OverloadOptions
	Seed     uint64

	// Drift schedules popularity rotations on the virtual timeline, so a
	// single run contains the query drift of paper §IV-B3. The workload
	// is restored to its pre-run rotation afterwards.
	Drift []DriftEvent
	// RateSchedule, when non-nil, replaces the constant Rate with a
	// time-varying arrival process (ramps, bursts, diurnal cycles).
	RateSchedule RateSchedule

	// Workers spreads a networked cluster run's replica timelines over N
	// worker goroutines (0 = one per GOMAXPROCS). It is a wall-clock knob
	// only: the merged schedule is bit-identical for every value, and
	// only NetDelay decides whether the replicas get timelines of their
	// own. Under round-robin routing (or with one replica) the replicas
	// run independently of each other, so more workers are never slower;
	// under least-loaded they synchronize once per NetDelay and more
	// workers pay off only with cores to spare. Serve, ServeAdaptive and
	// ServeLive run one node on one timeline and ignore Workers.
	Workers int
	// NetDelay is the modeled front-end↔replica network transit of a
	// cluster run. Zero keeps the single-timeline cluster semantics. A
	// positive value puts every replica on its own timeline one
	// NetDelay from the front end: round-robin routing never reads
	// replica state, so arrivals are routed up front and each replica
	// runs alone to the deadline; least-loaded routing reads completion
	// notices one NetDelay stale, so front end and replicas advance
	// together as shards of the parallel engine, with the delay as its
	// conservative-synchronization lookahead. A single node has no
	// network: Serve, ServeAdaptive and ServeLive reject a positive
	// NetDelay.
	NetDelay time.Duration
}

// Report is the outcome of one serving run.
type Report struct {
	Summary  Summary
	SLOTotal time.Duration
	Rho      float64
	AvgBatch float64
	Mu0      float64
	// RecallGain / SQClusters / NVMeClusters report the precision
	// refinement (zero without ServeOptions.Precision): the served mean
	// per-query recall gain from SQ8 upgrades and the per-tier cluster
	// counts the refinement chose.
	RecallGain   float64
	SQClusters   int
	NVMeClusters int
	// Timeline is the attainment-over-time series at 30-second windows —
	// flat for a stationary run, and the degradation/recovery curve under
	// drift.
	Timeline []AttainmentWindow
	// Overload reports the admission-control and brownout outcome (nil
	// without ServeOptions.Overload).
	Overload *OverloadReport
}

// timelineBucket is the Report.Timeline resolution.
const timelineBucket = 30 * time.Second

// ragOptions fills defaults and translates the public options into the
// internal composition layer's.
func ragOptions(opts ServeOptions) rag.Options {
	opts.Node, opts.Model = deployment(opts.Node, opts.Model)
	if opts.System == "" {
		opts.System = rag.VLiteRAG
	}
	ro := rag.Options{
		Node: opts.Node, Model: opts.Model, W: opts.Workload,
		Kind: opts.System, Rate: opts.Rate, Duration: opts.Duration,
		Drain: opts.Drain, SLOSearch: opts.SLOSearch, Seed: opts.Seed,
		Drift: opts.Drift, RateSchedule: opts.RateSchedule,
		Workers: opts.Workers, NetDelay: opts.NetDelay,
	}
	if sys := opts.Prebuilt; sys != nil {
		part := sys.Partition
		ro.Decision = &rag.Decision{
			Kind: rag.VLiteRAG, Rho: sys.Rho, Plan: sys.Plan, PlanBytes: sys.PlanBytes,
			Partition: &part, Mu0: sys.Mu0, MeanHitRate: sys.MeanHitRate,
		}
	}
	ro.Precision = opts.Precision
	ro.Overload = opts.Overload
	return ro
}

// reportFrom projects a run result onto the public report. Every
// single-summary Serve* builds its Report here, so no entry point can
// drop a field the others carry.
func reportFrom(res *rag.Result) Report {
	return Report{
		Summary:      res.Summary,
		SLOTotal:     res.SLOTotal,
		Rho:          res.Rho,
		AvgBatch:     res.AvgBatch,
		Mu0:          res.Mu0,
		RecallGain:   res.RecallGain,
		SQClusters:   res.SQClusters,
		NVMeClusters: res.NVMeClusters,
		Timeline:     metrics.Timeline(res.Requests, res.SLOTotal, timelineBucket),
		Overload:     res.Overload,
	}
}

// Serve runs the end-to-end pipeline (arrivals → admission → retrieval
// → generation) in virtual time and reports the paper's metrics.
func Serve(opts ServeOptions) (*Report, error) {
	res, err := rag.Run(ragOptions(opts))
	if err != nil {
		return nil, err
	}
	rep := reportFrom(res)
	return &rep, nil
}

// AdaptiveServeOptions configures an adaptive vLiteRAG serving run:
// the usual options, typically with Drift and/or a RateSchedule so
// there is something to adapt to. The controller's drift-detection
// window holds roughly ten seconds of traffic at the nominal rate.
type AdaptiveServeOptions struct {
	ServeOptions
}

// AdaptiveReport is the outcome of one adaptive serving run: the usual
// serving report (whose Timeline shows degradation and recovery inside
// the run) plus the control-plane record — every background rebuild
// the controller executed.
type AdaptiveReport struct {
	Report
	// ExpectedHitRate is the initial plan's model-expected mean hit rate
	// (the monitor's first anchor).
	ExpectedHitRate float64
	Rebuilds        []RebuildRecord
	// Pending is a rebuild still in flight when the run ended (nil when
	// every triggered cycle completed). Lengthen Duration or Drain past
	// the cycle's total time to let it finish.
	Pending *RebuildRecord
}

// ServeAdaptive runs the end-to-end pipeline with the online adaptation
// controller attached (paper §IV-B3): drift detection on the live
// request stream, background re-profile → re-partition → re-split →
// shard reload priced in virtual time, CPU fallback for mid-reload
// shards, and an atomic plan swap — all inside one simulated run.
func ServeAdaptive(opts AdaptiveServeOptions) (*AdaptiveReport, error) {
	ro := ragOptions(opts.ServeOptions)
	ro.Monitor = &adapt.MonitorConfig{}
	res, err := rag.Run(ro)
	if err != nil {
		return nil, err
	}
	return &AdaptiveReport{
		Report:          reportFrom(res),
		ExpectedHitRate: res.Adapt.ExpectedHitRate,
		Rebuilds:        res.Adapt.Rebuilds,
		Pending:         res.Adapt.Pending,
	}, nil
}

// LiveIngestOptions configures the streaming-ingest side of a live
// serving run: insert/delete mutation streams on the serving timeline
// and the background re-encode cadence. Freshness is judged against a
// 500 ms time-to-searchable budget, which LiveReport echoes.
type LiveIngestOptions struct {
	// InsertRate and DeleteRate are constant mutation rates in
	// mutations per virtual second.
	InsertRate float64
	DeleteRate float64
	// ReencodeEvery is the background fold cadence: pending raw-vector
	// appends re-encode into PQ codes every such interval (default 25s).
	ReencodeEvery time.Duration
	// Compaction lets the adaptive controller answer drift triggers
	// with a cheap re-encode + tombstone purge, escalating to the full
	// re-partition only past the skew and residual thresholds (VLiteRAG
	// only).
	Compaction bool
	// EscalateResidual tunes the compaction-vs-rebuild residual
	// threshold (zero keeps the default; negative disables the
	// compaction shortcut).
	EscalateResidual float64
}

// LiveServeOptions configures a live-corpus serving run.
type LiveServeOptions struct {
	ServeOptions
	Ingest LiveIngestOptions
}

// LiveReport is the outcome of one live-corpus serving run: the usual
// serving report plus the freshness summary, with the Timeline's
// windows carrying per-window insert counts and freshness attainment
// next to the request attainment.
type LiveReport struct {
	Report
	// Freshness aggregates time-to-searchable over the run's mutations.
	Freshness Freshness
	// FreshnessSLO echoes the budget Freshness was computed against.
	FreshnessSLO time.Duration
	// Mutations counts applied mutations; Reencodes counts background
	// folds; Compactions counts controller-driven compaction cycles.
	Mutations   int
	Reencodes   int
	Compactions int
	// SizeSkew and ResidualRatio are the drift trackers' final readings
	// (live cluster-size skew over the built partition's; insert
	// residual norm over the corpus baseline).
	SizeSkew      float64
	ResidualRatio float64
	// Rebuilds is the compaction controller's cycle record (empty
	// without Compaction); compaction cycles carry Compaction == true.
	Rebuilds []RebuildRecord
}

// ServeLive runs the end-to-end pipeline over a live, mutating corpus:
// insert/delete streams feed a serial ingest station on the same
// simulated timeline, new vectors serve from brute-force-scanned
// append buffers until the periodic re-encode folds them into PQ
// codes, deletes serve through tombstone bitmaps, and every engine
// scan is priced through the live cost overlay. With no ingest
// configured it is exactly Serve.
func ServeLive(opts LiveServeOptions) (*LiveReport, error) {
	in := opts.Ingest
	ro := ragOptions(opts.ServeOptions)
	ro.Ingest = &rag.IngestOptions{
		InsertRate:       in.InsertRate,
		DeleteRate:       in.DeleteRate,
		ReencodeEvery:    in.ReencodeEvery,
		EscalateResidual: in.EscalateResidual,
	}
	// Compaction is the controller beside live streams; without a stream
	// the run is exactly Serve.
	if in.Compaction && (in.InsertRate > 0 || in.DeleteRate > 0) {
		ro.Monitor = &adapt.MonitorConfig{}
	}
	res, err := rag.Run(ro)
	if err != nil {
		return nil, err
	}
	rep := reportFrom(res)
	live := res.Live
	metrics.AnnotateFreshness(rep.Timeline, live.Mutations, live.FreshnessSLO, timelineBucket)
	lr := &LiveReport{
		Report:        rep,
		Freshness:     live.Freshness,
		FreshnessSLO:  live.FreshnessSLO,
		Mutations:     len(live.Mutations),
		Reencodes:     live.Reencodes,
		Compactions:   live.Compactions,
		SizeSkew:      live.SizeSkew,
		ResidualRatio: live.ResidualRatio,
	}
	if res.Adapt != nil {
		lr.Rebuilds = res.Adapt.Rebuilds
	}
	return lr, nil
}

// ClusterOptions configures a multi-replica serving run: N identical
// node pipelines behind a front-end router fed by one Poisson stream
// (Rate is the cluster-wide arrival rate).
type ClusterOptions struct {
	ServeOptions
	// Replicas is the number of independent node pipelines (default 2).
	Replicas int
	// Policy selects the router's dispatch rule (default LeastLoaded).
	Policy RoutePolicy

	// Faults injects a scripted failure storm: comma-separated events of
	// the form kind@onset:rN:duration[:xFactor], e.g.
	// "crash@20s:r0:10s,straggler@35s:r1:8s:x3". A storm turns the run
	// resilient: the front end tracks replica health and fails crashed
	// work over, governed by Resilience. An empty storm with a nil
	// Resilience runs the plain fault-free router.
	Faults string
	// Resilience tunes timeouts, retries, hedging, and degradation. Nil
	// under a storm means defaults (generous timeout, failover only).
	Resilience *ResilienceConfig
}

// ReplicaReport is one replica's share of a cluster run.
type ReplicaReport struct {
	Submitted int
	Summary   Summary
	AvgBatch  float64
}

// ClusterReport is the outcome of one multi-replica serving run.
type ClusterReport struct {
	Report
	Policy     RoutePolicy
	PerReplica []ReplicaReport
	// Workers and NetDelay echo a sharded run's execution configuration
	// (zero on the single-timeline path). Workers never shows in the
	// schedule — only in wall clock.
	Workers  int
	NetDelay time.Duration
	// Resilience reports the failure handling of a faulted run: the
	// injected schedule, the router's action counts, goodput, and
	// time-to-recover per crash. Nil on fault-free runs.
	Resilience *ResilienceReport
}

// ServeCluster runs the end-to-end pipeline on a cluster of identical
// replicas behind a round-robin or least-loaded router. The offline
// resource decision (profiling, partitioning, split plan) is made once
// and instantiated per replica.
func ServeCluster(opts ClusterOptions) (*ClusterReport, error) {
	if opts.Replicas == 0 {
		opts.Replicas = 2
	}
	ro := ragOptions(opts.ServeOptions)
	if opts.Faults != "" {
		sched, err := fault.Parse(opts.Faults)
		if err != nil {
			return nil, fmt.Errorf("vectorliterag: %w", err)
		}
		ro.Faults = sched
	}
	ro.Resilience = opts.Resilience
	ro.Replicas, ro.Policy = opts.Replicas, opts.Policy
	res, err := rag.Run(ro)
	if err != nil {
		return nil, err
	}
	rep := &ClusterReport{
		Report:     reportFrom(res),
		Policy:     res.Policy,
		Workers:    res.Workers,
		NetDelay:   res.NetDelay,
		Resilience: res.Resilience,
	}
	for _, r := range res.PerReplica {
		rep.PerReplica = append(rep.PerReplica, ReplicaReport{
			Submitted: r.Submitted, Summary: r.Summary, AvgBatch: r.AvgBatch,
		})
	}
	return rep, nil
}

// TenantSpec describes one tenant of a multi-tenant serving run: its
// own corpus, traffic, and SLO tier.
type TenantSpec struct {
	Name string
	Tier Tier
	// Workload is the tenant's corpus (own index, probe lists, skew).
	Workload *Workload
	// Rate is the tenant's nominal arrival rate (requests per virtual
	// second); it also sizes the tenant's slice in the joint allocation.
	Rate float64
	// RateSchedule, when non-nil, drives this tenant's arrivals as a
	// time-varying stream (e.g. BurstRate for a flash-crowd tenant).
	RateSchedule RateSchedule
	// SLOSearch defaults to the tenant dataset's Table-I value.
	SLOSearch time.Duration
}

// MultiTenantServeOptions configures one multi-tenant serving run: N
// tenants with their own corpora and SLO tiers sharing one node's HBM,
// CPU, and LLM.
type MultiTenantServeOptions struct {
	Tenants []TenantSpec
	// Node defaults to the H100 node; Model to Qwen3-32B.
	Node  Node
	Model ModelSpec
	// Duration is the virtual arrival window (default 120 s).
	Duration time.Duration
	Seed     uint64
	// SharedQueue disables the FairScheduler: every tenant's arrivals
	// share one unmetered queue into the retrieval engine (the
	// baseline a tenant isolation study compares against). The joint
	// HBM allocation is unchanged.
	SharedQueue bool
	// Overload, when non-nil, bounds each tenant's admission queue and
	// optionally runs the brownout controller (per-tenant stage budgets
	// from each tenant's own SLOs, shed fractions biased by tier so
	// bronze sheds first and gold last). Requires the FairScheduler —
	// incompatible with SharedQueue.
	Overload *OverloadOptions
	// Precision, when non-nil, extends the joint allocator with the
	// hotness-aware precision refinement (SQ8 upgrades within leftover
	// HBM, coldest clusters to the modeled NVMe tier), shared across
	// all tenants. The zero value selects the default budgets.
	Precision *PrecisionOptions

	// Replicas > 1 serves the tenants on R identical multi-tenant nodes
	// behind a front-end router with a modeled network (see
	// ServeOptions.NetDelay for which policy runs on which engine); each
	// node carries the full tenant lineup with its joint HBM allocation
	// sized for a 1/R traffic share.
	Replicas int
	// Policy picks the router policy for replicated runs (default
	// LeastLoaded).
	Policy RoutePolicy
	// Workers and NetDelay mirror ServeOptions: worker goroutines for
	// the replica timelines (wall-clock only) and the modeled network
	// transit. Setting NetDelay — or Replicas > 1 — puts the tenants'
	// nodes behind that network.
	Workers  int
	NetDelay time.Duration
}

// TenantReport is one tenant's share of a multi-tenant run.
type TenantReport struct {
	Name     string
	Tier     Tier
	Rate     float64
	SLOTotal time.Duration
	// Target is the tier's attainment objective; Met reports whether
	// the tenant's measured attainment reached it.
	Target  float64
	Met     bool
	Summary Summary
	// Alloc is the tenant's slice of the joint HBM decision.
	Alloc TenantAllocation
	// PeakQueue is the high-water mark of the tenant's admission queue
	// (zero under SharedQueue).
	PeakQueue int
	// Rejected counts the tenant's arrivals refused at admission (zero
	// without Overload).
	Rejected int
}

// MultiTenantReport is the outcome of one multi-tenant serving run.
type MultiTenantReport struct {
	Tenants []TenantReport
	// Fairness is Jain's index over per-tenant SLO attainment.
	Fairness float64
	// Attainment is the request-weighted aggregate attainment.
	Attainment float64
	// RecallGain is the served mean per-query recall gain from SQ8
	// upgrades across all tenants (zero without Precision; the
	// brownout ladder's precision-fallback rung hands part of it back).
	RecallGain  float64
	Mu0         float64
	MuLLM       float64
	BudgetBytes int64
	UsedBytes   int64
	AvgBatch    float64
	SharedQueue bool
	// Replicas, Workers, and NetDelay echo a replicated (sharded) run's
	// execution configuration; zero on the single-node path.
	Replicas int
	Workers  int
	NetDelay time.Duration
	// Overload reports the admission-control and brownout outcome (nil
	// without MultiTenantServeOptions.Overload).
	Overload *OverloadReport
}

// ServeTenants runs the multi-tenant pipeline in virtual time: the
// joint allocator splits HBM across the tenants' GPU index caches by
// marginal SLO-attainment-per-byte (tier-weighted, with per-tenant
// floors), every tenant's arrival stream multiplexes onto one
// simulated timeline, and the FairScheduler meters admission into the
// shared retrieval engine with weighted round-robin and tier-aware
// preemption ordering.
func ServeTenants(opts MultiTenantServeOptions) (*MultiTenantReport, error) {
	opts.Node, opts.Model = deployment(opts.Node, opts.Model)
	ro := rag.Options{
		Node: opts.Node, Model: opts.Model,
		Duration: opts.Duration, Seed: opts.Seed,
		// Non-nil even when empty: a lineup, so an empty one is named.
		Tenants:     make([]rag.TenantConfig, 0, len(opts.Tenants)),
		SharedQueue: opts.SharedQueue,
		Overload:    opts.Overload,
		Precision:   opts.Precision,
		Replicas:    opts.Replicas, Policy: opts.Policy,
		Workers: opts.Workers, NetDelay: opts.NetDelay,
	}
	// The lineup is sharded when Replicas > 1 or NetDelay > 0; rag
	// routes it whenever Replicas > 0. A negative count passes through
	// to be rejected.
	if opts.Replicas == 0 || opts.Replicas == 1 {
		ro.Replicas = 0
		if opts.NetDelay > 0 {
			ro.Replicas = 1
		}
	}
	for _, ts := range opts.Tenants {
		ro.Tenants = append(ro.Tenants, rag.TenantConfig{
			Name: ts.Name, Tier: ts.Tier, W: ts.Workload,
			Rate: ts.Rate, RateSchedule: ts.RateSchedule, SLOSearch: ts.SLOSearch,
		})
	}
	res, err := rag.Run(ro)
	if err != nil {
		return nil, err
	}
	rep := &MultiTenantReport{
		Fairness:    res.Fairness,
		Attainment:  res.Attainment,
		RecallGain:  res.RecallGain,
		Mu0:         res.Mu0,
		MuLLM:       res.MuLLM,
		BudgetBytes: res.BudgetBytes,
		UsedBytes:   res.UsedBytes,
		AvgBatch:    res.AvgBatch,
		SharedQueue: opts.SharedQueue,
		Replicas:    len(res.PerReplica),
		Workers:     res.Workers,
		NetDelay:    res.NetDelay,
		Overload:    res.Overload,
	}
	for _, tr := range res.Tenants {
		rep.Tenants = append(rep.Tenants, TenantReport{
			Name: tr.Name, Tier: tr.Tier, Rate: tr.Rate,
			SLOTotal:  tr.SLOTotal,
			Target:    tr.Tier.Target(),
			Met:       tr.Summary.Attainment >= tr.Tier.Target(),
			Summary:   tr.Summary,
			Alloc:     tr.Alloc,
			PeakQueue: tr.PeakQueue,
			Rejected:  tr.Rejected,
		})
	}
	return rep, nil
}

// Capacity returns the standalone LLM throughput of a deployment (the
// vertical dashed lines of Fig. 11).
func Capacity(node Node, model ModelSpec) (float64, error) {
	return rag.BareCapacity(node, model, workload.DefaultShape())
}

// Experiments lists the registered paper artifacts (fig3..fig17, tab1).
func Experiments() []string { return experiments.Names() }

// RunExperiment regenerates one table or figure and returns its
// rendered text. Quick mode shrinks sweeps for fast runs. An unknown ID
// returns an error listing every valid one.
func RunExperiment(id string, quick bool) (string, error) {
	rep, err := runExperiment(id, quick)
	if err != nil {
		return "", err
	}
	return rep.Render(), nil
}

// RunExperimentCSV regenerates one experiment and returns the data rows
// of every table it prints as CSV (the paper artifact's log format):
// tables in print order, each under its header row, one blank line
// between them.
func RunExperimentCSV(id string, quick bool) (string, error) {
	rep, err := runExperiment(id, quick)
	if err != nil {
		return "", err
	}
	return rep.CSV(), nil
}

func runExperiment(id string, quick bool) (*experiments.Report, error) {
	runner, err := experiments.Lookup(id)
	if err != nil {
		return nil, fmt.Errorf("vectorliterag: %w", err)
	}
	return runner(experiments.Config{Quick: quick, Seed: 1})
}
