// Package rag composes the paper's serving systems: for each baseline
// it makes the system-level resource decision the paper's §V baseline
// configurations differ in — GPU memory layout, which GPUs serve the
// LLM, and which retrieval engine runs — and instantiates that decision
// as a node wired station by station (arrivals → admission →
// scheduler → retrieval → generation, all in virtual time, each
// request's record its arrival's slot in one arena). It also
// owns the memoized capacity measurements every experiment shares.
//
// Run is the one serving entry point. Its Options name a corpus (one
// workload, or a tenant lineup), a topology (one node, or replicas
// behind a router) and the control planes attached to it; Options.validate
// checks the combination against the rules table before any work, and
// the Result carries one optional section per topology or plane used.
package rag

import (
	"fmt"
	"time"

	"vectorliterag/internal/adapt"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/fault"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/memo"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/partition"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/workload"
)

// Kind selects the serving system under test.
type Kind string

// The evaluated systems (paper §V, baseline configurations).
const (
	CPUOnly  Kind = "CPU-Only"
	DedGPU   Kind = "DED-GPU"
	AllGPU   Kind = "ALL-GPU"
	VLiteRAG Kind = "vLiteRAG"
	HedraRAG Kind = "HedraRAG"
)

// Kinds lists the four main-evaluation systems in the paper's order
// (the Fig. 11/12 lineup; HedraRAG appears only in the dedicated
// comparison figures).
func Kinds() []Kind { return []Kind{CPUOnly, DedGPU, AllGPU, VLiteRAG} }

// AllKinds lists every implemented system, including HedraRAG — the
// enumeration ablation and coverage studies iterate over.
func AllKinds() []Kind { return []Kind{CPUOnly, DedGPU, AllGPU, VLiteRAG, HedraRAG} }

// Options configures one run: a corpus, a topology and the control
// planes attached to it.
type Options struct {
	Node  hw.Node
	Model llm.ModelSpec

	// The corpus is either one workload — W served by the Kind system
	// (default vLiteRAG) at Rate — or, when Tenants is non-nil, a lineup
	// of tenants with their own corpora, rates and tiers sharing every
	// node under the joint allocator; W, Rate, RateSchedule, Drift and
	// SLOSearch then stay unset. SharedQueue swaps a lineup's
	// FairScheduler for one unmetered queue (the baseline that isolates
	// what scheduling alone buys).
	W           *dataset.Workload
	Kind        Kind
	Tenants     []TenantConfig
	SharedQueue bool

	Rate     float64       // arrival rate, requests/second
	Duration time.Duration // arrival window in virtual time (default 120s)
	Warmup   time.Duration // excluded prefix (default 20s)
	Drain    time.Duration // post-arrival settling window (default 120s)
	Shape    workload.Shape
	Seed     uint64

	// RateSchedule, when non-nil, drives arrivals as an inhomogeneous
	// Poisson stream (ramps, bursts, diurnal cycles) instead of the
	// constant Rate; Rate then only labels the result.
	RateSchedule workload.Schedule
	// Drift schedules popularity rotations on the virtual timeline — the
	// non-stationary workload of §IV-B3 drift studies. The workload's
	// initial rotation is restored when the run returns, so back-to-back
	// runs (static vs adaptive under the same trace) stay reproducible.
	Drift []dataset.DriftEvent

	// SLOSearch overrides the dataset's search SLO (sensitivity studies).
	SLOSearch time.Duration
	// SLOGen overrides the generation-stage SLO. When zero, it is derived
	// the way the paper derives Table I: the deployment's own TTFT
	// measured at the model's throughput limit (P90 at 2/3 capacity).
	SLOGen time.Duration
	// Epsilon is the queuing factor of Algorithm 1 (default 1; negative
	// and NaN values are rejected).
	Epsilon float64
	// DisableDispatcher turns off early query promotion (Fig. 14).
	DisableDispatcher bool
	// ProfileQueries sizes the calibration sample (default
	// profiler.CalibrationQueries; negative values are rejected).
	ProfileQueries int
	// Decision, when non-nil, is served as-is instead of deciding —
	// decide once, serve many — on the Kind it was made for, or on
	// HedraRAG's unpruned runtime when it is a vLiteRAG decision without
	// precision refinement. A tenant lineup refuses one. Precision is not
	// re-applied to it.
	Decision *Decision
	// Precision, when non-nil, extends the placement decision (Algorithm
	// 1, or a lineup's joint allocator) with the (tier, codec)
	// refinement: hot clusters upgraded from PQ to SQ8 within a bounded
	// HBM budget, and the coldest CPU-resident clusters demoted to the
	// modeled NVMe tier. Nil preserves the classic all-PQ, two-tier
	// placement bit for bit. Rejected for every other Kind — the
	// baselines have no placement decision to refine — and beside
	// Monitor, whose rebuilds place an all-PQ plan.
	Precision *PrecisionOptions
	// Overload, when non-nil, puts a bounded admission queue (and
	// optionally the brownout controller) in front of each node: on a
	// single corpus one queue with the run's own stage SLOs as budgets,
	// on a lineup one per tenant, biased by tier. Nil keeps the unmetered
	// pipeline byte for byte. A routed single corpus refuses it: its
	// resilient front end degrades instead, and the two would fight.
	Overload *OverloadOptions

	// Replicas > 0 serves the corpus on that many identical nodes behind
	// a front-end router (zero: one node, no router). The decision is
	// made once and instantiated per replica; Rate is cluster-wide. A
	// lineup's joint allocation is sized for each node's 1/R share of
	// every tenant's traffic, and a routed lineup always runs as a fleet.
	Replicas int
	// Policy is the router's rule (default least-loaded). It is resolved
	// on every run, so a typo fails even where nothing is routed.
	Policy serve.Policy
	// Workers selects how many worker goroutines a fleet spreads its
	// replica timelines over (0 = one per GOMAXPROCS). It changes
	// wall-clock only: the merged schedule is bit-identical for any
	// value, and only NetDelay decides whether a run is a fleet. A single
	// node has one timeline and ignores it.
	Workers int
	// NetDelay is the modeled front-end↔replica network transit of a
	// routed run; a single node has no network and refuses it. A positive
	// value runs the replicas as a fleet (see fleet), whose conservative
	// synchronization uses it as lookahead. Zero keeps a routed single
	// corpus on one instantaneous simulator; a routed lineup defaults it
	// to DefaultNetDelay.
	NetDelay time.Duration
	// Faults is the failure storm injected into a routed single corpus:
	// replica crashes, straggler episodes, degraded-bandwidth episodes —
	// all deterministic virtual-time events. A non-empty schedule (or a
	// non-nil Resilience) puts every replica and the failure-aware router
	// on one simulator, whatever Workers and NetDelay say; empty and nil
	// leave every other path untouched, byte for byte. A single node has
	// no replica to fail over to and refuses both.
	Faults fault.Schedule
	// Resilience configures the failure-aware front end (health-tracked
	// failover, timeouts with bounded retry, hedged requests, graceful
	// degradation). Nil with an empty Faults schedule means the plain
	// router; nil with faults means a resilient router with everything
	// but health tracking disabled — crashes still fail over in-flight
	// work, but nothing retries on slowness.
	Resilience *serve.ResilienceConfig

	// Monitor, when non-nil, attaches the adapt controller to a
	// single-node vLiteRAG run: drift detection on the completion stream
	// and, on a trigger, the background re-profile → re-partition →
	// re-split → reload cycle and plan swap (paper §IV-B3); the same
	// Options without it is the static arm of an A/B. Beside an active
	// Ingest the controller answers drift with the cheap compaction
	// first. A zero WindowRequests derives a window of roughly ten
	// seconds of traffic (min 100 requests); the controller fills the
	// other zero fields and rejects invalid ones.
	Monitor *adapt.MonitorConfig
	// Ingest, when non-nil, describes the live corpus of a single-node
	// run: insert/delete streams sharing the serving timeline (see
	// IngestOptions). With no stream configured the run is exactly the
	// frozen one — same events, same bytes — and reports an empty Live
	// section. A routed run or a tenant lineup refuses it, streams or
	// not.
	Ingest *IngestOptions
}

// PrecisionOptions configures the placement x precision refinement.
// Zero values take the documented defaults; negatives are rejected.
type PrecisionOptions struct {
	// SQBudgetFrac bounds the HBM the SQ8 upgrades may consume, as a
	// fraction of the memory the placement loop left between the plan
	// and the KV bound (default 0.10). The upgrades spend only this
	// leftover, so the placement decision itself is never displaced.
	SQBudgetFrac float64
	// NVMeColdShare demotes the coldest CPU-resident clusters carrying
	// at most this share of profiled accesses to the NVMe tier
	// (default 0.02).
	NVMeColdShare float64
}

// normalized validates the options and returns a private copy with the
// defaults filled in, so the caller's struct is never written through
// (a caller may share one pointer across concurrent runs). A nil
// receiver stays nil.
func (p *PrecisionOptions) normalized() (*PrecisionOptions, error) {
	if p == nil {
		return nil, nil
	}
	q := *p
	if q.SQBudgetFrac < 0 {
		return nil, fmt.Errorf("rag: negative precision SQBudgetFrac %v", q.SQBudgetFrac)
	}
	if q.SQBudgetFrac > 1 {
		return nil, fmt.Errorf("rag: precision SQBudgetFrac %v exceeds 1", q.SQBudgetFrac)
	}
	if q.NVMeColdShare < 0 || q.NVMeColdShare >= 1 {
		return nil, fmt.Errorf("rag: precision NVMeColdShare %v outside [0,1)", q.NVMeColdShare)
	}
	if q.SQBudgetFrac == 0 {
		q.SQBudgetFrac = 0.10
	}
	if q.NVMeColdShare == 0 {
		q.NVMeColdShare = 0.02
	}
	return &q, nil
}

// resilient reports whether this run takes the failure-aware path.
func (opts *Options) resilient() bool {
	return len(opts.Faults) > 0 || opts.Resilience != nil
}

// streams returns the run's live-ingest streams, or nil on a frozen
// corpus (no Ingest, or one with no stream configured).
func (opts *Options) streams() *IngestOptions {
	io := opts.Ingest
	if io == nil || (io.InsertRate <= 0 && io.DeleteRate <= 0) {
		return nil
	}
	return io
}

// checkDeployment rejects a node/model pair no engine can be built on —
// a zero or partly filled struct would otherwise reach a division by
// TP or by the per-token KV bytes. Every entry point that validates
// options or measures a deployment calls it first.
func checkDeployment(node hw.Node, model llm.ModelSpec) error {
	if node.NumGPUs < 1 {
		return fmt.Errorf("rag: node %q has %d GPUs", node.Name, node.NumGPUs)
	}
	if err := model.Validate(); err != nil {
		return fmt.Errorf("rag: %w", err)
	}
	return nil
}

// sloTotal is a single corpus's combined SLO, search plus generation.
func (opts *Options) sloTotal() time.Duration { return opts.SLOSearch + opts.SLOGen }

// Result is one evaluation point. The fields up to Overload hold the
// records and node readings every run reports and a single corpus's
// decision and summary (zero on a lineup, whose tenant rows carry their
// own); a run fills the sections below them only for the topology and
// control planes it used.
type Result struct {
	Kind     Kind
	Rate     float64
	SLOTotal time.Duration
	Summary  metrics.Summary
	// Requests holds the per-request records in arrival order: the
	// run's arena itself, where every request was served or — under the
	// resilient router — where the router wrote each request's outcome.
	Requests []workload.Request

	// Rho is the GPU cache coverage the system chose (1 for ALL/DED-GPU,
	// 0 for CPU-only).
	Rho       float64
	PlanBytes int64 // GPU-resident index bytes
	Mu0       float64
	AvgBatch  float64
	LLMGPUs   int
	Partition *partition.Result // nil for non-partitioned systems
	Generated int

	// Precision-refinement outcome (zero on runs without Precision set):
	// the served mean per-query recall gain from SQ8 upgrades, and the
	// cluster counts the refinement chose per tier/codec.
	RecallGain   float64
	SQClusters   int
	NVMeClusters int

	// Overload reports the admission-control and brownout outcome (nil
	// on runs without Options.Overload).
	Overload *OverloadReport

	// The routed-run section (zero with Replicas == 0): the resolved
	// policy and each replica's share. Workers and NetDelay echo a
	// fleet's execution configuration (zero on the single-timeline
	// path): how many worker goroutines ran the replica timelines — a
	// wall-clock knob only, never visible in the schedule — and the
	// modeled network transit. Resilience is the failure-handling
	// addendum of a resilient run.
	Policy     serve.Policy
	PerReplica []ReplicaResult
	Workers    int
	NetDelay   time.Duration
	Resilience *ResilienceReport

	// Adapt is the adapt controller's record (nil without Monitor); Live
	// the ingest side of a live corpus (nil without Ingest).
	Adapt *AdaptReport
	Live  *LiveReport

	// The tenant rows (zero on a single corpus): each tenant's share
	// against its own SLO, Jain's index over their attainments, the
	// request-weighted aggregate attainment, and the joint allocator's
	// index budget, spend and the LLM throughput left beside it.
	Tenants     []TenantResult
	Fairness    float64
	Attainment  float64
	BudgetBytes int64
	UsedBytes   int64
	MuLLM       float64
}

// capacities and genSLOs memoize the two deployment measurements per
// deployment, since every rate point of a sweep — and every decision —
// shares them.
var (
	capacities memo.Cache[float64]
	genSLOs    memo.Cache[time.Duration]
)

// BareCapacity measures (or recalls) the standalone LLM throughput of a
// node/model/shape deployment over all of the node's GPUs (the vertical
// dashed lines of Fig. 11).
func BareCapacity(node hw.Node, model llm.ModelSpec, shape workload.Shape) (float64, error) {
	if err := checkDeployment(node, model); err != nil {
		return 0, err
	}
	key := fmt.Sprintf("%s|%s|%d|%d/%d", node.Name, model.Name, node.NumGPUs, shape.InputTokens, shape.OutputTokens)
	return capacities.Get(key, func() (float64, error) {
		return llm.MeasureCapacity(node, model, gpu.NewStates(node), shape, llm.DefaultEngineConfig())
	})
}

// GenSLO returns the measured generation-stage TTFT SLO for a
// deployment (Table I methodology on this substrate).
func GenSLO(node hw.Node, model llm.ModelSpec, shape workload.Shape) (time.Duration, error) {
	if err := checkDeployment(node, model); err != nil {
		return 0, err
	}
	key := fmt.Sprintf("%s|%s|%d/%d", node.Name, model.Name, shape.InputTokens, shape.OutputTokens)
	return genSLOs.Get(key, func() (time.Duration, error) {
		return llm.MeasureGenSLO(node, model, gpu.NewStates(node), shape, llm.DefaultEngineConfig(), 2.0/3.0)
	})
}
