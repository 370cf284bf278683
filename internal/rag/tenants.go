package rag

import (
	"fmt"
	"time"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/hitrate"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/partition"
	"vectorliterag/internal/perfmodel"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/retrieval"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/tenant"
	"vectorliterag/internal/workload"
)

// TenantConfig describes one tenant of a multi-tenant run: its own
// corpus, traffic, and SLO tier.
type TenantConfig struct {
	Name string
	Tier tenant.Tier
	// W is the tenant's corpus (its own index, probe lists, and skew).
	W *dataset.Workload
	// Rate is the tenant's nominal arrival rate in requests/second. It
	// sizes the tenant's slice in the joint allocation even when a
	// RateSchedule drives the actual arrivals (a bursty tenant is
	// provisioned for its base rate, not its peak — the burst is what
	// the FairScheduler absorbs).
	Rate float64
	// RateSchedule, when non-nil, drives this tenant's arrivals as an
	// inhomogeneous Poisson stream.
	RateSchedule workload.Schedule
	// SLOSearch defaults to the tenant dataset's Table-I value.
	SLOSearch time.Duration
}

// MultiTenantOptions configures one multi-tenant serving run.
type MultiTenantOptions struct {
	Node    hw.Node
	Model   llm.ModelSpec
	Tenants []TenantConfig

	Duration time.Duration // arrival window (default 120s)
	Warmup   time.Duration // excluded prefix (default 20s)
	Drain    time.Duration // settling window (default 120s)
	Shape    workload.Shape
	Seed     uint64

	// MaxBatch caps retrieval batches (default 64).
	MaxBatch int
	// SchedulerInflight bounds requests concurrently inside the metered
	// section (admission to first token). The default of 32
	// approximates the Little's-law occupancy that sustains node
	// throughput at SLO-scale TTFT; anything beyond it would sit in
	// downstream FIFO queues where tier priority cannot act.
	SchedulerInflight int
	// SharedQueue disables the FairScheduler — the baseline where every
	// tenant's arrivals share one unmetered queue into the retrieval
	// engine. The joint allocation is unchanged, isolating what
	// scheduling alone buys.
	SharedQueue bool
	// Epsilon is the queuing factor of the joint allocator (default 1).
	Epsilon float64
	// FloorFrac is the guaranteed fraction of each tenant's minimum
	// feasible slice (default 0.25, see tenant.Inputs).
	FloorFrac float64
	// ProfileQueries sizes each tenant's calibration sample (default
	// 4000).
	ProfileQueries int
	// SLOGen overrides the measured generation-stage SLO.
	SLOGen time.Duration
	// Precision, when non-nil, extends the joint allocator with the
	// (tier, codec) refinement: leftover HBM budget upgrades each
	// tenant's hottest placed clusters from PQ to SQ8 (tier-weighted
	// marginal recall per byte), and each tenant's coldest CPU-resident
	// clusters demote to the modeled NVMe tier. Nil keeps the classic
	// placement-only allocation bit for bit.
	Precision *PrecisionOptions
	// Overload, when non-nil, bounds each tenant's admission queue and
	// optionally runs the brownout controller: per-tenant stage budgets
	// from each tenant's own SLOs, shed fractions biased by tier so
	// bronze sheds first and gold last. Requires the FairScheduler —
	// rejected with SharedQueue. Nil keeps every path byte-identical.
	Overload *OverloadOptions

	// Replicas > 1 serves the tenants on R identical multi-tenant nodes
	// behind a front-end router, on the parallel sharded engine. Each
	// node gets the full tenant lineup with its joint HBM allocation
	// sized for a 1/R traffic share.
	Replicas int
	// Policy picks the router policy for replicated runs (default
	// least-loaded).
	Policy serve.Policy
	// Workers and NetDelay mirror Options: worker goroutines for the
	// sharded engine (wall-clock only; 0 = one per GOMAXPROCS) and the modeled
	// front↔replica transit that doubles as the conservative lookahead.
	// Setting either (or Replicas > 1) selects the sharded engine;
	// NetDelay defaults to DefaultNetDelay there.
	Workers  int
	NetDelay time.Duration
}

// TenantResult is one tenant's share of a multi-tenant run.
type TenantResult struct {
	Name     string
	Tier     tenant.Tier
	Rate     float64
	SLOTotal time.Duration
	// Alloc is the tenant's slice of the joint HBM decision.
	Alloc tenant.Allocation
	// Summary aggregates the tenant's own requests against its own SLO.
	Summary metrics.Summary
	// PeakQueue is the high-water mark of the tenant's admission queue
	// (zero in the shared-queue baseline, which has no per-tenant
	// queues).
	PeakQueue int
	// Rejected counts the tenant's arrivals refused at admission (zero
	// without Overload; summed across replicas in a sharded run).
	Rejected int
}

// MultiTenantResult is one multi-tenant evaluation point.
type MultiTenantResult struct {
	Tenants []TenantResult
	// Fairness is Jain's index over per-tenant SLO attainment.
	Fairness float64
	// Attainment is the request-weighted aggregate attainment.
	Attainment float64
	// RecallGain is the served mean per-query recall gain from SQ8
	// upgrades across all tenants (zero without Precision).
	RecallGain float64
	Mu0        float64
	MuLLM      float64
	// BudgetBytes / UsedBytes are the joint allocator's index budget
	// and spend.
	BudgetBytes int64
	UsedBytes   int64
	AvgBatch    float64
	LLMGPUs     int
	SharedQueue bool
	Generated   int
	// Requests holds per-request records in arrival order (value
	// snapshots from the streaming collector).
	Requests []workload.Request
	// ServeWall / ServeAllocs / ServeBytes measure the simulation
	// section, as on Result (see beginServeSection).
	ServeWall   time.Duration
	ServeAllocs uint64
	ServeBytes  uint64

	// Replicas, Workers, NetDelay, and PerReplicaSubmitted echo the
	// sharded execution configuration (zero/nil on the single-node
	// path); Workers changes wall-clock only, never the schedule.
	Replicas            int
	Workers             int
	NetDelay            time.Duration
	PerReplicaSubmitted []int

	// Overload reports the admission-control and brownout outcome (nil
	// without MultiTenantOptions.Overload).
	Overload *OverloadReport
}

// normalizeMT fills defaults and validates the option set, returning
// the per-tenant combined SLO budgets.
func (opts *MultiTenantOptions) normalizeMT() ([]time.Duration, error) {
	if len(opts.Tenants) == 0 {
		return nil, fmt.Errorf("rag: no tenants")
	}
	if opts.Node.NumGPUs == 0 {
		return nil, fmt.Errorf("rag: node has no GPUs")
	}
	for i := range opts.Tenants {
		tc := &opts.Tenants[i]
		if tc.W == nil {
			return nil, fmt.Errorf("rag: tenant %d (%s) has no workload", i, tc.Name)
		}
		if tc.Rate <= 0 {
			return nil, fmt.Errorf("rag: tenant %d (%s) non-positive rate %v", i, tc.Name, tc.Rate)
		}
		if tc.RateSchedule != nil {
			if err := workload.ValidateSchedule(tc.RateSchedule); err != nil {
				return nil, fmt.Errorf("rag: tenant %d (%s): %w", i, tc.Name, err)
			}
		}
		if _, err := tenant.ParseTier(string(tc.Tier)); err != nil {
			return nil, fmt.Errorf("rag: tenant %d (%s): %w", i, tc.Name, err)
		}
		if tc.Name == "" {
			tc.Name = fmt.Sprintf("tenant-%d", i)
		}
		if tc.SLOSearch == 0 {
			tc.SLOSearch = tc.W.Spec.SLOSearch
		}
	}
	if opts.Duration == 0 {
		opts.Duration = 120 * time.Second
	}
	if opts.Warmup == 0 {
		opts.Warmup = 20 * time.Second
	}
	if opts.Drain == 0 {
		opts.Drain = 120 * time.Second
	}
	if opts.Shape == (workload.Shape{}) {
		opts.Shape = workload.DefaultShape()
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 64
	}
	if opts.SchedulerInflight <= 0 {
		opts.SchedulerInflight = 32
	}
	if opts.SLOGen == 0 {
		slo, err := GenSLO(opts.Node, opts.Model, opts.Shape)
		if err != nil {
			return nil, err
		}
		opts.SLOGen = slo
	}
	if opts.Precision != nil {
		if err := opts.Precision.normalize(); err != nil {
			return nil, err
		}
	}
	if opts.Overload != nil {
		if opts.SharedQueue {
			return nil, fmt.Errorf("rag: overload control needs the fair scheduler's per-tenant queues; it cannot bound the shared-queue baseline")
		}
		if err := opts.Overload.normalize(); err != nil {
			return nil, err
		}
	}
	slos := make([]time.Duration, len(opts.Tenants))
	for i := range opts.Tenants {
		slos[i] = opts.Tenants[i].SLOSearch + opts.SLOGen
	}
	return slos, nil
}

// tenantDecision is the offline half of a multi-tenant run: per-tenant
// models, the joint allocation, and the materialized split plans.
type tenantDecision struct {
	alloc     tenant.Result
	plans     []*splitter.Plan
	cpuModels []costmodel.SearchModel
	mu0       float64
}

// decideTenants profiles every tenant, runs the joint allocator, and
// builds each tenant's split plan at its granted coverage.
func decideTenants(opts *MultiTenantOptions) (*tenantDecision, error) {
	n := opts.ProfileQueries
	if n <= 0 {
		n = 4000
	}
	mu0, err := bareCapacity(opts.Node, opts.Model, opts.Node.NumGPUs, opts.Shape)
	if err != nil {
		return nil, err
	}
	d := &tenantDecision{mu0: mu0}
	inputs := make([]tenant.Input, len(opts.Tenants))
	profs := make([]*profiler.AccessProfile, len(opts.Tenants))
	for i, tc := range opts.Tenants {
		prof, err := profiler.CollectAccess(tc.W, n, opts.Seed+1+101*uint64(i))
		if err != nil {
			return nil, fmt.Errorf("rag: tenant %s: %w", tc.Name, err)
		}
		est, err := hitrate.NewEstimator(prof)
		if err != nil {
			return nil, fmt.Errorf("rag: tenant %s: %w", tc.Name, err)
		}
		cm := costmodel.NewSearchModel(opts.Node.CPU, tc.W.Spec)
		perf, err := perfmodel.Fit(profiler.ProfileLatency(cm, profiler.DefaultBatches()))
		if err != nil {
			return nil, fmt.Errorf("rag: tenant %s: %w", tc.Name, err)
		}
		prefix := make([]int64, len(prof.Counts)+1)
		for k, c := range prof.HotOrder {
			prefix[k+1] = prefix[k] + tc.W.ClusterBytes(c)
		}
		inputs[i] = tenant.Input{
			Name: tc.Name, Tier: tc.Tier, Rate: tc.Rate,
			SLOSearch: tc.SLOSearch, Epsilon: opts.Epsilon,
			Perf: perf, Est: est, PrefixBytes: prefix,
		}
		profs[i] = prof
		d.cpuModels = append(d.cpuModels, cm)
	}
	ti := tenant.Inputs{
		Tenants: inputs,
		MemKV:   nodeKVBytes(opts.Node, opts.Model),
		Mu0:     mu0,
	}
	// This layer keeps zero-means-default semantics; the tenant package
	// itself honors explicit zeros through its pointer fields.
	if opts.FloorFrac != 0 {
		ti.FloorFrac = tenant.Float(opts.FloorFrac)
	}
	// Precision refinement: per-tenant recall deltas by hot rank feed the
	// allocator's upgrade pass. The allocator prices every upgrade at the
	// largest tenant ratio, so mixed-geometry lineups are billed
	// conservatively.
	var deltas [][]float64
	if opts.Precision != nil {
		deltas = make([][]float64, len(opts.Tenants))
		byRank := make([][]float64, len(opts.Tenants))
		var maxRatio float64
		for i, tc := range opts.Tenants {
			dl, err := profiler.SQRecallDeltas(profs[i])
			if err != nil {
				return nil, fmt.Errorf("rag: tenant %s: %w", tc.Name, err)
			}
			deltas[i] = dl
			byRank[i] = profs[i].RecallDeltasByRank(dl)
			if r := float64(tc.W.Spec.Dim) / float64(tc.W.Spec.CodeBytes); r > maxRatio {
				maxRatio = r
			}
		}
		ti.Precision = &tenant.PrecisionOptions{
			SQBytesRatio: maxRatio,
			RecallDelta:  byRank,
		}
	}
	alloc, err := tenant.JointAllocate(ti)
	if err != nil {
		return nil, err
	}
	d.alloc = alloc
	for i := range opts.Tenants {
		plan, err := splitter.Build(profs[i], alloc.Allocations[i].Rho, opts.Node.NumGPUs)
		if err != nil {
			return nil, fmt.Errorf("rag: tenant %s: %w", opts.Tenants[i].Name, err)
		}
		if opts.Precision != nil {
			if err := attachTenantPrecision(opts, profs[i], plan, deltas[i], alloc.Allocations[i], i); err != nil {
				return nil, fmt.Errorf("rag: tenant %s: %w", opts.Tenants[i].Name, err)
			}
		}
		d.plans = append(d.plans, plan)
	}
	return d, nil
}

// attachTenantPrecision materializes the joint allocator's codec
// decision on one tenant's plan: the NVMe demotion runs the shared
// coldest-suffix rule (partition.AssignPrecision with a zero SQ
// budget), then the allocator's chosen SQ set overlays it. The
// upgrade pass advances through each tenant's hot ranks in order,
// skipping zero-delta clusters without upgrading them, so the chosen
// set is exactly the first SQClusters positive-delta hot ranks.
func attachTenantPrecision(opts *MultiTenantOptions, prof *profiler.AccessProfile, plan *splitter.Plan, deltas []float64, al tenant.Allocation, idx int) error {
	ratio := float64(opts.Tenants[idx].W.Spec.Dim) / float64(opts.Tenants[idx].W.Spec.CodeBytes)
	prec, err := partition.AssignPrecision(partition.PrecisionInputs{
		Prof:          prof,
		Plan:          plan,
		RecallDeltas:  deltas,
		SQRatio:       ratio,
		SQBudgetBytes: 0,
		NVMeColdShare: opts.Precision.NVMeColdShare,
	})
	if err != nil {
		return err
	}
	left := al.SQClusters
	for _, c := range prof.HotOrder {
		if left == 0 {
			break
		}
		if !plan.IsHot(c) {
			break
		}
		if c >= len(deltas) || deltas[c] <= 0 {
			continue
		}
		prec.SQ[c] = true
		prec.SQClusters++
		prec.SQExtraBytes += int64(float64(prof.W.ClusterBytes(c)) * (ratio - 1))
		left--
	}
	// Planning-time gain estimate over the final SQ set (AssignPrecision
	// computed it before the overlay).
	var gain, work float64
	for c := range prec.SQ {
		w := float64(prof.Counts[c]) * float64(prof.W.ClusterBytes(c))
		work += w
		if prec.SQ[c] {
			gain += w * deltas[c]
		}
	}
	if work > 0 {
		prec.RecallGain = gain / work
	}
	plan.AttachPrecision(prec)
	return nil
}

// RunMultiTenant executes one multi-tenant evaluation point: N tenants
// with their own corpora, rates, and SLO tiers share one node. The
// joint allocator splits HBM across the tenants' GPU index caches
// (reserving KV for the aggregate generation rate), every tenant's
// arrivals multiplex onto one virtual timeline, and the FairScheduler
// meters admission into the shared retrieval engine — unless
// SharedQueue selects the unmetered baseline.
func RunMultiTenant(opts MultiTenantOptions) (*MultiTenantResult, error) {
	if opts.NetDelay < 0 {
		return nil, fmt.Errorf("rag: negative NetDelay %v", opts.NetDelay)
	}
	if opts.Replicas > 1 || opts.NetDelay > 0 || opts.Workers > 1 {
		return runMultiTenantSharded(opts)
	}
	slos, err := opts.normalizeMT()
	if err != nil {
		return nil, err
	}
	d, err := decideTenants(&opts)
	if err != nil {
		return nil, err
	}

	// One shared set of GPU states: every tenant's shard bytes stack up
	// on the same devices, shrinking the KV pool the LLM instances see.
	states := gpu.NewStates(opts.Node)
	for _, plan := range d.plans {
		for g := range plan.ShardBytes {
			if g < len(states) {
				states[g].ShardBytes += plan.ShardBytes[g]
			}
		}
	}
	gm := costmodel.GPUScanModel{GPU: opts.Node.GPU}
	slots := make([]retrieval.TenantSlot, len(opts.Tenants))
	for i, tc := range opts.Tenants {
		slots[i] = retrieval.TenantSlot{W: tc.W, Plan: d.plans[i], CPUModel: d.cpuModels[i], Priority: tc.Tier.Priority()}
	}

	var sched *serve.FairScheduler
	if !opts.SharedQueue {
		classes := make([]serve.TenantClass, len(opts.Tenants))
		for i, tc := range opts.Tenants {
			classes[i] = serve.TenantClass{Weight: tc.Tier.Weight(), Priority: tc.Tier.Priority()}
		}
		sched, err = serve.NewFairScheduler(classes, opts.SchedulerInflight)
		if err != nil {
			return nil, err
		}
	}

	var sim des.Sim
	pool := &workload.Pool{}
	coll := serve.NewCollector()
	retr := serve.RetrievalStage(func(forward serve.Sink) (retrieval.Engine, error) {
		// The shared config carries no Workload or CPUModel: the engine
		// prices every stage per tenant slot.
		return retrieval.NewMultiTenant(retrieval.Config{
			Sim:      &sim,
			Forward:  forward,
			MaxBatch: opts.MaxBatch,
			NVMe:     opts.Node.NVMe,
		}, slots, states, gm)
	})
	gen := serve.GenerationStage(func() (*llm.Cluster, error) {
		return llm.NewCluster(&sim, opts.Node, opts.Model, states, llm.DefaultEngineConfig())
	})
	var rig *overloadRig
	if opts.Overload != nil {
		budgets, bias := opts.overloadBudgets()
		rig, err = rigOverload(&sim, opts.Overload, sched, budgets, bias,
			rejectSink(coll.Abandon, pool.Release))
		if err != nil {
			return nil, err
		}
	}
	builders := []serve.Builder{serve.Admit(coll)}
	if sched != nil {
		builders = append(builders, serve.Scheduled(sched))
	}
	builders = append(builders, retr, gen)
	terminal := teeObserve(rig, coll.Done, pool.Release)
	pipe, err := serve.Compose(&sim, terminal, builders...)
	if err != nil {
		return nil, err
	}
	if sched != nil {
		// The scheduler meters the TTFT-relevant section — retrieval
		// queue, search, LLM wait, prefill — releasing the slot at first
		// token rather than at completion: decode proceeds concurrently
		// for many requests inside the LLM and must not hold admission
		// slots, while anything queued beyond the bound would sit in
		// downstream FIFO queues where tier priority cannot act. The
		// completion sink installed by Compose is re-installed unchanged.
		pipe.Generation().Cluster.SetCallbacks(sched.Release, terminal)
	}

	sec := beginServeSection()
	for i, tc := range opts.Tenants {
		seed := opts.Seed + 7 + 13*uint64(i)
		var arr *serve.Arrivals
		if tc.RateSchedule != nil {
			arr = serve.NewScheduledArrivals(tc.W, tc.RateSchedule, opts.Shape, seed)
		} else {
			arr = serve.NewArrivals(tc.W, tc.Rate, opts.Shape, seed)
		}
		arr.SetTenant(i)
		arr.SetPool(pool)
		arr.Start(&sim, des.Time(opts.Duration), pipe.Submit)
	}
	sim.RunUntil(des.Time(opts.Duration + opts.Drain))
	wall, allocs, bytes := sec.end()

	// Per-tenant summaries against each tenant's own combined SLO.
	// Records partition by tenant in arrival order, preserving the
	// aggregation order of the pre-record implementation bit for bit.
	all := coll.Requests()
	byTenant := make([][]workload.Request, len(opts.Tenants))
	for _, req := range all {
		t := req.Tenant
		if t < 0 || t >= len(byTenant) {
			t = 0
		}
		byTenant[t] = append(byTenant[t], req)
	}
	res := &MultiTenantResult{
		ServeWall: wall, ServeAllocs: allocs, ServeBytes: bytes,
		Mu0:         d.mu0,
		MuLLM:       d.alloc.MuLLM,
		BudgetBytes: d.alloc.BudgetBytes,
		UsedBytes:   d.alloc.UsedBytes,
		SharedQueue: opts.SharedQueue,
		Generated:   coll.Admitted(),
		Requests:    all,
		AvgBatch:    pipe.Retrieval().AvgBatch(),
		LLMGPUs:     pipe.Generation().GPUs(opts.Model.TP),
	}
	if g, ok := pipe.Retrieval().Engine.(retrieval.RecallReporter); ok {
		res.RecallGain = g.RecallGain()
	}
	atts := make([]float64, len(opts.Tenants))
	var okWeighted float64
	var total int
	for i, tc := range opts.Tenants {
		sum := metrics.Summarize(byTenant[i], slos[i], des.Time(opts.Warmup))
		tr := TenantResult{
			Name: tc.Name, Tier: tc.Tier, Rate: tc.Rate,
			SLOTotal: slos[i], Alloc: d.alloc.Allocations[i], Summary: sum,
		}
		if sched != nil {
			tr.PeakQueue = sched.PeakQueue(i)
			if rig != nil {
				tr.Rejected = sched.Rejected(i)
			}
		}
		res.Tenants = append(res.Tenants, tr)
		atts[i] = sum.Attainment
		okWeighted += sum.Attainment * float64(sum.N)
		total += sum.N
	}
	res.Fairness = metrics.JainIndex(atts)
	if total > 0 {
		res.Attainment = okWeighted / float64(total)
	}
	if rig != nil {
		res.Overload = rig.report(opts.Overload, len(opts.Tenants),
			des.Time(opts.Duration+opts.Drain), opts.Duration+opts.Drain)
	}
	return res, nil
}
