package rag

import (
	"fmt"
	"time"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/partition"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/retrieval"
	"vectorliterag/internal/rng"
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

	// SharedQueue disables the FairScheduler — the baseline where every
	// tenant's arrivals share one unmetered queue into the retrieval
	// engine. The joint allocation is unchanged, isolating what
	// scheduling alone buys.
	SharedQueue bool
	// Epsilon is the queuing factor of the joint allocator (default 1).
	Epsilon float64
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
	// behind a front-end router, as a fleet. Each node gets the full
	// tenant lineup with its joint HBM allocation sized for a 1/R
	// traffic share.
	Replicas int
	// Policy picks the router policy for replicated runs (default
	// least-loaded).
	Policy serve.Policy
	// Workers and NetDelay mirror Options: worker goroutines for the
	// replica timelines (wall-clock only; 0 = one per GOMAXPROCS) and the
	// modeled front↔replica transit. Setting either (or Replicas > 1)
	// runs the fleet — link-free with one replica or round-robin, on the
	// sharded exchange otherwise; NetDelay defaults to DefaultNetDelay.
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
// the per-tenant combined SLO budgets. Defaults land on private copies
// of the tenant lineup and the refinement options, never in the
// caller's memory.
func (opts *MultiTenantOptions) normalizeMT() (slos []time.Duration, err error) {
	if len(opts.Tenants) == 0 {
		return nil, fmt.Errorf("rag: no tenants")
	}
	if err := checkDeployment(opts.Node, opts.Model); err != nil {
		return nil, err
	}
	opts.Tenants = append([]TenantConfig(nil), opts.Tenants...)
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
	if opts.SLOGen == 0 {
		slo, err := GenSLO(opts.Node, opts.Model, opts.Shape)
		if err != nil {
			return nil, err
		}
		opts.SLOGen = slo
	}
	if opts.Precision, err = opts.Precision.normalized(); err != nil {
		return nil, err
	}
	if opts.Overload, err = opts.Overload.normalized(); err != nil {
		return nil, err
	}
	slos = make([]time.Duration, len(opts.Tenants))
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
	mu0, err := bareCapacity(opts.Node, opts.Model, opts.Node.NumGPUs, opts.Shape)
	if err != nil {
		return nil, err
	}
	d := &tenantDecision{mu0: mu0}
	inputs := make([]tenant.Input, len(opts.Tenants))
	profs := make([]*profiler.AccessProfile, len(opts.Tenants))
	for i, tc := range opts.Tenants {
		prof, err := profiler.CollectAccess(tc.W, profileSample(opts.ProfileQueries), opts.Seed+1+101*uint64(i))
		if err != nil {
			return nil, fmt.Errorf("rag: tenant %s: %w", tc.Name, err)
		}
		cm := costmodel.NewSearchModel(opts.Node.CPU, tc.W.Spec)
		est, perf, err := fitModels(prof, cm)
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

// tenantSpec is the node of a multi-tenant run: every tenant's plan
// stacked on one set of GPUs, the multi-tenant engine pricing each
// stage per tenant slot (the shared engine config carries no Workload
// or CPUModel), and — unless SharedQueue — the FairScheduler over the
// tenants' tiers, with each tenant's own SLOs as overload budgets.
func tenantSpec(opts *MultiTenantOptions, d *tenantDecision) *nodeSpec {
	s := &nodeSpec{
		node: opts.Node, model: opts.Model, plans: d.plans,
		cfg: retrieval.Config{NVMe: opts.Node.NVMe},
	}
	slots := make([]retrieval.TenantSlot, len(opts.Tenants))
	sloSearch := make([]time.Duration, len(opts.Tenants))
	for i, tc := range opts.Tenants {
		slots[i] = retrieval.TenantSlot{W: tc.W, Plan: d.plans[i], CPUModel: d.cpuModels[i], Priority: tc.Tier.Priority()}
		sloSearch[i] = tc.SLOSearch
		if !opts.SharedQueue {
			s.classes = append(s.classes, serve.TenantClass{Weight: tc.Tier.Weight(), Priority: tc.Tier.Priority()})
			s.bias = append(s.bias, tc.Tier.BrownoutBias())
		}
	}
	s.engine = func(cfg retrieval.Config, gpus []*gpu.State) (retrieval.Engine, error) {
		return retrieval.NewMultiTenant(cfg, slots, gpus, costmodel.GPUScanModel{GPU: opts.Node.GPU})
	}
	if opts.Overload != nil {
		s.overload = opts.Overload
		s.budgets = stageBudgets(opts.Overload, sloSearch, opts.SLOGen)
	}
	return s
}

// RunMultiTenant executes one multi-tenant evaluation point: N tenants
// with their own corpora, rates, and SLO tiers share one node. The
// joint allocator splits HBM across the tenants' GPU index caches
// (reserving KV for the aggregate generation rate), every tenant's
// arrivals multiplex onto one virtual timeline, and the FairScheduler
// meters admission into the shared retrieval engine — unless
// SharedQueue selects the unmetered baseline.
//
// Replicas > 1 (or a NetDelay, or Workers > 1) serves the lineup on R
// identical multi-tenant nodes as a fleet behind one front, each with
// its own GPU states, retrieval engine, LLM cluster, and fair
// scheduler. The joint HBM allocation is made once per *replica* — each
// node carries every tenant's index slice sized for its 1/R share of
// that tenant's traffic — and reported rates stay nominal
// (cluster-wide).
func RunMultiTenant(opts MultiTenantOptions) (*MultiTenantResult, error) {
	return runMultiTenant(opts, newFleet)
}

func runMultiTenant(opts MultiTenantOptions, build fleetBuilder) (*MultiTenantResult, error) {
	if opts.NetDelay < 0 {
		return nil, fmt.Errorf("rag: negative NetDelay %v", opts.NetDelay)
	}
	if err := reject(when(opts.SharedQueue, fSharedQueue)|when(opts.Overload != nil, fOverload), ""); err != nil {
		return nil, err
	}
	sharded := opts.Replicas > 1 || opts.NetDelay > 0 || opts.Workers > 1
	replicas := max(opts.Replicas, 1)
	if sharded && opts.NetDelay == 0 {
		opts.NetDelay = DefaultNetDelay
	}
	slos, err := opts.normalizeMT()
	if err != nil {
		return nil, err
	}
	// Size each node's allocation for its share of the traffic: the
	// allocator sees per-replica rates, every other input unchanged.
	scaled := opts
	scaled.Tenants = append([]TenantConfig(nil), opts.Tenants...)
	for i := range scaled.Tenants {
		scaled.Tenants[i].Rate /= float64(replicas)
	}
	d, err := decideTenants(&scaled)
	if err != nil {
		return nil, err
	}
	spec := tenantSpec(&opts, d)

	// startTenants starts every tenant's arrival source on a front
	// simulator, feeding submit; seed is the engine's pinned seed rule.
	startTenants := func(front *des.Sim, pool *workload.Pool, submit serve.Sink, seed func(i uint64) uint64) {
		for i, tc := range opts.Tenants {
			arr := arrivalsFor(tc.W, tc.Rate, tc.RateSchedule, opts.Shape, seed(uint64(i)), pool)
			arr.SetTenant(i)
			arr.Start(front, des.Time(opts.Duration), submit)
		}
	}
	expect := 0
	for _, tc := range opts.Tenants {
		expect += expectedArrivals(tc.Rate, tc.RateSchedule, opts.Duration)
	}
	res := &MultiTenantResult{SharedQueue: opts.SharedQueue}
	var records []workload.Request
	var nodes []*node
	weights := []int{1}
	if sharded {
		f, err := build(spec, replicas, opts.Policy, opts.NetDelay, expect)
		if err != nil {
			return nil, err
		}
		// Stream splitting makes the front's multiplexed order a pure
		// function of (Seed, tenant index), independent of worker count.
		startTenants(f.FrontSim(), f.pool, f.Submit, func(i uint64) uint64 { return rng.Stream(opts.Seed+7, i) })
		records, weights, res.Workers = f.run(des.Time(opts.Duration+opts.Drain), opts.Workers, nil)
		nodes = f.nodes
		res.Replicas, res.NetDelay, res.PerReplicaSubmitted = replicas, opts.NetDelay, weights
	} else {
		var sim des.Sim
		pool := &workload.Pool{}
		coll := serve.NewCollector()
		coll.Reserve(expect)
		n, err := spec.build(&sim, coll, nil, pool.Release)
		if err != nil {
			return nil, err
		}
		startTenants(&sim, pool, n.pipe.Submit, func(i uint64) uint64 { return opts.Seed + 7 + 13*i })
		sim.RunUntil(des.Time(opts.Duration + opts.Drain))
		records, nodes = coll.Requests(), []*node{n}
	}
	tallyTenants(res, &opts, slos, d, records, nodes, weights)
	return res, nil
}

// tallyTenants fills a multi-tenant result from what the run left
// behind: the allocation, the global record set (arrival order), the
// built nodes and how much traffic each took.
func tallyTenants(res *MultiTenantResult, opts *MultiTenantOptions, slos []time.Duration, d *tenantDecision, records []workload.Request, nodes []*node, weights []int) {
	res.Mu0 = d.mu0
	res.MuLLM = d.alloc.MuLLM
	res.BudgetBytes = d.alloc.BudgetBytes
	res.UsedBytes = d.alloc.UsedBytes
	res.Generated = len(records)
	res.Requests = records
	_, res.AvgBatch, res.RecallGain, res.LLMGPUs = nodeRows(nodes, weights, opts.Model.TP)

	// Per-tenant summaries against each tenant's own combined SLO.
	// Records partition by tenant in arrival order.
	byTenant := make([][]workload.Request, len(opts.Tenants))
	for _, req := range records {
		t := req.Tenant
		if t < 0 || t >= len(byTenant) {
			t = 0
		}
		byTenant[t] = append(byTenant[t], req)
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
		for _, n := range nodes {
			if n.sched == nil {
				continue
			}
			tr.PeakQueue = max(tr.PeakQueue, n.sched.PeakQueue(i))
			if opts.Overload != nil {
				tr.Rejected += n.sched.Rejected(i)
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
	if opts.Overload != nil {
		res.Overload = overloadReport(opts.Overload, nodes, len(opts.Tenants), opts.Duration+opts.Drain)
	}
}
