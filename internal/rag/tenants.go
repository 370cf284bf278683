package rag

import (
	"fmt"
	"time"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/gpu"
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

// tenantDecision is the offline half of a multi-tenant run: the joint
// allocation and, per tenant, the corpus step's profile, models and
// placed plan.
type tenantDecision struct {
	alloc   tenant.Result
	corpora []*Decision
	mu0     float64
}

// decideTenants runs the per-corpus step a single corpus takes on every
// tenant, with the joint allocator in Algorithm 1's place: profile and
// fit each tenant, allocate, then place each plan at its granted
// coverage. Each node's allocation is sized for its share of the
// traffic: the allocator sees every tenant's rate divided by the node
// count, every other input unchanged.
func decideTenants(opts *Options, nodes int) (*tenantDecision, error) {
	mu0, err := BareCapacity(opts.Node, opts.Model, opts.Shape)
	if err != nil {
		return nil, err
	}
	td := &tenantDecision{mu0: mu0}
	in := tenant.Inputs{MemKV: opts.Model.NodeKVBytes(opts.Node), Mu0: mu0}
	// Precision: per-tenant recall deltas by hot rank feed the allocator's
	// upgrade pass, which prices every upgrade at the largest tenant
	// ratio, so mixed-geometry lineups are billed conservatively.
	deltas := make([][]float64, len(opts.Tenants))
	if opts.Precision != nil {
		in.Precision = &tenant.PrecisionOptions{}
	}
	for i, tc := range opts.Tenants {
		d := &Decision{Kind: VLiteRAG}
		d.prof, err = collect(opts, tc.W, opts.Seed+1+101*uint64(i))
		if err == nil {
			d.est, d.perf, err = fitModels(d.prof, opts.Node.CPU)
		}
		if err == nil && in.Precision != nil {
			deltas[i], err = profiler.SQRecallDeltas(d.prof)
			in.Precision.RecallDelta = append(in.Precision.RecallDelta, d.prof.RecallDeltasByRank(deltas[i]))
			in.Precision.SQBytesRatio = max(in.Precision.SQBytesRatio, splitter.SQRatio(tc.W.Spec))
		}
		if err != nil {
			return nil, fmt.Errorf("rag: tenant %s: %w", tc.Name, err)
		}
		in.Tenants = append(in.Tenants, tenant.Input{
			Name: tc.Name, Tier: tc.Tier, Rate: tc.Rate / float64(nodes),
			SLOSearch: tc.SLOSearch, Epsilon: opts.Epsilon,
			Perf: d.perf, Est: d.est, PrefixBytes: splitter.PrefixBytes(d.prof),
		})
		td.corpora = append(td.corpora, d)
	}
	if td.alloc, err = tenant.JointAllocate(in); err != nil {
		return nil, err
	}
	for i, d := range td.corpora {
		var refine func(partition.PrecisionInputs) (*splitter.Precision, error)
		if opts.Precision != nil {
			refine = func(pi partition.PrecisionInputs) (*splitter.Precision, error) {
				pi.RecallDeltas = deltas[i]
				return partition.MaterializePrecision(pi, upgraded(pi, td.alloc.Allocations[i].SQClusters))
			}
		}
		if err := d.place(opts, td.alloc.Allocations[i].Rho, refine); err != nil {
			return nil, fmt.Errorf("rag: tenant %s: %w", opts.Tenants[i].Name, err)
		}
	}
	return td, nil
}

// upgraded is the SQ8 set the joint allocator bought one tenant. Its
// upgrade pass walks the tenant's hot ranks in order, skipping
// zero-delta clusters, so the set is the first n positive-delta
// clusters of the placed hot set in hot order.
func upgraded(in partition.PrecisionInputs, n int) (sq []int) {
	for _, c := range in.Prof.HotOrder {
		if len(sq) == n || !in.Plan.IsHot(c) {
			break
		}
		if c < len(in.RecallDeltas) && in.RecallDeltas[c] > 0 {
			sq = append(sq, c)
		}
	}
	return sq
}

// tenantSpec is the node of a multi-tenant run: every tenant's plan
// stacked on one set of GPUs, the multi-tenant engine pricing each
// stage per tenant slot (the shared engine config carries no Workload
// or CPUModel; every replica reads the slots' one set of price tables),
// and — unless SharedQueue — the FairScheduler over the
// tenants' tiers, with each tenant's own SLOs as overload budgets.
func tenantSpec(opts *Options, d *tenantDecision) *nodeSpec {
	s := &nodeSpec{node: opts.Node, model: opts.Model, cfg: retrieval.Config{NVMe: opts.Node.NVMe}}
	slots := make([]retrieval.TenantSlot, len(opts.Tenants))
	sloSearch := make([]time.Duration, len(opts.Tenants))
	for i, tc := range opts.Tenants {
		c := d.corpora[i]
		s.plans = append(s.plans, c.Plan)
		slots[i] = retrieval.TenantSlot{W: tc.W, Plan: c.Plan, CPUModel: costmodel.NewSearchModel(opts.Node.CPU, tc.W.Spec), Priority: tc.Tier.Priority(),
			Prices: retrieval.NewPriceTable(tc.W, c.Plan)}
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

// runTenants serves a lineup: N tenants with their own corpora, rates
// and SLO tiers share every node. The joint allocator splits HBM across
// the tenants' GPU index caches (reserving KV for the aggregate
// generation rate), every tenant's arrivals multiplex onto one front,
// and the FairScheduler meters admission into the shared retrieval
// engine — unless SharedQueue selects the unmetered baseline. Reported
// rates stay nominal (cluster-wide) on a routed lineup.
func runTenants(opts *Options, build fleetBuilder) (*Result, error) {
	d, err := decideTenants(opts, max(opts.Replicas, 1))
	if err != nil {
		return nil, err
	}
	c := &corpus{spec: tenantSpec(opts, d), feed: func(front *des.Sim, alloc func() *workload.Request, submit serve.Sink) func() {
		for i, tc := range opts.Tenants {
			// On a fleet, stream splitting makes the front's multiplexed
			// order a pure function of (Seed, tenant index), independent of
			// worker count; one node keeps its own pinned seed rule.
			seed := opts.Seed + 7 + 13*uint64(i)
			if opts.Replicas > 0 {
				seed = rng.Stream(opts.Seed+7, uint64(i))
			}
			arr := arrivalsFor(tc.W, tc.Rate, tc.RateSchedule, opts.Shape, seed, alloc)
			arr.SetTenant(i)
			arr.Start(front, des.Time(opts.Duration), submit)
		}
		return func() {}
	}}
	for _, tc := range opts.Tenants {
		c.expect += expectedArrivals(tc.Rate, tc.RateSchedule, opts.Duration)
	}
	var s *served
	if opts.Replicas > 0 {
		s, err = c.fleet(opts, build)
	} else {
		s, err = c.node(new(des.Sim), opts, nil, nil)
	}
	if err != nil {
		return nil, err
	}
	return tallyTenants(opts, d, s), nil
}

// tallyTenants turns what a lineup's topology served into its Result:
// the allocation, and per-tenant summaries against each tenant's own
// combined SLO.
func tallyTenants(opts *Options, d *tenantDecision, s *served) *Result {
	res := &Result{Mu0: d.mu0, MuLLM: d.alloc.MuLLM, BudgetBytes: d.alloc.BudgetBytes, UsedBytes: d.alloc.UsedBytes}
	s.tally(opts, res)
	// Records partition by tenant in arrival order, as ID lists into the
	// record array. A list is never nil: SummarizeIDs reads nil as every
	// record.
	byTenant := make([][]int32, len(opts.Tenants))
	for t := range byTenant {
		byTenant[t] = []int32{}
	}
	for i := range s.records {
		t := s.records[i].Tenant
		if t < 0 || t >= len(byTenant) {
			t = 0
		}
		byTenant[t] = append(byTenant[t], int32(i))
	}
	atts := make([]float64, len(opts.Tenants))
	var okWeighted float64
	var total int
	var agg metrics.Summarizer
	for i, tc := range opts.Tenants {
		slo := tc.SLOSearch + opts.SLOGen
		sum := agg.SummarizeIDs(s.records, byTenant[i], slo, des.Time(opts.Warmup))
		tr := TenantResult{
			Name: tc.Name, Tier: tc.Tier, Rate: tc.Rate,
			SLOTotal: slo, Alloc: d.alloc.Allocations[i], Summary: sum,
		}
		for _, n := range s.nodes {
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
	return res
}
