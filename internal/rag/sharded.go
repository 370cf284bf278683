package rag

import (
	"runtime"
	"time"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/des"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/retrieval"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/workload"
)

// DefaultNetDelay is the modeled front-end↔replica network transit a
// run gets when it asks for parallelism (Workers > 1) without choosing
// a NetDelay explicitly. One millisecond is a realistic same-datacenter
// RTT half and, as the conservative lookahead, wide enough that shards
// execute thousands of events per synchronization window.
const DefaultNetDelay = time.Millisecond

// shardWorkers resolves the Workers option for a group of the given
// shard count: zero or negative means one worker per P — GOMAXPROCS,
// not the core count, because workers meet at a barrier every window
// and only spin against each other when they outnumber the Ps of a
// CPU-limited container — and there is never more than one per shard.
func shardWorkers(n, shards int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return min(n, shards)
}

// mergeShardRecords assembles the global per-request record set of a
// sharded run in front arrival order. Every routed request carries its
// global arrival index as its ID (the Exchange restamps at Submit), so
// per-replica collector records scatter straight into one slice;
// requests still in network transit when the clock stopped never
// reached a collector and are snapshotted from the wire — admitted but
// unserved, exactly how the single-timeline collector reported a
// request stuck between router and replica at the deadline.
func mergeShardRecords(x *serve.Exchange, repColls []*serve.Collector) []workload.Request {
	records := make([]workload.Request, x.Arrivals())
	for _, rc := range repColls {
		for _, rec := range rc.Requests() {
			if rec.ID >= 0 && rec.ID < len(records) {
				records[rec.ID] = rec
			}
		}
	}
	x.DrainArrivals(func(req *workload.Request) {
		if req.ID >= 0 && req.ID < len(records) {
			records[req.ID] = *req
		}
	})
	return records
}

// runClusterSharded is RunCluster's parallel engine: the front end
// (arrivals, drift, routing) and every replica pipeline run on separate
// shard timelines coupled only by request and completion-notice links
// of NetDelay, executed by the conservative shard group. The merged
// schedule is a pure function of the options — bit-identical for any
// Workers value — but it is a *different* (more physical) model than
// the NetDelay==0 single-timeline path: requests spend one NetDelay on
// the wire each way, and the least-loaded policy reads gauges that are
// one notice delay stale.
func runClusterSharded(opts Options, replicas int, policy serve.Policy) (*ClusterResult, error) {
	sloTotal, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	prof, err := profileFor(opts)
	if err != nil {
		return nil, err
	}
	cpuModel := costmodel.NewSearchModel(opts.Node.CPU, opts.W.Spec)
	d, err := decide(opts, prof, cpuModel)
	if err != nil {
		return nil, err
	}

	pool := &workload.Pool{}
	x, err := serve.NewExchange(policy, replicas, opts.NetDelay, opts.NetDelay, pool)
	if err != nil {
		return nil, err
	}
	repColls := make([]*serve.Collector, replicas)
	pipes := make([]*serve.Pipeline, replicas)
	for i := 0; i < replicas; i++ {
		sim := x.ReplicaSim(i)
		repColl := serve.NewCollector()
		retr, gen := stageBuilders(sim, opts, d, cpuModel, nil)
		// Terminal: snapshot the record on the replica, then ship the
		// request home — the notice must come last because ownership
		// moves back to the front with it.
		pipe, err := serve.Compose(sim,
			serve.Tee(repColl.Done, x.NoticeSink(i)),
			serve.Admit(repColl), retr, gen)
		if err != nil {
			return nil, err
		}
		x.BindReplica(i, pipe.Submit)
		repColls[i] = repColl
		pipes[i] = pipe
	}
	// Drift rotates popularity on the front timeline, where the only
	// reader (arrival sampling) lives; replica shards never touch the
	// rotation, so the trace stays race-free under parallel execution.
	defer installDrift(x.FrontSim(), opts)()
	arr := arrivalsFor(opts)
	arr.SetPool(pool)
	workers := shardWorkers(opts.Workers, replicas+1)
	sec := beginServeSection()
	arr.Start(x.FrontSim(), des.Time(opts.Duration), x.Submit)
	x.Run(des.Time(opts.Duration+opts.Drain), workers)
	wall, allocs, bytes := sec.end()

	records := mergeShardRecords(x, repColls)
	res := &ClusterResult{
		Result: Result{
			Kind: opts.Kind, Rate: opts.Rate, SLOTotal: sloTotal,
			ServeWall: wall, ServeAllocs: allocs, ServeBytes: bytes,
			Rho: d.rho, PlanBytes: d.planBytes, Mu0: d.mu0, Partition: d.partition,
			Requests:  records,
			Generated: x.Arrivals(),
			Summary:   metrics.Summarize(records, sloTotal, des.Time(opts.Warmup)),
		},
		Policy:   policy,
		Workers:  workers,
		NetDelay: opts.NetDelay,
	}
	var batchSum, gainSum float64
	for i, pipe := range pipes {
		rr := ReplicaResult{
			Submitted: x.Submitted(i),
			Summary:   repColls[i].Summarize(sloTotal, des.Time(opts.Warmup)),
			AvgBatch:  pipe.Retrieval().AvgBatch(),
			LLMGPUs:   pipe.Generation().GPUs(opts.Model.TP),
		}
		res.PerReplica = append(res.PerReplica, rr)
		res.LLMGPUs += rr.LLMGPUs
		batchSum += rr.AvgBatch * float64(rr.Submitted)
		if g, ok := pipe.Retrieval().Engine.(retrieval.RecallReporter); ok {
			gainSum += g.RecallGain() * float64(rr.Submitted)
		}
	}
	if res.Generated > 0 {
		res.AvgBatch = batchSum / float64(res.Generated)
		res.RecallGain = gainSum / float64(res.Generated)
	}
	if d.plan != nil && d.plan.Prec != nil {
		res.SQClusters = d.plan.Prec.SQClusters
		res.NVMeClusters = d.plan.Prec.NVMeClusters
	}
	return res, nil
}

// runMultiTenantSharded is RunMultiTenant's replicated engine: R
// identical multi-tenant nodes behind the sharded exchange, each with
// its own GPU states, retrieval engine, LLM cluster, and fair
// scheduler. The joint HBM allocation is made once per *replica* — each
// node carries every tenant's index slice sized for its 1/R share of
// that tenant's traffic — and reported rates stay nominal
// (cluster-wide). Per-tenant arrival streams are seeded by pinned
// stream splitting so the front's multiplexed order is a pure function
// of (Seed, tenant index), independent of worker count.
func runMultiTenantSharded(opts MultiTenantOptions) (*MultiTenantResult, error) {
	replicas := opts.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	if opts.NetDelay == 0 {
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

	pool := &workload.Pool{}
	x, err := serve.NewExchange(opts.Policy, replicas, opts.NetDelay, opts.NetDelay, pool)
	if err != nil {
		return nil, err
	}
	gm := costmodel.GPUScanModel{GPU: opts.Node.GPU}
	slots := make([]retrieval.TenantSlot, len(opts.Tenants))
	for i, tc := range opts.Tenants {
		slots[i] = retrieval.TenantSlot{W: tc.W, Plan: d.plans[i], CPUModel: d.cpuModels[i], Priority: tc.Tier.Priority()}
	}
	repColls := make([]*serve.Collector, replicas)
	scheds := make([]*serve.FairScheduler, replicas)
	rigs := make([]*overloadRig, replicas)
	pipes := make([]*serve.Pipeline, replicas)
	for r := 0; r < replicas; r++ {
		// Each replica node stacks every tenant's shard bytes on its own
		// fresh GPU states, shrinking the KV pool its LLM instances see —
		// the same layout the single-node path builds, instantiated R
		// times.
		states := gpu.NewStates(opts.Node)
		for _, plan := range d.plans {
			for g := range plan.ShardBytes {
				if g < len(states) {
					states[g].ShardBytes += plan.ShardBytes[g]
				}
			}
		}
		sim := x.ReplicaSim(r)
		retr := serve.RetrievalStage(func(forward serve.Sink) (retrieval.Engine, error) {
			return retrieval.NewMultiTenant(retrieval.Config{
				Sim:      sim,
				Forward:  forward,
				MaxBatch: opts.MaxBatch,
				NVMe:     opts.Node.NVMe,
			}, slots, states, gm)
		})
		gen := serve.GenerationStage(func() (*llm.Cluster, error) {
			return llm.NewCluster(sim, opts.Node, opts.Model, states, llm.DefaultEngineConfig())
		})
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
		repColl := serve.NewCollector()
		// Overload control is per replica: each node's controller sees
		// only its own timeline, so the merged schedule stays a pure
		// function of the options for any worker count. A rejected
		// request freezes its record on this replica's collector and
		// ships home with the completion notice (ownership moves with
		// it, exactly like a served request).
		var rig *overloadRig
		if opts.Overload != nil {
			budgets, bias := opts.overloadBudgets()
			rig, err = rigOverload(sim, opts.Overload, sched, budgets, bias,
				rejectSink(repColl.Abandon, x.NoticeSink(r)))
			if err != nil {
				return nil, err
			}
		}
		builders := []serve.Builder{serve.Admit(repColl)}
		if sched != nil {
			builders = append(builders, serve.Scheduled(sched))
		}
		builders = append(builders, retr, gen)
		terminal := teeObserve(rig, repColl.Done, x.NoticeSink(r))
		pipe, err := serve.Compose(sim, terminal, builders...)
		if err != nil {
			return nil, err
		}
		if sched != nil {
			// Same metering as the single-node path: the slot releases at
			// first token, completion re-installs the terminal sink.
			pipe.Generation().Cluster.SetCallbacks(sched.Release, terminal)
		}
		x.BindReplica(r, pipe.Submit)
		repColls[r] = repColl
		scheds[r] = sched
		rigs[r] = rig
		pipes[r] = pipe
	}

	workers := shardWorkers(opts.Workers, replicas+1)
	front := x.FrontSim()
	sec := beginServeSection()
	for i, tc := range opts.Tenants {
		seed := rng.Stream(opts.Seed+7, uint64(i))
		var arr *serve.Arrivals
		if tc.RateSchedule != nil {
			arr = serve.NewScheduledArrivals(tc.W, tc.RateSchedule, opts.Shape, seed)
		} else {
			arr = serve.NewArrivals(tc.W, tc.Rate, opts.Shape, seed)
		}
		arr.SetTenant(i)
		arr.SetPool(pool)
		arr.Start(front, des.Time(opts.Duration), x.Submit)
	}
	x.Run(des.Time(opts.Duration+opts.Drain), workers)
	wall, allocs, bytes := sec.end()

	records := mergeShardRecords(x, repColls)
	byTenant := make([][]workload.Request, len(opts.Tenants))
	for _, req := range records {
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
		Generated:   x.Arrivals(),
		Requests:    records,
		Replicas:    replicas,
		Workers:     workers,
		NetDelay:    opts.NetDelay,
	}
	var batchSum, gainSum float64
	for r, pipe := range pipes {
		sub := x.Submitted(r)
		res.PerReplicaSubmitted = append(res.PerReplicaSubmitted, sub)
		res.LLMGPUs += pipe.Generation().GPUs(opts.Model.TP)
		batchSum += pipe.Retrieval().AvgBatch() * float64(sub)
		if g, ok := pipe.Retrieval().Engine.(retrieval.RecallReporter); ok {
			gainSum += g.RecallGain() * float64(sub)
		}
	}
	if res.Generated > 0 {
		res.AvgBatch = batchSum / float64(res.Generated)
		res.RecallGain = gainSum / float64(res.Generated)
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
		for _, sched := range scheds {
			if sched == nil {
				continue
			}
			if sched.PeakQueue(i) > tr.PeakQueue {
				tr.PeakQueue = sched.PeakQueue(i)
			}
			if opts.Overload != nil {
				tr.Rejected += sched.Rejected(i)
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
		res.Overload = mergeOverloadReports(opts.Overload, rigs, len(opts.Tenants),
			des.Time(opts.Duration+opts.Drain), opts.Duration+opts.Drain)
	}
	return res, nil
}
