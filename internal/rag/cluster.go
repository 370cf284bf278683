package rag

import (
	"fmt"
	"runtime"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/fault"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/retrieval"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/workload"
)

// ReplicaResult reports one replica's share of a cluster run.
type ReplicaResult struct {
	Submitted int
	Summary   metrics.Summary
	AvgBatch  float64
	LLMGPUs   int
}

// ClusterResult is one multi-replica evaluation point: the aggregate
// metrics over every request plus the per-replica breakdown.
type ClusterResult struct {
	Result
	Policy     serve.Policy
	PerReplica []ReplicaResult
	// Workers and NetDelay echo the execution configuration of a sharded
	// run (zero on the single-timeline path): how many worker goroutines
	// executed the shards — a wall-clock knob only, never visible in the
	// schedule — and the modeled network transit that doubled as the
	// conservative lookahead.
	Workers  int
	NetDelay time.Duration
	// Resilience reports the failure-handling addendum of a resilient
	// run (nil on fault-free runs, which never build the resilient
	// router).
	Resilience *ResilienceReport
}

// ResilienceReport is the failure-handling addendum of a resilient
// cluster run: what the storm did, what the router did about it, and
// what it cost.
type ResilienceReport struct {
	// Faults echoes the injected schedule (useful when it was random).
	Faults fault.Schedule
	// Stats counts the router's failure-handling actions.
	Stats serve.ResilienceStats
	// Goodput is SLO-meeting completions per second of arrival window —
	// the headline number degradation arms trade recall to protect.
	Goodput float64
	// Recoveries is, per crash episode, crash instant → completion of
	// the last request failed over off the dead replica (negative when
	// no failover completed).
	Recoveries []time.Duration
}

// String renders the report's counters compactly for logs and tables.
func (r *ResilienceReport) String() string {
	return fmt.Sprintf("goodput=%.2f/s retried=%d failedover=%d hedged=%d hedgewins=%d timedout=%d failed=%d ghosts=%d crashes=%d",
		r.Goodput, r.Stats.Retried, r.Stats.FailedOver, r.Stats.Hedged, r.Stats.HedgeWins, r.Stats.TimedOut, r.Stats.Failed, r.Stats.Ghosts, r.Stats.Crashes)
}

// DefaultNetDelay is the modeled front-end↔replica network transit a
// run gets when it asks for parallelism (Workers > 1) without choosing
// a NetDelay explicitly. One millisecond is a realistic same-datacenter
// RTT half and, as the conservative lookahead, wide enough that shards
// execute thousands of events per synchronization window.
const DefaultNetDelay = time.Millisecond

// RunCluster executes one evaluation point on N independent node
// pipelines behind a front-end router. The resource decision is made
// once (the replicas are identical nodes) and instantiated per replica
// with its own GPU states, retrieval engine, and LLM cluster; a single
// Poisson stream feeds the router, so rate is the cluster-wide arrival
// rate.
//
// Three engines share the node builder and the tally and differ only in
// the timeline (Options.NetDelay, Options.Faults): faults or a
// Resilience config put every replica and the failure-aware router on
// one simulator, whatever Workers says; otherwise a positive NetDelay
// selects the sharded exchange, and zero keeps the plain router and its
// replicas on one instantaneous simulator.
func RunCluster(opts Options, replicas int, policy serve.Policy) (*ClusterResult, error) {
	if replicas <= 0 {
		return nil, fmt.Errorf("rag: need at least one replica, got %d", replicas)
	}
	if opts.NetDelay < 0 {
		return nil, fmt.Errorf("rag: negative NetDelay %v", opts.NetDelay)
	}
	if err := opts.check(fCluster); err != nil {
		return nil, err
	}
	// Resolve the policy before the expensive profiling/decision work so
	// a typo fails fast.
	policy, err := serve.ResolvePolicy(policy)
	if err != nil {
		return nil, err
	}
	if opts.resilient() {
		if err := opts.Faults.Validate(replicas); err != nil {
			return nil, err
		}
	} else if opts.NetDelay == 0 && opts.Workers > 1 {
		// Workers > 1 needs shards to spread over; sharding needs a
		// positive network delay for lookahead, so asking for parallelism
		// opts into the modeled network.
		opts.NetDelay = DefaultNetDelay
	}
	d, err := offline(&opts)
	if err != nil {
		return nil, err
	}
	spec := singleSpec(&opts, d, nil)
	if opts.NetDelay > 0 && !opts.resilient() {
		return runClusterSharded(&opts, d, spec, replicas, policy)
	}
	return runClusterShared(&opts, d, spec, replicas, policy)
}

// runClusterShared runs the router and every replica on one simulator.
// The plain router gives each replica its own collector beside the
// global one. The resilient router settles every completion itself
// (collector, release, pool) and keeps the only record: retries and
// hedges would register one logical request with several replica
// collectors, and superseded (pool-recycled) copies would leave
// dangling live pointers behind, so per-replica reporting is limited to
// routing counts there.
func runClusterShared(opts *Options, d *decision, spec *nodeSpec, replicas int, policy serve.Policy) (*ClusterResult, error) {
	resilient := opts.resilient()
	var sim des.Sim
	pool := &workload.Pool{}
	coll := serve.NewCollector()
	// The resilient router can only be built after the replica pipelines
	// exist, so each terminal sink late-binds through this variable.
	var rr *serve.ResilientRouter
	reps := make([]*serve.Replica, replicas)
	nodes := make([]*node, replicas)
	for i := range reps {
		rep := serve.NewReplica()
		var err error
		if resilient {
			nodes[i], err = spec.build(&sim, nil, nil, func(req *workload.Request) { rr.Complete(i, req) })
		} else {
			nodes[i], err = spec.build(&sim, serve.NewCollector(), []serve.Sink{coll.Done, rep.Release}, pool.Release)
		}
		if err != nil {
			return nil, err
		}
		rep.Bind(nodes[i].pipe)
		reps[i] = rep
	}
	var route serve.Sink
	if resilient {
		rcfg := serve.ResilienceConfig{}
		if opts.Resilience != nil {
			rcfg = *opts.Resilience
		}
		rcfg.Policy = policy
		var err error
		if rr, err = serve.NewResilientRouter(&sim, rcfg, reps, coll, pool); err != nil {
			return nil, err
		}
		route = rr.Submit
		// Wire the storm: health events hit the router; slowdown episodes
		// hit the affected replica's engines directly.
		fault.Install(&sim, opts.Faults, fault.Hooks{
			Crash:   rr.Crash,
			Recover: rr.Recover,
			SlowLLM: func(r int, f float64, until des.Time) {
				nodes[r].pipe.Generation().Cluster.SetSlowdown(f, until)
			},
			SlowRetrieval: func(r int, f float64, until des.Time) {
				if s, ok := nodes[r].pipe.Retrieval().Engine.(retrieval.Slowdowner); ok {
					s.SetSlowdown(f, until)
				}
			},
		})
	} else {
		router, err := serve.NewRouter(policy, reps)
		if err != nil {
			return nil, err
		}
		route = router.Submit
	}
	front, err := serve.Compose(&sim, route, serve.Admit(coll))
	if err != nil {
		return nil, err
	}
	defer installDrift(&sim, opts)()
	arr := arrivalsFor(opts.W, opts.Rate, opts.RateSchedule, opts.Shape, opts.Seed+7, pool)
	front.Run(arr, opts.Duration, opts.Drain)

	submitted := make([]int, replicas)
	for i, rep := range reps {
		submitted[i] = rep.Submitted()
	}
	res := tallyCluster(opts, d, policy, coll.Requests(), nodes, submitted)
	if resilient {
		res.Resilience = &ResilienceReport{
			Faults:     opts.Faults,
			Stats:      rr.Stats(),
			Goodput:    metrics.Goodput(res.Requests, d.sloTotal, des.Time(opts.Warmup), des.Time(opts.Duration)),
			Recoveries: rr.Recoveries(),
		}
	}
	return res, nil
}

// runClusterSharded runs the replicas behind the sharded exchange.
func runClusterSharded(opts *Options, d *decision, spec *nodeSpec, replicas int, policy serve.Policy) (*ClusterResult, error) {
	f, err := newFleet(spec, replicas, policy, opts.NetDelay)
	if err != nil {
		return nil, err
	}
	// Drift rotates popularity on the front timeline, where the only
	// reader (arrival sampling) lives; replica shards never touch the
	// rotation, so the trace stays race-free under parallel execution.
	defer installDrift(f.x.FrontSim(), opts)()
	arr := arrivalsFor(opts.W, opts.Rate, opts.RateSchedule, opts.Shape, opts.Seed+7, f.pool)
	arr.Start(f.x.FrontSim(), des.Time(opts.Duration), f.x.Submit)
	records, submitted, workers := f.run(des.Time(opts.Duration+opts.Drain), opts.Workers)

	res := tallyCluster(opts, d, policy, records, f.nodes, submitted)
	res.Workers, res.NetDelay = workers, opts.NetDelay
	return res, nil
}

// fleet is R replicas of one node spec behind the sharded exchange:
// the front shard owns arrivals, routing and the request pool, and each
// replica runs on its own shard with its own collector. The caller
// starts its arrival sources on the front simulator, into x.Submit.
type fleet struct {
	x     *serve.Exchange
	pool  *workload.Pool
	nodes []*node
}

func newFleet(spec *nodeSpec, replicas int, policy serve.Policy, netDelay time.Duration) (*fleet, error) {
	f := &fleet{pool: &workload.Pool{}, nodes: make([]*node, replicas)}
	var err error
	if f.x, err = serve.NewExchange(policy, replicas, netDelay, netDelay, f.pool); err != nil {
		return nil, err
	}
	for i := range f.nodes {
		// Each replica records (or rejects) on its own timeline and then
		// ships the request home with the notice, so overload control is
		// per replica and the merged schedule stays a pure function of
		// the options for any worker count.
		if f.nodes[i], err = spec.build(f.x.ReplicaSim(i), serve.NewCollector(), nil, f.x.NoticeSink(i)); err != nil {
			return nil, err
		}
		f.x.BindReplica(i, f.nodes[i].pipe.Submit)
	}
	return f, nil
}

// run executes every shard to the deadline and gathers the run: the
// global per-request record set in front arrival order, the requests
// routed to each replica, and the worker count used. Every routed
// request carries its global arrival index as its ID (the Exchange
// restamps at Submit), so per-replica collector records scatter
// straight into one slice; requests still in network transit when the
// clock stopped never reached a collector and are snapshotted from the
// wire — admitted but unserved, exactly how the single-timeline
// collector reports a request stuck between router and replica at the
// deadline.
func (f *fleet) run(deadline des.Time, workers int) (records []workload.Request, submitted []int, used int) {
	used = shardWorkers(workers, len(f.nodes)+1)
	f.x.Run(deadline, used)
	records = make([]workload.Request, f.x.Arrivals())
	put := func(rec *workload.Request) {
		if rec.ID >= 0 && rec.ID < len(records) {
			records[rec.ID] = *rec
		}
	}
	submitted = make([]int, len(f.nodes))
	for i, n := range f.nodes {
		submitted[i] = f.x.Submitted(i)
		recs := n.coll.Requests()
		for j := range recs {
			put(&recs[j])
		}
	}
	f.x.DrainArrivals(put)
	return records, submitted, used
}

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
