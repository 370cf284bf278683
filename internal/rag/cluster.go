package rag

import (
	"fmt"
	"runtime"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/fault"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/parallel"
	"vectorliterag/internal/retrieval"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/workload"
)

// ReplicaResult reports one replica's share of a routed run. Summary
// is zero where the replica kept no record of its own: on a lineup
// (no single SLO) and under the resilient router.
type ReplicaResult struct {
	Submitted int
	Summary   metrics.Summary
	AvgBatch  float64
	LLMGPUs   int
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

// DefaultNetDelay is the modeled front-end↔replica network transit of
// a routed lineup, and of a routed single corpus that asks for
// parallelism (Workers > 1), when no NetDelay is chosen explicitly. One
// millisecond is a realistic same-datacenter RTT half and, as the
// conservative lookahead, wide enough that shards execute thousands of
// events per synchronization window.
const DefaultNetDelay = time.Millisecond

// fleetBuilder is newFleet's signature: the seam through which the
// differential tests put a run on the engine newFleet would not pick.
type fleetBuilder func(spec *nodeSpec, replicas int, policy serve.Policy, netDelay time.Duration, expect int) (*fleet, error)

// shared runs the router and every replica on one simulator. The plain
// router gives each replica its own collector beside the global one.
// The resilient router settles every completion itself (collector,
// release, pool) and keeps the only record: retries and hedges would
// register one logical request with several replica collectors, and
// superseded (pool-recycled) copies would leave dangling live pointers
// behind, so per-replica reporting is limited to routing counts there.
func (c *corpus) shared(opts *Options) (*served, error) {
	resilient := opts.resilient()
	var sim des.Sim
	pool := &workload.Pool{}
	coll := serve.NewCollector()
	coll.Reserve(c.expect)
	// The resilient router can only be built after the replica pipelines
	// exist, so each terminal sink late-binds through this variable.
	var rr *serve.ResilientRouter
	reps := make([]*serve.Replica, opts.Replicas)
	nodes := make([]*node, opts.Replicas)
	for i := range reps {
		rep := serve.NewReplica()
		var err error
		if resilient {
			nodes[i], err = c.spec.build(&sim, nil, nil, func(req *workload.Request) { rr.Complete(i, req) })
		} else {
			own := serve.NewCollector()
			own.Reserve(replicaShare(c.expect, opts.Replicas))
			nodes[i], err = c.spec.build(&sim, own, []serve.Sink{coll.Done, rep.Release}, pool.Release)
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
		rcfg.Policy = opts.Policy
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
		router, err := serve.NewRouter(opts.Policy, reps)
		if err != nil {
			return nil, err
		}
		route = router.Submit
	}
	front, err := serve.Compose(&sim, route, serve.Admit(coll))
	if err != nil {
		return nil, err
	}
	defer c.feed(&sim, pool, front.Submit)()
	sim.RunUntil(des.Time(opts.Duration + opts.Drain))

	warmup := des.Time(opts.Warmup)
	s := &served{records: coll.Requests(), nodes: nodes, submitted: make([]int, opts.Replicas), sums: make([]metrics.Summary, opts.Replicas)}
	for i, n := range nodes {
		s.submitted[i] = reps[i].Submitted()
		if n.coll != nil {
			s.sums[i] = n.coll.Summarize(c.slo, warmup)
		}
	}
	if resilient {
		s.resilience = &ResilienceReport{
			Faults:     opts.Faults,
			Stats:      rr.Stats(),
			Goodput:    metrics.Goodput(s.records, c.slo, warmup, des.Time(opts.Duration)),
			Recoveries: rr.Recoveries(),
		}
	}
	return s, nil
}

// fleet is R replicas of one node spec behind a front that owns
// arrivals, routing and the request pool, one modeled network delay
// away from every replica, each replica on a timeline of its own with
// its own collector. The caller starts its arrival sources (and drift
// events) on FrontSim, feeding Submit at each request's arrival instant,
// and then calls run. Which of two engines executes that contract is
// decided by newFleet from the routing policy and the replica count
// alone, and no caller can tell the difference:
//
//   - Routing that reads replica state (least-loaded over several
//     replicas) needs the completion notices while it routes, so front
//     and replicas advance together as shards of a des.Group behind a
//     serve.Exchange (x).
//   - Routing that cannot observe replica state (round-robin, or a lone
//     replica under any policy) makes the front's choices a pure
//     function of the arrival stream. No link, window or barrier is
//     built: the front runs alone and deals each arrival, by value, into
//     its replica's lane; then every lane runs to the deadline by itself
//     on internal/parallel, fed under the shard delivery rule
//     (des.Sim.RunFed), which makes its schedule the one the exchange
//     would have produced, event for event.
type fleet struct {
	pool  *workload.Pool
	nodes []*node

	x *serve.Exchange // nil on the link-free path

	front    des.Sim
	netDelay des.Time
	lanes    []*lane
	arrivals int
}

// lane is one link-free replica's timeline and its inbox: the front
// appends the replica's arrivals in routing order, and the replica then
// serves them in place — its collector adopts the array — so a record
// is written once and never copied until the final merge. Lanes are
// allocated one by one and padded: workers advance different lanes at
// once, and two simulators on one cache line serialize them.
type lane struct {
	sim  des.Sim
	reqs []workload.Request
	_    [64]byte
}

// newFleet builds the fleet on the engine its routing needs, for the
// validated options of a routed run: at least one replica, a resolved
// policy, a positive network delay. expect is the arrival count the run
// should not exceed (a sizing hint: a low one costs reallocation, never
// correctness).
func newFleet(spec *nodeSpec, replicas int, policy serve.Policy, netDelay time.Duration, expect int) (*fleet, error) {
	if policy == serve.LeastLoaded && replicas > 1 {
		return newExchangeFleet(spec, replicas, policy, netDelay, expect)
	}
	f := &fleet{pool: &workload.Pool{}, nodes: make([]*node, replicas), netDelay: des.Time(netDelay)}
	var err error
	for i := range f.nodes {
		// Round-robin deals arrival k to lane k mod R, so the hint splits
		// exactly. Nobody takes the request after the collector: it lives
		// in the lane's array and is never recycled.
		l := &lane{reqs: make([]workload.Request, 0, expect/replicas+1)}
		f.lanes = append(f.lanes, l)
		if f.nodes[i], err = spec.build(&l.sim, serve.NewCollector(), nil, func(*workload.Request) {}); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// newExchangeFleet builds the fleet on the sharded exchange whatever the
// policy (newFleet picks it for feedback routing only; the differential
// tests run round-robin through it as the reference).
func newExchangeFleet(spec *nodeSpec, replicas int, policy serve.Policy, netDelay time.Duration, expect int) (*fleet, error) {
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
		coll := serve.NewCollector()
		coll.Reserve(replicaShare(expect, replicas))
		if f.nodes[i], err = spec.build(f.x.ReplicaSim(i), coll, nil, f.x.NoticeSink(i)); err != nil {
			return nil, err
		}
		f.x.BindReplica(i, f.nodes[i].pipe.Submit)
	}
	return f, nil
}

// replicaShare sizes one replica's collector from the fleet-wide hint
// when routing is load-dependent: an even share plus an eighth.
func replicaShare(expect, replicas int) int {
	return expect/replicas + expect/(8*replicas) + 16
}

// FrontSim returns the front timeline: arrival sources and drift events
// go here.
func (f *fleet) FrontSim() *des.Sim {
	if f.x != nil {
		return f.x.FrontSim()
	}
	return &f.front
}

// Submit routes one arrival — the sink the arrival sources feed. It
// restamps the request ID with the global arrival index, so per-replica
// records merge back into front arrival order even when several
// generators multiplex onto the front timeline. On the link-free path
// the request is copied into its lane and the pooled object recycled at
// once; its transit ends one network delay after its arrival instant.
func (f *fleet) Submit(req *workload.Request) {
	if f.x != nil {
		f.x.Submit(req)
		return
	}
	req.ID = f.arrivals
	l := f.lanes[f.arrivals%len(f.lanes)]
	f.arrivals++
	l.reqs = append(l.reqs, *req)
	f.pool.Put(req)
}

// run executes the fleet to the deadline and gathers the run: the
// global per-request record set in front arrival order, the requests
// routed to each replica, and the worker count used. after, when
// non-nil, sees each replica once its timeline has finished (on the
// link-free path from the goroutine that ran it, so per-replica
// aggregation is part of the parallel phase). Every routed request
// carries its global arrival index as its ID, so per-replica records
// scatter straight into one slice; requests still in network transit
// when the clock stopped never reached a collector and are reported as
// they left the front — admitted but unserved, exactly how the
// single-timeline collector reports a request stuck between router and
// replica at the deadline.
func (f *fleet) run(deadline des.Time, workers int, after func(i int, n *node)) (records []workload.Request, submitted []int, used int) {
	if after == nil {
		after = func(int, *node) {}
	}
	submitted = make([]int, len(f.nodes))
	put := func(rec *workload.Request) {
		if rec.ID >= 0 && rec.ID < len(records) {
			records[rec.ID] = *rec
		}
	}
	if f.x != nil {
		used = shardWorkers(workers, len(f.nodes)+1)
		f.x.Run(deadline, used)
		records = make([]workload.Request, f.x.Arrivals())
		for i, n := range f.nodes {
			submitted[i] = f.x.Submitted(i)
			recs := n.coll.Requests()
			for j := range recs {
				put(&recs[j])
			}
			after(i, n)
		}
		f.x.DrainArrivals(put)
		return records, submitted, used
	}

	// Phase 1: the front alone. Every arrival lands in its lane.
	f.front.RunUntil(deadline)
	// Phase 2: each replica alone, fed its lane. The lane's length is the
	// replica's exact admission count, and the array it will report.
	used = shardWorkers(workers, len(f.lanes))
	parallel.ForEach(len(f.lanes), used, func(i int) {
		l, n := f.lanes[i], f.nodes[i]
		n.coll.Adopt(l.reqs)
		in := des.NewInbox(func(arg any) { n.pipe.Submit(arg.(*workload.Request)) }, len(l.reqs))
		for j := range l.reqs {
			in.Post(l.reqs[j].ArrivalAt+f.netDelay, &l.reqs[j])
		}
		l.sim.RunFed(deadline, in)
		after(i, n)
	})
	// Phase 3: one array in arrival order, the undelivered tails included.
	records = make([]workload.Request, f.arrivals)
	for i, l := range f.lanes {
		submitted[i] = len(l.reqs)
		for j := range l.reqs {
			put(&l.reqs[j])
		}
	}
	return records, submitted, used
}

// shardWorkers resolves the Workers option for the given number of
// timelines: zero or negative means one worker per P — GOMAXPROCS, not
// the core count, because exchange workers meet at a barrier every
// window and only spin against each other when they outnumber the Ps of
// a CPU-limited container — and there is never more than one per
// timeline.
func shardWorkers(n, shards int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return min(n, shards)
}
