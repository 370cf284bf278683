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
// router gives each replica an ID list into the global collector's
// records, which the request's arrival index keys. The resilient router
// settles every completion itself (collector, release, pool) and keeps
// the only record: retries and hedges would register one logical
// request with several replicas, so per-replica reporting is limited to
// routing counts there.
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
			own.InPlace(c.expect/opts.Replicas + 1)
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
	var agg metrics.Summarizer
	for i, n := range nodes {
		s.submitted[i] = reps[i].Submitted()
		if n.coll != nil {
			s.sums[i] = agg.SummarizeIDs(s.records, n.coll.IDs(), c.slo, warmup)
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
// arrivals and routing, one modeled network delay away from every
// replica, each replica on a timeline of its own. The caller starts its
// arrival sources (and drift events) on the front timeline, feeding
// Submit at each request's arrival instant, and then calls run.
//
// Both engines share phase 1: the front runs alone and appends each
// arrival, by value, to one arrival-ordered array — the run's only copy
// of a request. Replicas then serve the array's records in place, and
// their collectors keep ID lists into it, so the array is the global
// record set when phase 2 ends: a request still on the wire at the
// deadline reads as it left the front (admitted but unserved, as the
// single-timeline collector reports one stuck between router and
// replica), one mid-pipeline reads its state at the deadline. Which
// engine runs phase 2 is decided by newFleet from the routing policy and
// the replica count alone, and no caller can tell the difference:
//
//   - Routing that reads replica state (least-loaded over several
//     replicas) needs the completion notices while it routes, so the
//     exchange's front shard replays the array (replay) and front and
//     replicas advance together as shards of a des.Group behind a
//     serve.Exchange (x).
//   - Routing that cannot observe replica state (round-robin, or a lone
//     replica under any policy) makes the front's choices a pure
//     function of the arrival stream: arrival k goes to replica k mod R.
//     No link, window or barrier is built: every replica runs to the
//     deadline by itself on internal/parallel, fed its arrivals under
//     the shard delivery rule (des.Sim.RunFed), which makes its schedule
//     the one the exchange would have produced, event for event.
type fleet struct {
	pool    *workload.Pool
	nodes   []*node
	records []workload.Request // every arrival in front order; ID = index

	front    des.Sim
	netDelay des.Time
	x        *serve.Exchange // nil on the link-free path
	lanes    []*lane         // nil on the exchange path
}

// lane is one link-free replica's timeline. Lanes are allocated one by
// one and padded: workers advance different lanes at once, and two
// simulators on one cache line serialize them.
type lane struct {
	sim des.Sim
	_   [64]byte
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
	f := newFront(replicas, netDelay, expect)
	for i := range f.nodes {
		// Nobody takes a request after the collector: it lives in the
		// array and is never recycled.
		f.lanes = append(f.lanes, &lane{})
		if err := f.build(spec, i, &f.lanes[i].sim, func(*workload.Request) {}); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// newExchangeFleet builds the fleet on the sharded exchange whatever the
// policy (newFleet picks it for feedback routing only; the differential
// tests run round-robin through it as the reference). Without a pool a
// completion notice only decrements the front's gauge.
func newExchangeFleet(spec *nodeSpec, replicas int, policy serve.Policy, netDelay time.Duration, expect int) (*fleet, error) {
	f := newFront(replicas, netDelay, expect)
	var err error
	if f.x, err = serve.NewExchange(policy, replicas, netDelay, netDelay, nil); err != nil {
		return nil, err
	}
	for i := range f.nodes {
		// Each replica admits (or rejects) on its own timeline, so overload
		// control is per replica and the schedule stays a pure function of
		// the options for any worker count.
		if err := f.build(spec, i, f.x.ReplicaSim(i), f.x.NoticeSink(i)); err != nil {
			return nil, err
		}
		f.x.BindReplica(i, f.nodes[i].pipe.Submit)
	}
	return f, nil
}

// newFront returns a fleet with its front and its record array, sized to
// expect, and no replicas built yet.
func newFront(replicas int, netDelay time.Duration, expect int) *fleet {
	return &fleet{pool: &workload.Pool{}, nodes: make([]*node, replicas),
		records: make([]workload.Request, 0, expect), netDelay: des.Time(netDelay)}
}

// build instantiates replica i on sim, its collector an ID list into the
// record array sized to an even share.
func (f *fleet) build(spec *nodeSpec, i int, sim *des.Sim, next serve.Sink) (err error) {
	coll := serve.NewCollector()
	coll.InPlace(cap(f.records)/len(f.nodes) + 1)
	f.nodes[i], err = spec.build(sim, coll, nil, next)
	return err
}

// Submit takes one arrival — the sink the arrival sources feed. It
// restamps the request ID with the global arrival index, the record's
// place in the array, even when several generators multiplex onto the
// front timeline, appends the request and recycles the pooled object.
func (f *fleet) Submit(req *workload.Request) {
	req.ID = len(f.records)
	f.records = append(f.records, *req)
	f.pool.Put(req)
}

// run executes the fleet to the deadline and reports the requests routed
// to each replica, each replica's own summary against slo (zero when slo
// is) and the worker count used. The summaries are read from the
// goroutine that ran the replica, where the link-free engine has one,
// through one metrics.Summarizer per worker.
func (f *fleet) run(deadline des.Time, workers int, slo time.Duration, warmup des.Time) (submitted []int, sums []metrics.Summary, used int) {
	// Phase 1: the front alone. Every arrival lands in the array.
	f.front.RunUntil(deadline)
	submitted, sums = make([]int, len(f.nodes)), make([]metrics.Summary, len(f.nodes))
	var aggs []metrics.Summarizer
	summarize := func(w, i int) {
		if slo > 0 {
			sums[i] = aggs[w].SummarizeIDs(f.records, f.nodes[i].coll.IDs(), slo, warmup)
		}
	}
	// Phase 2: the replicas serve the array in place.
	if f.x != nil {
		used = shardWorkers(workers, len(f.nodes)+1)
		aggs = make([]metrics.Summarizer, used)
		f.replay()
		f.x.Run(deadline, used)
		for i := range submitted {
			submitted[i] = f.x.Submitted(i)
		}
		parallel.ForEachWorker(len(f.nodes), used, summarize)
		return submitted, sums, used
	}
	r, n := len(f.lanes), len(f.records)
	used = shardWorkers(workers, r)
	aggs = make([]metrics.Summarizer, used)
	// Each worker feeds its lanes through one inbox, emptied between them:
	// what a lane leaves undelivered is still on the wire at the deadline.
	ins := make([]*des.Inbox, used)
	deliver := func(arg any) {
		req := arg.(*workload.Request)
		f.nodes[req.ID%r].pipe.Submit(req)
	}
	parallel.ForEachWorker(r, used, func(w, i int) {
		if ins[w] == nil {
			ins[w] = des.NewInbox(deliver, n/r+1)
		}
		in := ins[w]
		for k := i; k < n; k += r {
			in.Post(f.records[k].ArrivalAt+f.netDelay, &f.records[k])
		}
		f.lanes[i].sim.RunFed(deadline, in)
		in.Drain(func(des.Time, any) {})
		submitted[i] = (n - i + r - 1) / r
		summarize(w, i)
	})
	return submitted, sums, used
}

// replay arms the exchange's front shard with the array: one handler
// routes every arrival of an instant, in array order, and then arms the
// next instant's. A completion notice stamped at an instant thus lands
// after every arrival of that instant, as it did behind the generator
// events that were queued before it.
func (f *fleet) replay() {
	front, k := f.x.FrontSim(), 0
	var fire func()
	fire = func() {
		for now := front.Now(); k < len(f.records) && f.records[k].ArrivalAt == now; k++ {
			f.x.Submit(&f.records[k])
		}
		if k < len(f.records) {
			front.At(f.records[k].ArrivalAt, fire)
		}
	}
	front.At(0, fire)
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
