package rag

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
// a routed lineup when no NetDelay is chosen explicitly. One
// millisecond is a realistic same-datacenter RTT half and, as the
// half-width of a least-loaded round, wide enough that a round's event
// work outweighs its barrier.
const DefaultNetDelay = time.Millisecond

// fleetBuilder is newFleet's signature: the seam through which the
// differential tests put a run on the reference engine, the sharded
// exchange newFleet no longer builds.
type fleetBuilder func(spec *nodeSpec, replicas int, policy serve.Policy, netDelay time.Duration, expect int) (*fleet, error)

// shared runs the router and every replica on one simulator. The plain
// router serves every arrival where it lies in one arena, the run's
// record set, and gives each replica an ID list into it, which the
// request's arrival index keys. The resilient router settles every
// completion itself (collector, release, pool) and keeps the only
// record, copied out of pooled requests: retries and hedges clone one
// logical request onto several replicas, so per-replica reporting is
// limited to routing counts there.
func (c *corpus) shared(opts *Options) (*served, error) {
	resilient := opts.resilient()
	var sim des.Sim
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
			nodes[i], err = c.spec.build(&sim, own, nil, rep.Release)
		}
		if err != nil {
			return nil, err
		}
		rep.Bind(nodes[i].pipe)
		reps[i] = rep
	}
	var (
		submit  serve.Sink
		alloc   func() *workload.Request
		records func() []workload.Request
	)
	if resilient {
		pool := &workload.Pool{}
		coll := serve.NewCollector()
		coll.Reserve(c.expect)
		rcfg := serve.ResilienceConfig{}
		if opts.Resilience != nil {
			rcfg = *opts.Resilience
		}
		rcfg.Policy = opts.Policy
		var err error
		if rr, err = serve.NewResilientRouter(&sim, rcfg, reps, coll, pool); err != nil {
			return nil, err
		}
		front, err := serve.Compose(&sim, rr.Submit, serve.Admit(coll))
		if err != nil {
			return nil, err
		}
		submit, alloc, records = front.Submit, pool.Get, coll.Requests
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
		arena := workload.NewArena(c.expect)
		submit, alloc, records = router.Submit, arena.New, arena.Records
	}
	defer c.feed(&sim, alloc, submit)()
	sim.RunUntil(des.Time(opts.Duration + opts.Drain))

	warmup := des.Time(opts.Warmup)
	s := &served{records: records(), nodes: nodes, submitted: make([]int, opts.Replicas), sums: make([]metrics.Summary, opts.Replicas)}
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
// replica, each replica on a timeline of its own — a lane. The caller
// starts its arrival sources (and drift events) on the front timeline,
// feeding Submit at each request's arrival instant, and then calls run.
//
// Phase 1: the front runs alone, its arrival sources allocating each
// arrival into one arena — the run's only copy of a request — and the
// arena becomes one arrival-ordered array when phase 1 ends. Phase 2:
// the lanes serve the array's records in place, and their collectors
// keep ID lists into it, so the array is the global record set when
// phase 2 ends: a request still on the wire at the deadline reads as it
// left the front (admitted but unserved, as the single-timeline
// collector reports one stuck between router and replica), one
// mid-pipeline reads its state at the deadline. Each lane is fed its
// arrivals stamped arrival + NetDelay under the delivery rule of a
// des.Group link (des.Sim.Feed), so its schedule is the one the sharded
// exchange (des.Group + serve.Exchange, the engine this one replaced and
// the differential tests' reference) produced, event for event. How
// phase 2 routes is decided by newFleet from the routing policy and the
// replica count alone, and no caller can tell the difference:
//
//   - Routing that cannot observe replica state (round-robin, or a lone
//     replica under any policy) makes the front's choices a pure
//     function of the arrival stream: arrival k goes to replica k mod R,
//     and every lane runs to the deadline by itself (alone).
//   - Least-loaded over several replicas reads the in-flight gauges that
//     completion notices decrement, one NetDelay after each completion.
//     The fleet is a star — a request travels one hop to its replica and
//     its notice one hop back — so the routing of arrival a depends only
//     on completions before a − NetDelay, and the lanes advance in rounds
//     at least 2·NetDelay wide with one barrier each (rounds).
type fleet struct {
	arena   *workload.Arena
	arrived int // arrivals so far: the next one's ID
	share   int // the arrivals a replica's ID list is sized to
	nodes   []*node
	records []workload.Request // every arrival in front order, from phase 2 on; ID = index

	front    des.Sim
	netDelay des.Time
	lanes    []*lane

	// phase2 serves the array to the deadline on used workers, calls
	// summarize for each replica on the worker that ran it, and returns
	// how many requests each replica was routed.
	phase2 func(deadline des.Time, used int, summarize func(w, i int)) (submitted []int)
}

// lane is one replica's timeline. Lanes are allocated one by one and
// padded: workers advance different lanes at once, and two simulators on
// one cache line serialize them.
type lane struct {
	sim des.Sim
	// Under least-loaded only: the lane's own inbox of routed arrivals,
	// and the worker whose notice buffer its completions append to.
	in *des.Inbox
	w  *router
	_  [64]byte
}

// newFleet builds the fleet for the validated options of a routed run:
// at least one replica, a resolved policy, a positive network delay.
// expect is the arrival count the run should not exceed (a sizing hint:
// a low one costs reallocation, never correctness).
func newFleet(spec *nodeSpec, replicas int, policy serve.Policy, netDelay time.Duration, expect int) (*fleet, error) {
	f := newFront(replicas, netDelay, expect)
	f.phase2 = f.alone
	feedback := policy == serve.LeastLoaded && replicas > 1
	if feedback {
		f.phase2 = f.rounds
	}
	for i := range f.nodes {
		l := &lane{}
		f.lanes = append(f.lanes, l)
		// Nobody takes a request after the collector: it lives in the
		// array and is never recycled. Under least-loaded the front hears
		// of it one network delay later.
		next := func(*workload.Request) {}
		if feedback {
			l.in = des.NewInbox(func(arg any) { f.nodes[i].pipe.Submit(arg.(*workload.Request)) }, 0)
			next = func(*workload.Request) {
				if w := l.w; !w.mute {
					w.notes[w.p] = append(w.notes[w.p], notice{at: l.sim.Now() + f.netDelay, lane: i})
				}
			}
		}
		if err := f.build(spec, i, &l.sim, next); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// newFront returns a fleet with its front and its arena, sized to
// expect, and no replicas built yet.
func newFront(replicas int, netDelay time.Duration, expect int) *fleet {
	return &fleet{arena: workload.NewArena(expect), share: expect/replicas + 1,
		nodes: make([]*node, replicas), netDelay: des.Time(netDelay)}
}

// build instantiates replica i on sim, its collector an ID list into the
// record array sized to an even share.
func (f *fleet) build(spec *nodeSpec, i int, sim *des.Sim, next serve.Sink) (err error) {
	coll := serve.NewCollector()
	coll.InPlace(f.share)
	f.nodes[i], err = spec.build(sim, coll, nil, next)
	return err
}

// Submit takes one arrival — the sink the arrival sources feed — which
// already lies in the arena's latest slot. It restamps the request ID
// with the global arrival index, the slot's place in the arena, even
// when several generators multiplex onto the front timeline.
func (f *fleet) Submit(req *workload.Request) {
	req.ID = f.arrived
	f.arrived++
}

// run executes the fleet to the deadline and reports the requests routed
// to each replica, each replica's own summary against slo (zero when slo
// is) and the worker count used. The summaries are read from the
// goroutine that ran the replica, through one metrics.Summarizer per
// worker.
func (f *fleet) run(deadline des.Time, workers int, slo time.Duration, warmup des.Time) (submitted []int, sums []metrics.Summary, used int) {
	// Phase 1: the front alone. Every arrival lands in the arena, whose
	// chunks nothing addresses until phase 2.
	f.front.RunUntil(deadline)
	f.records = f.arena.Records()
	used = shardWorkers(workers, len(f.nodes))
	sums = make([]metrics.Summary, len(f.nodes))
	aggs := make([]metrics.Summarizer, used)
	summarize := func(w, i int) {
		if slo > 0 {
			sums[i] = aggs[w].SummarizeIDs(f.records, f.nodes[i].coll.IDs(), slo, warmup)
		}
	}
	// Phase 2: the replicas serve the array in place.
	return f.phase2(deadline, used, summarize), sums, used
}

// alone is phase 2 for routing blind to replica state: every lane runs
// to the deadline by itself on internal/parallel, fed arrivals i, i + R,
// i + 2R, … Each worker feeds its lanes through one inbox, emptied
// between them: what a lane leaves undelivered is still on the wire at
// the deadline.
func (f *fleet) alone(deadline des.Time, used int, summarize func(w, i int)) []int {
	r, n := len(f.lanes), len(f.records)
	submitted := make([]int, r)
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
	return submitted
}

// never is later than every instant: routing up to it routes every
// arrival left, and des.Sim.Feed reports it when nothing is left.
const never = des.Time(math.MaxInt64)

// barrierSpins is how many times a worker polls a peer at a round's
// barrier before it starts yielding its P between polls: a round is a
// few microseconds of event work, so a peer with a P of its own arrives
// well inside the budget. With more workers than Ps the budget is zero,
// since a spinning worker would hold the P its peer needs.
const barrierSpins = 1 << 12

// rounds is phase 2 under least-loaded. Each worker owns a contiguous
// block of lanes and keeps its own copy of the front's routing state: it
// routes every arrival, the same way as every other worker, and posts
// only to its own lanes. A round with origin X starts when every lane
// has fired every event before X and every arrival before X − L (L the
// network delay) is routed:
//
//   - Route the arrivals before X + L in array order, each after every
//     completion notice stamped before it. A notice is stamped L after
//     its completion, so one stamped before X + L reports a completion
//     before X, which every lane has fired. One stamped exactly at an
//     arrival's instant counts after all of that instant's arrivals, as
//     it did behind the exchange's replay handler.
//   - Run each own lane through U + L − 1, U ≥ X + L being the first
//     arrival left unrouted: an arrival reaches its lane L after the
//     front, so everything due by then was routed above.
//   - Meet at the barrier, which publishes each worker's notices. The
//     next origin is U + L, so a round is at least 2L wide, and wider
//     when the next arrival is late.
//
// Once every arrival is routed, or a round reaches the deadline, the
// lanes run to the deadline and the rounds end. Arrivals left then are
// stamped past the deadline: they are routed — so counted — from the
// last round's notices and stay on the wire, as on the exchange.
func (f *fleet) rounds(deadline des.Time, used int, summarize func(w, i int)) []int {
	r, n := len(f.lanes), len(f.records)
	rs := make([]*router, used)
	for w := range rs {
		first, end := w*r/used, (w+1)*r/used
		rs[w] = &router{load: newLoadIndex(r), first: first, next: make([]des.Time, end-first)}
		for _, l := range f.lanes[first:end] {
			l.w = rs[w]
		}
	}
	spins := barrierSpins
	if used > runtime.GOMAXPROCS(0) {
		spins = 0
	}
	work := func(w int) {
		rt := rs[w]
		for k, x := 0, des.Time(0); ; k++ {
			if k > 0 {
				rt.gather(rs, rt.p)
			}
			rt.p = k & 1
			rt.notes[rt.p] = rt.notes[rt.p][:0]
			rt.route(f, x+f.netDelay)
			last := deadline
			if rt.k < n {
				last = min(deadline, f.records[rt.k].ArrivalAt+f.netDelay-1)
			}
			// With every arrival routed nothing reads a notice again, and a
			// drain's worth of them would only grow the buffer.
			rt.mute = rt.k == n
			rt.advance(f, last)
			if last == deadline {
				break
			}
			rt.barrier(rs, k, spins)
			x = last + 1
		}
		for i := range rt.next {
			summarize(w, rt.first+i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < used; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	rt := rs[0]
	if rt.k < n {
		rt.gather(rs, rt.p)
		rt.route(f, never)
	}
	return rt.load.submitted
}

// notice is a completion notice: a request of lane finished, and the
// front hears of it at at, one network delay later.
type notice struct {
	at   des.Time
	lane int
}

// router is one worker of a least-loaded fleet: its copy of the front's
// routing state, the earliest instant anything can happen on each lane
// it runs, and the notices it publishes at each round's barrier.
type router struct {
	load  loadIndex
	k     int        // the next arrival to route
	first int        // its lanes are first, first+1, …, first+len(next)-1
	next  []des.Time // per own lane: the next event or inbox head
	batch []notice   // the notices being applied, by stamp
	p     int        // this round's parity: the notes slot its lanes fill
	mute  bool       // its lanes stop sending notices
	_     [64]byte

	// Published at the barrier, in slots that alternate by round parity:
	// a fast worker filling round k+1's never touches what a slow one
	// still reads of round k.
	notes [2][]notice
	done  atomic.Int64 // rounds finished
	_     [56]byte
}

// gather collects every worker's notices of parity p into the batch,
// sorted by stamp. Notices of one stamp only decrement gauges, so their
// order among themselves does not matter.
func (rt *router) gather(rs []*router, p int) {
	rt.batch = rt.batch[:0]
	for _, o := range rs {
		rt.batch = append(rt.batch, o.notes[p]...)
	}
	slices.SortFunc(rt.batch, func(a, b notice) int { return cmp.Compare(a.at, b.at) })
}

// route routes the arrivals before end, applying each batched notice
// before the first arrival stamped after it and the rest at the end, and
// posts those picked for its own lanes, stamped arrival + network delay.
func (rt *router) route(f *fleet, end des.Time) {
	j := 0
	for ; rt.k < len(f.records) && f.records[rt.k].ArrivalAt < end; rt.k++ {
		req := &f.records[rt.k]
		for ; j < len(rt.batch) && rt.batch[j].at < req.ArrivalAt; j++ {
			rt.load.move(rt.batch[j].lane, -1)
		}
		pick := rt.load.pick()
		if i := pick - rt.first; i >= 0 && i < len(rt.next) {
			at := req.ArrivalAt + f.netDelay
			f.lanes[pick].in.Post(at, req)
			rt.next[i] = min(rt.next[i], at)
		}
	}
	for ; j < len(rt.batch); j++ {
		rt.load.move(rt.batch[j].lane, -1)
	}
}

// advance runs every own lane with something due through last.
func (rt *router) advance(f *fleet, last des.Time) {
	for i, at := range rt.next {
		if at <= last {
			l := f.lanes[rt.first+i]
			rt.next[i] = l.sim.Feed(last, l.in)
		}
	}
}

// barrier marks round k finished, which publishes its notices, and
// waits until every worker has done the same.
func (rt *router) barrier(rs []*router, k int, spins int) {
	rt.done.Store(int64(k + 1))
	for _, o := range rs {
		for spin := 0; o.done.Load() <= int64(k); spin++ {
			if spin >= spins {
				runtime.Gosched()
			}
		}
	}
}

// loadIndex is the least-loaded front's routing state: each replica's
// in-flight gauge, the ring cursor, how many requests each replica was
// routed, and, per gauge level, the set of replicas at it as a bitset.
// A pick — from the cursor round the ring, the first replica at the
// minimum gauge, which is the rule of serve.Router and serve.Exchange —
// then reads one level's words instead of every gauge.
type loadIndex struct {
	gauge     []int
	words     int      // bitset words per level
	level     []uint64 // level[g*words:][:words]: the replicas whose gauge is g
	count     []int    // count[g]: how many there are
	min       int      // the smallest gauge
	cursor    int
	submitted []int
}

func newLoadIndex(r int) loadIndex {
	x := loadIndex{gauge: make([]int, r), words: (r + 63) / 64, count: []int{r}, submitted: make([]int, r)}
	x.level = make([]uint64, x.words)
	for i := range r {
		x.level[i/64] |= 1 << (i % 64)
	}
	return x
}

// move changes replica i's gauge by d, ±1.
func (x *loadIndex) move(i, d int) {
	g := x.gauge[i]
	x.level[g*x.words+i/64] &^= 1 << (i % 64)
	x.count[g]--
	if g += d; g == len(x.count) {
		x.level = append(x.level, make([]uint64, x.words)...)
		x.count = append(x.count, 0)
	}
	x.level[g*x.words+i/64] |= 1 << (i % 64)
	x.count[g]++
	x.gauge[i] = g
	if g < x.min {
		x.min = g
	} else if x.count[x.min] == 0 {
		x.min++
	}
}

// pick routes one request: it returns the first replica at the minimum
// gauge from the cursor round the ring, raises its gauge and advances
// the cursor by one.
func (x *loadIndex) pick() int {
	n, c := x.words, x.cursor
	set := x.level[x.min*n:][:n]
	if x.cursor++; x.cursor == len(x.gauge) {
		x.cursor = 0
	}
	// The cursor's word from its bit on, the words after it round the
	// ring, and last the cursor's word below its bit. The minimum level is
	// never empty, so the scan ends by then.
	w, below := c/64, uint64(1)<<(c%64)-1
	p := -1
	for k := 0; p < 0; k++ {
		v := (w + k) % n
		m := set[v]
		switch k {
		case 0:
			m &^= below
		case n:
			m &= below
		}
		if m != 0 {
			p = v*64 + bits.TrailingZeros64(m)
		}
	}
	x.move(p, 1)
	x.submitted[p]++
	return p
}

// shardWorkers resolves the Workers option for the given number of
// timelines: zero or negative means parallel.Workers's one per P —
// least-loaded workers meet at a barrier every round and would only spin
// against each other if they outnumbered the Ps — and there is never
// more than one per timeline.
func shardWorkers(n, shards int) int {
	return min(parallel.Workers(n), shards)
}
