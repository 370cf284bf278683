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
	"vectorliterag/internal/llm"
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
// millisecond is a realistic same-datacenter RTT half. A least-loaded
// round spans at least one minimum decode step plus two of it (about
// 13 ms for Qwen3-32B), wide enough that a round's event work outweighs
// its barrier.
const DefaultNetDelay = time.Millisecond

// fleetBuilder is newFleet's signature: the seam through which the
// differential tests put a run on the reference engine, the sharded
// exchange newFleet no longer builds.
type fleetBuilder func(spec *nodeSpec, replicas int, policy serve.Policy, netDelay time.Duration, expect int) (*fleet, error)

// shared runs the front and every replica on one simulator. Every
// arrival is allocated into one arena, the run's record set. The plain
// front routes as a fleet's front does — least-loaded through a
// loadIndex, round-robin arrival k to replica k mod R — serves each
// request where it lies and gives each replica an ID list into it,
// which the request's arrival index keys. The resilient router
// dispatches pooled copies and writes each request's outcome back into
// its slot: retries and hedges clone one logical request onto several
// replicas, so per-replica reporting is limited to routing counts there.
func (c *corpus) shared(opts *Options) (*served, error) {
	var sim des.Sim
	s := &served{nodes: make([]*node, opts.Replicas)}
	var submit serve.Sink
	// The resilient router can only be built after the replica nodes
	// exist, so each terminal sink late-binds through this variable.
	var rr *serve.ResilientRouter
	if opts.resilient() {
		heads := make([]serve.Sink, opts.Replicas)
		for i := range heads {
			n, err := c.spec.build(&sim, 0, nil, func(req *workload.Request) { rr.Complete(i, req) })
			if err != nil {
				return nil, err
			}
			s.nodes[i], heads[i] = n, n.submit
		}
		rcfg := serve.ResilienceConfig{}
		if opts.Resilience != nil {
			rcfg = *opts.Resilience
		}
		rcfg.Policy = opts.Policy
		var err error
		if rr, err = serve.NewResilientRouter(&sim, rcfg, heads); err != nil {
			return nil, err
		}
		submit = rr.Submit
		// Wire the storm: health events hit the router; slowdown episodes
		// hit the affected replica's engines directly.
		fault.Install(&sim, opts.Faults, fault.Hooks{
			Crash:   rr.Crash,
			Recover: rr.Recover,
			SlowLLM: func(r int, f float64, until des.Time) {
				s.nodes[r].llm.SetSlowdown(f, until)
			},
			SlowRetrieval: func(r int, f float64, until des.Time) {
				if e, ok := s.nodes[r].eng.(retrieval.Slowdowner); ok {
					e.SetSlowdown(f, until)
				}
			},
		})
	} else {
		// Arrival k is the request with ID k. Nothing is rejected on a
		// routed single corpus, so every decrement follows its own pick.
		var load loadIndex
		submit = func(req *workload.Request) { s.nodes[req.ID%opts.Replicas].submit(req) }
		if opts.Policy == serve.LeastLoaded {
			load = newLoadIndex(opts.Replicas)
			submit = func(req *workload.Request) { s.nodes[load.pick()].submit(req) }
		}
		for i := range s.nodes {
			var next serve.Sink
			if opts.Policy == serve.LeastLoaded {
				next = func(*workload.Request) { load.move(i, -1) }
			}
			var err error
			if s.nodes[i], err = c.spec.build(&sim, c.expect/opts.Replicas+1, nil, next); err != nil {
				return nil, err
			}
		}
		s.submitted = load.submitted // round-robin's comes after the run
	}
	arena := workload.NewArena(c.expect)
	defer c.feed(&sim, arena.New, submit)()
	sim.RunUntil(des.Time(opts.Duration + opts.Drain))
	if rr != nil {
		// Before the arena joins its chunks: the router still holds slots.
		rr.Settle()
		s.submitted = make([]int, opts.Replicas)
		for i := range s.submitted {
			s.submitted[i] = rr.Submitted(i)
		}
	}
	s.records = arena.Records()
	if s.submitted == nil {
		s.submitted = rotation(len(s.records), opts.Replicas)
	}
	if rr != nil {
		s.resilience = &ResilienceReport{
			Faults:     opts.Faults,
			Stats:      rr.Stats(),
			Goodput:    metrics.Goodput(s.records, []time.Duration{opts.sloTotal()}, des.Time(opts.Warmup), des.Time(opts.Duration)),
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
// the lanes serve the array's records in place, and their nodes keep ID
// lists into it, so the array is the global record set when phase 2
// ends: a request still on the wire at the deadline reads as it left the
// front (admitted but unserved, as the single-timeline router reports
// one stuck between router and replica), one mid-pipeline reads its
// state at the deadline. Each lane is fed its arrivals stamped
// arrival + NetDelay under the delivery rule of a des.Group link
// (des.Sim.Feed), so its schedule is the one the sharded
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
//     on completions before a − NetDelay. A lane knows of each
//     completion one minimum decode step before it happens, so the lanes
//     advance in rounds at least that step plus 2·NetDelay wide with one
//     barrier each (rounds; 2·NetDelay under bounded admission).
type fleet struct {
	arena   *workload.Arena
	arrived int // arrivals so far: the next one's ID
	share   int // the arrivals a replica's ID list is sized to
	nodes   []*node
	records []workload.Request // every arrival in front order, from phase 2 on; ID = index

	front    des.Sim
	netDelay des.Time
	lanes    []*lane
	// reach is how far past its origin a least-loaded round routes (see
	// rounds); onRound, when set, hears each round's origin and last
	// instant.
	reach   des.Time
	onRound func(x, last des.Time)

	// phase2 serves the array to the deadline on used workers and
	// returns how many requests each replica was routed.
	phase2 func(deadline des.Time, used int) (submitted []int)
}

// lane is one replica's timeline. Lanes are allocated one by one and
// padded: workers advance different lanes at once, and two simulators on
// one cache line serialize them (see spread for the rest of a replica's
// state).
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
	// A lane sends a completion's notice when the LLM iteration that ends
	// with it is scheduled, at least one minimum decode step ahead, and a
	// round routes that much further. No schedule foretells a rejection
	// at admission, so under bounded admission each notice is sent as it
	// happens and a round routes one network delay ahead.
	announce := spec.overload == nil
	if feedback {
		f.phase2 = f.rounds
		f.reach = f.netDelay
		if announce {
			f.reach += des.Time(llm.MinDecodeStep(spec.node, spec.model, llm.DefaultEngineConfig()))
		}
	}
	for i := range f.nodes {
		l := &lane{}
		f.lanes = append(f.lanes, l)
		// Nobody takes a completed request: it lives in the array and is
		// never recycled. Under least-loaded the front hears of n
		// completions at at one network delay later.
		var notify func(at des.Time, n int)
		var next serve.Sink
		if feedback {
			l.in = des.NewInbox(func(arg any) { f.nodes[i].submit(arg.(*workload.Request)) }, 0)
			notify = func(at des.Time, n int) {
				if w := l.w; !w.mute {
					for range n {
						w.notes[w.p] = append(w.notes[w.p], notice{at: at + f.netDelay, lane: i})
					}
				}
			}
			if !announce {
				next = func(*workload.Request) { notify(l.sim.Now(), 1) }
			}
		}
		if err := f.build(spec, i, &l.sim, next); err != nil {
			return nil, err
		}
		if feedback && announce {
			f.nodes[i].llm.SetOnSchedule(notify)
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

// build instantiates replica i on sim, its ID list into the record
// array sized to an even share.
func (f *fleet) build(spec *nodeSpec, i int, sim *des.Sim, next serve.Sink) (err error) {
	f.nodes[i], err = spec.build(sim, f.share, nil, next)
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

// run executes the fleet to the deadline and returns what it served:
// the record array, the requests routed to each replica and the worker
// count used.
func (f *fleet) run(deadline des.Time, workers int) *served {
	// Phase 1: the front alone. Every arrival lands in the arena, whose
	// chunks nothing addresses until phase 2.
	f.front.RunUntil(deadline)
	f.records = f.arena.Records()
	s := &served{records: f.records, nodes: f.nodes}
	s.workers = shardWorkers(workers, len(f.nodes))
	// Phase 2: the replicas serve the array in place.
	s.submitted = f.phase2(deadline, s.workers)
	return s
}

// alone is phase 2 for routing blind to replica state: every lane runs
// to the deadline by itself on internal/parallel, fed arrivals i, i + R,
// i + 2R, … Each worker feeds its lanes through one inbox, emptied
// between them: what a lane leaves undelivered is still on the wire at
// the deadline. The lanes are taken in spread order, so those running
// at once are about R/used apart.
func (f *fleet) alone(deadline des.Time, used int) []int {
	r, n := len(f.lanes), len(f.records)
	ins := make([]*des.Inbox, used)
	deliver := func(arg any) {
		req := arg.(*workload.Request)
		f.nodes[req.ID%r].submit(req)
	}
	order := spread(r, used)
	parallel.ForEachWorker(r, used, func(w, k int) {
		i := order[k]
		if ins[w] == nil {
			ins[w] = des.NewInbox(deliver, n/r+1)
		}
		in := ins[w]
		for k := i; k < n; k += r {
			in.Post(f.records[k].ArrivalAt+f.netDelay, &f.records[k])
		}
		f.lanes[i].sim.RunFed(deadline, in)
		in.Drain(func(des.Time, any) {})
	})
	return rotation(n, r)
}

// rotation returns how many of n arrivals each of r replicas is routed
// when arrival k goes to replica k mod r.
func rotation(n, r int) []int {
	counts := make([]int, r)
	for i := range counts {
		counts[i] = (n - i + r - 1) / r
	}
	return counts
}

// spread is the order alone takes r lanes in on used workers: with
// h = ⌈r/used⌉, lanes 0, h, 2h, … (one per worker), then 1, h+1, 2h+1,
// …, skipping those past the last. Workers take lanes in this order as
// they free up, so the lanes running at one time sit about h apart and
// no two workers write neighbouring per-lane objects (newFleet builds a
// replica's engine, LLM cluster and ID list right after its
// neighbour's): on 64 replicas and 2 vCPUs, two workers ran phase 2
// 1.95× as fast as one, against 1.5× in index order. On one worker it
// is index order.
func spread(r, used int) []int {
	h := (r + used - 1) / used
	order := make([]int, 0, r)
	for j := range h {
		for w := range used {
			if i := w*h + j; i < r {
				order = append(order, i)
			}
		}
	}
	return order
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
// only to its own lanes. A completion notice is stamped L (the network
// delay) after its completion, and a lane sends it S before the
// completion: S is llm.MinDecodeStep, as a lane announces each
// completion when the LLM iteration that ends with it is scheduled, and
// zero under bounded admission, whose rejections are sent as they happen
// (newFleet). A round with origin X starts when every lane has fired
// every event before X and every arrival before X − L is routed:
//
//   - Route the arrivals before X + S + L (X + reach) in array order, each
//     after every notice stamped before it. A notice stamped before
//     X + S + L reports a completion before X + S, sent before X, so
//     every lane has sent it. One stamped exactly at an arrival's
//     instant counts after all of that instant's arrivals, as it did
//     behind the exchange's replay handler. Notices stamped later wait
//     for the next round.
//   - Run each own lane through U + L − 1, U ≥ X + S + L being the first
//     arrival left unrouted: an arrival reaches its lane L after the
//     front, so everything due by then was routed above.
//   - Meet at the barrier, which publishes each worker's notices. The
//     next origin is U + L, so a round is at least S + 2L wide (13 ms
//     for Qwen3-32B at the default 1 ms), and wider when the next
//     arrival is late.
//
// Once every arrival is routed, or a round reaches the deadline, the
// lanes run to the deadline and the rounds end. Arrivals left then are
// stamped past the deadline: they are routed — so counted — from the
// last round's notices and stay on the wire, as on the exchange.
func (f *fleet) rounds(deadline des.Time, used int) []int {
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
			rt.route(f, x+f.reach)
			last := deadline
			if rt.k < n {
				last = min(deadline, f.records[rt.k].ArrivalAt+f.netDelay-1)
			}
			if w == 0 && f.onRound != nil {
				f.onRound(x, last)
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
	batch []notice   // the notices not yet applied, by stamp
	spare []notice   // gather's merge target, swapped with batch
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

// gather adds every worker's notices of parity p to the batch, after
// those the last route left, and orders it by stamp: it sorts only the
// fresh notices and merges them into the carried ones, which are in
// order already. Notices of one stamp only decrement gauges, so their
// order among themselves does not matter.
func (rt *router) gather(rs []*router, p int) {
	carried := len(rt.batch)
	for _, o := range rs {
		rt.batch = append(rt.batch, o.notes[p]...)
	}
	old, fresh := rt.batch[:carried], rt.batch[carried:]
	slices.SortFunc(fresh, func(a, b notice) int { return cmp.Compare(a.at, b.at) })
	if carried == 0 || len(fresh) == 0 || old[carried-1].at <= fresh[0].at {
		return
	}
	merged := rt.spare[:0]
	i, j := 0, 0
	for i < len(old) && j < len(fresh) {
		if fresh[j].at < old[i].at {
			merged = append(merged, fresh[j])
			j++
		} else {
			merged = append(merged, old[i])
			i++
		}
	}
	merged = append(append(merged, old[i:]...), fresh[j:]...)
	rt.batch, rt.spare = merged, rt.batch[:0]
}

// route routes the arrivals before end, applying each batched notice
// before the first arrival stamped after it and the rest stamped before
// end at the end, and posts those picked for its own lanes, stamped
// arrival + network delay. It leaves the notices stamped at or after end
// in the batch: the next round's arrivals may only see them in order.
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
	for ; j < len(rt.batch) && rt.batch[j].at < end; j++ {
		rt.load.move(rt.batch[j].lane, -1)
	}
	rt.batch = rt.batch[:copy(rt.batch, rt.batch[j:])]
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

// loadIndex is the least-loaded routing state of every front without
// failure handling: each worker of a least-loaded fleet keeps one
// (rounds), and the single-timeline front routes through one (shared).
// It holds each replica's in-flight gauge, the ring cursor,
// how many requests each replica was routed, and, per gauge level, the
// set of replicas at it as a bitset. A pick — from the cursor round the
// ring, the first replica at the minimum gauge, the rule of
// serve.Exchange and of serve.ResilientRouter over healthy replicas —
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
