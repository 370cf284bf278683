package serve

import (
	"fmt"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/workload"
)

// Exchange is a routing front recast as a cross-shard event exchange for
// parallel sharded runs: the front shard owns arrivals, routing, and
// the request pool; each replica pipeline lives on its own shard; and
// the only coupling between timelines is two message links per
// replica, each carrying an explicit network delay that doubles as the
// conservative lookahead window:
//
//	front ── request, arrival+net ──▶ replica
//	front ◀─ notice, completion+net ── replica
//
// Routing state (in-flight gauges, the round-robin cursor, submitted
// counts) lives entirely on the front shard, so the least-loaded
// policy reads gauges decremented by completion *notices* — load
// information that is one network delay stale, exactly as a real
// cluster front end would see it. That staleness is part of the
// modeled semantics, not an artifact: it is identical for every worker
// count, which is what keeps the merged schedule bit-identical from
// workers=1 to workers=N.
//
// Given a pool, completed requests return to it via the notice link,
// preserving the allocation-free pooled request lifecycle: after the
// in-flight ramp, arrivals reuse requests the notices brought home.
// Without one (a fleet whose requests live in one array) a notice only
// decrements its replica's gauge.
type Exchange struct {
	group  *des.Group
	front  *des.Shard
	reps   []*des.Shard
	fwd    []*des.Link
	notice []*des.Link
	heads  []Sink

	policy    Policy
	netDelay  des.Time
	fbDelay   des.Time
	pool      *workload.Pool
	inflight  []int
	submitted []int
	next      int
	arrivals  int
}

// NewExchange builds the sharded cluster front end: one front shard
// plus one shard per replica, wired with forward (request) links of
// netDelay and feedback (completion-notice) links of feedbackDelay.
// Both delays must be positive — they are the lookahead conservative
// synchronization runs on. pool may be nil; when set, completion
// notices recycle requests into it.
func NewExchange(policy Policy, replicas int, netDelay, feedbackDelay time.Duration, pool *workload.Pool) (*Exchange, error) {
	policy, err := ResolvePolicy(policy)
	if err != nil {
		return nil, err
	}
	if replicas <= 0 {
		return nil, fmt.Errorf("serve: exchange needs at least one replica, got %d", replicas)
	}
	if netDelay <= 0 || feedbackDelay <= 0 {
		return nil, fmt.Errorf("serve: exchange needs positive network delays (the conservative lookahead), got %v/%v", netDelay, feedbackDelay)
	}
	x := &Exchange{
		policy:    policy,
		netDelay:  des.Time(netDelay),
		fbDelay:   des.Time(feedbackDelay),
		pool:      pool,
		group:     des.NewGroup(),
		heads:     make([]Sink, replicas),
		inflight:  make([]int, replicas),
		submitted: make([]int, replicas),
	}
	x.front = x.group.AddShard()
	for i := 0; i < replicas; i++ {
		i := i
		rep := x.group.AddShard()
		x.reps = append(x.reps, rep)
		fwd, err := des.Connect(x.front, rep, x.netDelay, func(arg any) {
			x.heads[i](arg.(*workload.Request))
		})
		if err != nil {
			return nil, err
		}
		back, err := des.Connect(rep, x.front, x.fbDelay, func(arg any) {
			req := arg.(*workload.Request)
			x.inflight[i]--
			if x.pool != nil {
				x.pool.Put(req)
			}
		})
		if err != nil {
			return nil, err
		}
		x.fwd = append(x.fwd, fwd)
		x.notice = append(x.notice, back)
	}
	return x, nil
}

// FrontSim returns the front shard's simulator — where arrivals,
// drift events, and routing execute.
func (x *Exchange) FrontSim() *des.Sim { return &x.front.Sim }

// ReplicaSim returns replica i's simulator; build that replica's
// pipeline on it.
func (x *Exchange) ReplicaSim(i int) *des.Sim { return &x.reps[i].Sim }

// BindReplica installs replica i's pipeline head; forwarded requests
// enter it when their network transit ends.
func (x *Exchange) BindReplica(i int, head Sink) { x.heads[i] = head }

// NoticeSink returns the sink replica i's pipeline must invoke as its
// terminal stage: it ships the
// completed request back to the front, one feedback delay later. The
// replica must not touch the request afterwards — ownership moves back
// to the front shard with the message.
func (x *Exchange) NoticeSink(i int) Sink {
	l := x.notice[i]
	sim := &x.reps[i].Sim
	d := x.fbDelay
	return func(req *workload.Request) {
		l.Send(sim.Now()+d, req)
	}
}

// Submit routes one arrival — the front pipeline's head. It restamps
// the request ID with the global arrival index (so records can be kept
// in front arrival order even when several generators multiplex onto
// the front timeline), picks a replica by the least-loaded scan with
// its round-robin tie-break (or the cursor alone under round-robin),
// and puts the request on the wire.
func (x *Exchange) Submit(req *workload.Request) {
	req.ID = x.arrivals
	x.arrivals++
	pick := x.next
	if x.policy == LeastLoaded {
		// From the cursor round the ring, first strictly smaller load wins.
		for c := x.next + 1; c < len(x.inflight); c++ {
			if x.inflight[c] < x.inflight[pick] {
				pick = c
			}
		}
		for c := 0; c < x.next; c++ {
			if x.inflight[c] < x.inflight[pick] {
				pick = c
			}
		}
	}
	if x.next++; x.next == len(x.fwd) {
		x.next = 0
	}
	x.inflight[pick]++
	x.submitted[pick]++
	x.fwd[pick].Send(x.front.Sim.Now()+x.netDelay, req)
}

// Submitted returns how many requests were routed to replica i.
func (x *Exchange) Submitted(i int) int { return x.submitted[i] }

// Run executes every shard to the deadline on the given number of
// worker goroutines. The result is bit-identical for any workers
// value; workers ≤ 1 stays on the calling goroutine.
func (x *Exchange) Run(deadline des.Time, workers int) {
	x.group.Run(deadline, workers)
}
