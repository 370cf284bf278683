package serve

import (
	"fmt"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/stats"
	"vectorliterag/internal/workload"
)

// ResilienceConfig selects the failure-handling behaviors of a
// ResilientRouter. The zero value of each knob disables that behavior,
// so the router degenerates gracefully toward the plain Router.
type ResilienceConfig struct {
	// Policy is the routing policy over *healthy* replicas.
	Policy Policy

	// Timeout is the per-attempt deadline: an attempt that has not
	// completed Timeout after dispatch is retried (if budget remains)
	// or failed. Zero disables timeouts — and with them retries.
	Timeout time.Duration

	// MaxRetries bounds how many times a request may be re-dispatched
	// after its first attempt (timeouts and crash failovers both consume
	// the budget). Zero means a timed-out or crashed-away request fails
	// immediately.
	MaxRetries int

	// Backoff is the delay before the first re-dispatch; successive
	// retries double it (exponential backoff). Crash failovers skip the
	// backoff — the replica is known dead, not suspected slow.
	Backoff time.Duration

	// HedgeDelay fires a backup copy of a still-running request on a
	// different healthy replica this long after dispatch; the first
	// completion wins and the loser is discarded. Zero (with HedgeAuto
	// unset) disables hedging.
	HedgeDelay time.Duration

	// HedgeAuto derives the hedge delay from the running p95 of
	// completed first-attempt latencies instead of a fixed HedgeDelay,
	// once enough samples accumulate (HedgeDelay serves as the floor and
	// the pre-warmup value).
	HedgeAuto bool

	// Degrade enables the graceful-degradation controller: while some
	// replicas are down, dispatched requests carry a Degrade fraction
	// equal to the lost capacity share, capped at degradeMax, and
	// retrieval sheds that fraction of nprobe depth.
	Degrade bool
}

// degradeMax caps the graceful-degradation shed fraction: even with
// most replicas down, at least half the probe depth survives.
const degradeMax = 0.5

// normalized fills defaults and validates the config.
func (c ResilienceConfig) normalized() (ResilienceConfig, error) {
	var err error
	if c.Policy, err = ResolvePolicy(c.Policy); err != nil {
		return c, err
	}
	if c.MaxRetries < 0 {
		return c, fmt.Errorf("serve: negative MaxRetries %d", c.MaxRetries)
	}
	if c.Timeout < 0 || c.Backoff < 0 || c.HedgeDelay < 0 {
		return c, fmt.Errorf("serve: negative resilience durations (timeout %v, backoff %v, hedge %v)", c.Timeout, c.Backoff, c.HedgeDelay)
	}
	if c.Backoff == 0 {
		c.Backoff = 50 * time.Millisecond
	}
	return c, nil
}

// hedging reports whether any hedge trigger is configured.
func (c *ResilienceConfig) hedging() bool { return c.HedgeDelay > 0 || c.HedgeAuto }

// ResilienceStats counts the failure-handling actions of one run.
type ResilienceStats struct {
	Retried    int // re-dispatches after timeout or crash failover
	FailedOver int // subset of Retried caused by a replica crash
	Hedged     int // backup copies fired
	HedgeWins  int // completions where the backup finished first
	TimedOut   int // per-attempt deadline expiries
	Failed     int // requests abandoned with the retry budget exhausted
	Ghosts     int // superseded copies that drained from their pipeline
	Crashes    int // crash episodes observed
}

// attempt is the router's per-request control block: the currently
// authoritative copy (primary), an optional racing backup (hedge), and
// the fencing state that lets timers fire harmlessly after the world
// has moved on (DES events cannot be cancelled, so every timer captures
// the seq it was armed under and no-ops on mismatch).
type attempt struct {
	primary    *workload.Request
	hedge      *workload.Request
	primaryRep int
	tries      int    // dispatches consumed (first attempt = 1)
	seq        uint64 // bumped on retry/completion/failure; fences timers
	crashID    int    // index of the crash that failed this attempt over, or -1
	// pending marks a primary copy created for a retry whose backoff
	// delay has not expired yet: it is on no replica, so superseding it
	// releases it directly instead of letting it drain as a ghost.
	pending bool
}

// ResilientRouter is the failure-aware cluster front end: a Router that
// additionally tracks replica health (crashed replicas leave the
// candidate set and their in-flight requests fail over), enforces
// per-attempt timeouts with bounded exponential-backoff retries, races
// hedged backups, and stamps graceful-degradation fractions while
// capacity is down.
//
// Superseded copies are never yanked out of their pipelines — the
// simulator cannot cancel events — they finish as *ghosts*: their
// terminal completion finds no attempt entry and quietly returns the
// object to the pool. All bookkeeping that must not see ghosts (the
// collector, latency samples, recovery tracking) is therefore keyed by
// the attempts map, and per-replica in-flight lists are ordered slices,
// never map iterations, keeping every run bit-reproducible.
type ResilientRouter struct {
	sim  *des.Sim
	cfg  ResilienceConfig
	reps []*Replica
	pool *workload.Pool
	coll *Collector

	up   []bool
	nUp  int
	next int // round-robin cursor

	attempts map[*workload.Request]*attempt
	liveOn   []liveList // per-replica dispatch-ordered copies

	samples  []float64  // clean first-attempt latencies (seconds) for HedgeAuto
	scratch  []float64  // reusable quantile scratch
	crashAt  []des.Time // per-crash onset
	healedBy []des.Time // per-crash last failed-over completion

	stats ResilienceStats
}

// NewResilientRouter builds the failure-aware front end over bound
// replicas. coll must be the front collector that admitted the
// requests; pool receives every finished or superseded copy.
func NewResilientRouter(sim *des.Sim, cfg ResilienceConfig, replicas []*Replica, coll *Collector, pool *workload.Pool) (*ResilientRouter, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if len(replicas) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one replica")
	}
	for i, r := range replicas {
		if r == nil || r.pipe == nil {
			return nil, fmt.Errorf("serve: replica %d has no pipeline bound", i)
		}
	}
	if coll == nil || pool == nil {
		return nil, fmt.Errorf("serve: resilient router needs a collector and a pool")
	}
	up := make([]bool, len(replicas))
	for i := range up {
		up[i] = true
	}
	return &ResilientRouter{
		sim:      sim,
		cfg:      cfg,
		reps:     replicas,
		pool:     pool,
		coll:     coll,
		up:       up,
		nUp:      len(replicas),
		attempts: make(map[*workload.Request]*attempt),
		liveOn:   make([]liveList, len(replicas)),
	}, nil
}

// Name implements Stage.
func (r *ResilientRouter) Name() string {
	return fmt.Sprintf("resilient-router(%s,%d)", r.cfg.Policy, len(r.reps))
}

// Stats returns the run's resilience counters.
func (r *ResilientRouter) Stats() ResilienceStats { return r.stats }

// Recoveries returns, per crash episode, the virtual time from the
// crash instant to the completion of the last request failed over off
// the crashed replica — the router's time-to-recover. Crashes whose
// failovers never completed report a negative duration.
func (r *ResilientRouter) Recoveries() []time.Duration {
	out := make([]time.Duration, len(r.crashAt))
	for i := range r.crashAt {
		out[i] = time.Duration(r.healedBy[i] - r.crashAt[i])
	}
	return out
}

// Submit implements Stage: the entry point for fresh arrivals.
func (r *ResilientRouter) Submit(req *workload.Request) {
	att := &attempt{primary: req, tries: 1, crashID: -1, pending: true}
	r.attempts[req] = att
	r.dispatch(att)
}

// pick selects a healthy replica per the policy, skipping exclude
// (pass -1 to allow all). Returns -1 when no healthy candidate exists.
func (r *ResilientRouter) pick(exclude int) int {
	n := len(r.reps)
	pick := -1
	for k := 0; k < n; k++ {
		i := (r.next + k) % n
		if !r.up[i] || i == exclude {
			continue
		}
		if pick < 0 {
			pick = i
			if r.cfg.Policy == RoundRobin {
				break
			}
			continue
		}
		if r.reps[i].inflight < r.reps[pick].inflight {
			pick = i
		}
	}
	if pick >= 0 {
		r.next++
	}
	return pick
}

// dispatch places the attempt's primary copy on a healthy replica,
// arming its timeout and (first dispatch only) hedge timers. With no
// healthy replica it burns a retry slot waiting out a backoff.
func (r *ResilientRouter) dispatch(att *attempt) {
	i := r.pick(-1)
	if i < 0 {
		r.retry(att, false)
		return
	}
	req := att.primary
	att.pending = false
	att.primaryRep = i
	r.stampDegrade(req)
	rep := r.reps[i]
	rep.inflight++
	rep.submitted++
	r.liveOn[i].push(req)
	seq := att.seq
	if r.cfg.Timeout > 0 {
		r.sim.After(r.cfg.Timeout, func() { r.onTimeout(att, seq) })
	}
	if r.cfg.hedging() && att.hedge == nil && att.tries == 1 {
		r.sim.After(r.hedgeDelay(), func() { r.onHedge(att, seq) })
	}
	rep.pipe.Submit(req)
}

// stampDegrade writes the graceful-degradation fraction for the
// current capacity level onto a copy about to be dispatched.
func (r *ResilientRouter) stampDegrade(req *workload.Request) {
	if !r.cfg.Degrade {
		return
	}
	down := float64(len(r.reps)-r.nUp) / float64(len(r.reps))
	req.Degrade = min(down, degradeMax)
}

// hedgeDelay returns the current backup-fire delay: the fixed
// HedgeDelay, or under HedgeAuto the p95 of clean first-attempt
// latencies once 20 samples exist (never below the fixed floor).
func (r *ResilientRouter) hedgeDelay() time.Duration {
	d := r.cfg.HedgeDelay
	if !r.cfg.HedgeAuto || len(r.samples) < 20 {
		if d == 0 {
			d = time.Second // pre-warmup fallback for pure HedgeAuto
		}
		return d
	}
	r.scratch = append(r.scratch[:0], r.samples...)
	// Interpolated quantile, not scratch[(len*95)/100]: that index is
	// the sample *maximum* at the 20-sample warmup boundary, which made
	// the auto delay track the slowest clean attempt instead of the p95.
	var p95 [1]float64
	stats.SelectPercentiles(r.scratch, []float64{0.95}, p95[:])
	if auto := time.Duration(p95[0] * float64(time.Second)); auto > d {
		return auto
	}
	return d
}

// onTimeout fires when an attempt's per-dispatch deadline expires.
func (r *ResilientRouter) onTimeout(att *attempt, seq uint64) {
	if att.seq != seq {
		return // completed, retried, or failed in the meantime
	}
	r.stats.TimedOut++
	r.retry(att, false)
}

// retry supersedes the attempt's current primary with a fresh copy and
// re-dispatches — immediately for crash failovers, after exponential
// backoff otherwise. An exhausted budget fails the request.
func (r *ResilientRouter) retry(att *attempt, immediate bool) {
	if att.tries > r.cfg.MaxRetries {
		r.fail(att)
		return
	}
	old := att.primary
	cp := r.clone(old)
	if att.pending {
		// The superseded copy never reached a replica; reclaim it here
		// rather than waiting for a ghost drain that will never come.
		delete(r.attempts, old)
		r.pool.Put(old)
	} else {
		delete(r.attempts, old) // in-flight somewhere: drains as a ghost
	}
	r.coll.Replace(old, cp)
	att.primary = cp
	att.pending = true
	r.attempts[cp] = att
	att.tries++
	att.seq++
	r.stats.Retried++
	seq := att.seq
	if immediate {
		r.dispatch(att)
		return
	}
	backoff := r.cfg.Backoff << uint(att.tries-2)
	r.sim.After(backoff, func() {
		if att.seq == seq {
			r.dispatch(att)
		}
	})
}

// clone draws a pooled copy carrying the request's identity; the
// timeline fields restart so the copy flows through its pipeline like a
// fresh submission (ArrivalAt is preserved — latency is end-to-end from
// the user's perspective, retries included).
func (r *ResilientRouter) clone(old *workload.Request) *workload.Request {
	cp := r.pool.Get()
	cp.ID = old.ID
	cp.Query = old.Query
	cp.Shape = old.Shape
	cp.Tenant = old.Tenant
	cp.ArrivalAt = old.ArrivalAt
	return cp
}

// fail abandons a request whose retry budget is exhausted: its record
// freezes unserved, and any copies still draining become ghosts.
func (r *ResilientRouter) fail(att *attempt) {
	r.stats.Failed++
	att.seq++
	r.coll.Abandon(att.primary)
	if att.pending {
		delete(r.attempts, att.primary)
		r.pool.Put(att.primary)
	} else {
		delete(r.attempts, att.primary)
	}
	if att.hedge != nil {
		delete(r.attempts, att.hedge)
		att.hedge = nil
	}
}

// onHedge fires the backup copy on a healthy replica other than the
// primary's. Skipped when the attempt has moved on, a hedge already
// exists, or no second replica is available.
func (r *ResilientRouter) onHedge(att *attempt, seq uint64) {
	if att.seq != seq || att.hedge != nil || att.pending {
		return
	}
	i := r.pick(att.primaryRep)
	if i < 0 {
		return
	}
	cp := r.clone(att.primary)
	att.hedge = cp
	r.attempts[cp] = att
	r.stampDegrade(cp)
	rep := r.reps[i]
	rep.inflight++
	rep.submitted++
	r.liveOn[i].push(cp)
	r.stats.Hedged++
	rep.pipe.Submit(cp)
}

// Complete settles one copy finishing on replica i. It is exported so
// callers that must build replica pipelines *before* the router exists
// can wire a late-bound closure as each terminal sink.
func (r *ResilientRouter) Complete(i int, req *workload.Request) {
	r.liveOn[i].remove(req)
	r.reps[i].Release(req)
	att, ok := r.attempts[req]
	if !ok {
		r.stats.Ghosts++
		r.pool.Put(req)
		return
	}
	att.seq++ // fence outstanding timeout/hedge/backoff timers
	delete(r.attempts, req)
	isHedge := req == att.hedge
	if isHedge {
		r.stats.HedgeWins++
		// The collector tracks the primary; hand its record the winner.
		r.coll.Replace(att.primary, req)
		delete(r.attempts, att.primary)
		if att.pending {
			r.pool.Put(att.primary) // retry copy awaiting backoff, on no replica
		}
		// else: in flight on some replica, drains as a ghost
	} else if att.hedge != nil {
		delete(r.attempts, att.hedge) // drains as a ghost
	}
	r.coll.Done(req)
	if att.crashID >= 0 && r.healedBy[att.crashID] < r.sim.Now() {
		r.healedBy[att.crashID] = r.sim.Now()
	}
	if att.tries == 1 && !isHedge {
		r.samples = append(r.samples, float64(req.Done-req.ArrivalAt)/float64(time.Second))
	}
	r.pool.Put(req)
}

// Crash takes replica i out of the candidate set and fails over its
// in-flight primaries (in dispatch order, so the failover sequence is
// deterministic). Hedge copies on the crashed replica are dropped;
// their primaries race on alone. The replica's pipeline keeps draining
// in virtual time — its completions arrive as ghosts, modeling
// responses lost with the node.
func (r *ResilientRouter) Crash(i int) {
	if !r.up[i] {
		return
	}
	r.up[i] = false
	r.nUp--
	r.stats.Crashes++
	crashID := len(r.crashAt)
	r.crashAt = append(r.crashAt, r.sim.Now())
	r.healedBy = append(r.healedBy, r.sim.Now()-1)
	// The crashed replica is out of the candidate set, so failing over
	// dispatches nothing onto the list being walked.
	list := &r.liveOn[i]
	for k := range list.n {
		req := list.at(k)
		att, ok := r.attempts[req]
		if !ok {
			continue // already a ghost; it drains regardless
		}
		if req == att.hedge {
			att.hedge = nil
			delete(r.attempts, req)
			continue
		}
		att.crashID = crashID
		r.stats.FailedOver++
		r.retry(att, true)
	}
	list.reset()
}

// Recover returns replica i to the candidate set.
func (r *ResilientRouter) Recover(i int) {
	if r.up[i] {
		return
	}
	r.up[i] = true
	r.nUp++
}

// liveList is one replica's in-flight copies in dispatch order, held in
// a ring so that a completion shifts only the shorter side of the
// removed entry. Completions arrive in nearly FIFO order, so that side
// is usually short, and the ring reuses its buffer instead of losing
// capacity at the front.
type liveList struct {
	buf     []*workload.Request
	head, n int
}

// slot maps list position k in [0, n] to its index in buf.
func (l *liveList) slot(k int) int {
	j := l.head + k
	if j >= len(l.buf) {
		j -= len(l.buf)
	}
	return j
}

func (l *liveList) at(k int) *workload.Request { return l.buf[l.slot(k)] }

func (l *liveList) push(req *workload.Request) {
	if l.n == len(l.buf) {
		grown := make([]*workload.Request, max(8, 2*l.n))
		for k := range l.n {
			grown[k] = l.at(k)
		}
		l.buf, l.head = grown, 0
	}
	l.buf[l.slot(l.n)] = req
	l.n++
}

// remove drops req, keeping the others in dispatch order; a copy that
// is not on the list is ignored.
func (l *liveList) remove(req *workload.Request) {
	k := 0
	for k < l.n && l.at(k) != req {
		k++
	}
	if k == l.n {
		return
	}
	if k < l.n-1-k {
		for ; k > 0; k-- { // shift the head side one step back
			l.buf[l.slot(k)] = l.at(k - 1)
		}
		l.buf[l.head] = nil
		l.head = l.slot(1)
	} else {
		for ; k < l.n-1; k++ { // shift the tail side one step forward
			l.buf[l.slot(k)] = l.at(k + 1)
		}
		l.buf[l.slot(k)] = nil
	}
	l.n--
}

// reset empties the list, keeping its buffer.
func (l *liveList) reset() {
	clear(l.buf)
	l.head, l.n = 0, 0
}
