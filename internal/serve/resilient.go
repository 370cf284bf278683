package serve

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/stats"
	"vectorliterag/internal/workload"
)

// ResilienceConfig selects the failure-handling behaviors of a
// ResilientRouter. The zero value of each knob disables that behavior,
// so with every knob at zero the router only routes, health-aware.
type ResilienceConfig struct {
	// Policy is the routing policy over *healthy* replicas.
	Policy Policy

	// Timeout is the per-attempt deadline, and it runs from dispatch to
	// the attempt's last token, not its first: an attempt that has not
	// finished generating Timeout after dispatch is retried (if budget
	// remains) or failed. Under load an attempt's whole generation can
	// outlast a deadline that an idle replica meets, and then every
	// attempt times out. Zero disables timeouts — and with them retries.
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

// attempt is the router's per-request control block: the request's
// record (its arrival's slot, which no replica ever sees), the currently
// authoritative copy (primary), an optional racing backup (hedge), and
// the fencing state that lets timers fire harmlessly after the world
// has moved on (DES events cannot be cancelled, so every timer captures
// the seq it was armed under and no-ops on mismatch).
type attempt struct {
	rec        *workload.Request
	primary    *workload.Request
	hedge      *workload.Request
	primaryRep int
	hedgeRep   int
	tries      int    // dispatches consumed (first attempt = 1)
	seq        uint64 // bumped on retry/completion/failure; fences timers
	crashID    int    // index of the crash that failed this attempt over, or -1
	// pending marks a primary copy created for a retry whose backoff
	// delay has not expired yet: it is on no replica, so superseding it
	// releases it directly instead of letting it drain as a ghost.
	pending bool
	// Each copy's send stamp (sent), the order a crash fails copies over.
	primarySent, hedgeSent uint64
}

// timer is an armed timeout, hedge or backoff: its attempt and the seq
// it was armed under. Fired timers and finished attempts are reused; a
// stale timer stays harmless after its attempt is, since seq only grows.
type timer struct {
	att *attempt
	seq uint64
}

// ResilientRouter is the failure-aware cluster front end: it routes by
// the policy over healthy replicas only (crashed replicas leave the
// candidate set and their in-flight requests fail over), enforces
// per-attempt timeouts with bounded exponential-backoff retries, races
// hedged backups, and stamps graceful-degradation fractions while
// capacity is down.
//
// It dispatches only copies from its own pool: the arrival's slot is the
// request's record, and the router writes the outcome into it — the
// winner, the failed primary, or the primary at the deadline (Settle).
//
// Superseded copies are never yanked out of their pipelines — the
// simulator cannot cancel events — they finish as *ghosts*: their
// terminal completion finds no attempt entry and quietly returns the
// object to the pool. All bookkeeping that must not see ghosts (the
// records, latency samples, recovery tracking) is therefore keyed by
// the attempts map. A crash finds its replica's copies there too and
// fails them over in send order, never map order, keeping every run
// bit-reproducible.
type ResilientRouter struct {
	sim  *des.Sim
	cfg  ResilienceConfig
	reps []replica
	pool workload.Pool

	up   []bool
	nUp  int
	next int // round-robin cursor

	attempts map[*workload.Request]*attempt
	sent     uint64 // copies sent so far: the next copy's send stamp

	spareAtts   []*attempt
	spareTimers []*timer
	// The timer callbacks, bound once: arming a timer allocates nothing.
	timeoutFn, hedgeFn, backoffFn func(any)

	samples  []float64  // HedgeAuto only: clean first-attempt latencies (seconds)
	scratch  []float64  // reusable quantile scratch
	crashAt  []des.Time // per-crash onset
	healedBy []des.Time // per-crash last failed-over completion

	stats ResilienceStats
}

// replica is one node behind the router: the head its node takes
// requests by, and the in-flight accounting the least-loaded policy
// reads.
type replica struct {
	submit    Sink
	inflight  int
	submitted int
}

// release records one copy leaving the replica. Every completion, a
// ghost's too, matches one send to this replica, but the gauge is still
// guarded against underflow: a negative gauge would make the
// least-loaded policy prefer this replica forever.
func (rep *replica) release() {
	if rep.inflight > 0 {
		rep.inflight--
	}
}

// NewResilientRouter builds the failure-aware front end over one node
// head per replica. A node's terminal sink reports back through
// Complete, so the nodes may be built before the router.
func NewResilientRouter(sim *des.Sim, cfg ResilienceConfig, heads []Sink) (*ResilientRouter, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if len(heads) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one replica")
	}
	reps := make([]replica, len(heads))
	up := make([]bool, len(heads))
	for i, h := range heads {
		if h == nil {
			return nil, fmt.Errorf("serve: replica %d has no node bound", i)
		}
		reps[i].submit, up[i] = h, true
	}
	r := &ResilientRouter{
		sim:      sim,
		cfg:      cfg,
		reps:     reps,
		up:       up,
		nUp:      len(heads),
		attempts: make(map[*workload.Request]*attempt),
	}
	r.timeoutFn, r.hedgeFn, r.backoffFn = r.onTimeout, r.onHedge, r.onBackoff
	return r, nil
}

// Stats returns the run's resilience counters.
func (r *ResilientRouter) Stats() ResilienceStats { return r.stats }

// Submitted returns how many copies were routed to replica i: first
// attempts, retries and hedges alike.
func (r *ResilientRouter) Submitted(i int) int { return r.reps[i].submitted }

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

// Submit is the entry point for fresh arrivals. rec is the request's
// record: the router keeps it, dispatches a copy as the first attempt,
// and writes the request's outcome back into it, so rec must stay put
// until the run is over and Settle has run.
func (r *ResilientRouter) Submit(rec *workload.Request) {
	att := reuse(&r.spareAtts)
	*att = attempt{rec: rec, primary: r.clone(rec), tries: 1, seq: att.seq, crashID: -1, pending: true}
	r.attempts[att.primary] = att
	r.dispatch(att)
}

// arm schedules fire (timeoutFn, hedgeFn or backoffFn) for att d from
// now, fenced by the attempt's current seq.
func (r *ResilientRouter) arm(d time.Duration, fire func(any), att *attempt) {
	tm := reuse(&r.spareTimers)
	*tm = timer{att: att, seq: att.seq}
	r.sim.AfterArg(d, fire, tm)
}

// fired spares a timer that fired and returns its attempt, and whether
// the attempt is still where it was when the timer was armed.
func (r *ResilientRouter) fired(arg any) (*attempt, bool) {
	tm := arg.(*timer)
	att, current := tm.att, tm.att.seq == tm.seq
	*tm = timer{}
	r.spareTimers = append(r.spareTimers, tm)
	return att, current
}

// Settle writes every request still in flight into its record as its
// primary stands now; each writes only its own slot, so the map's order
// cannot show. Call it once the run is over, before anything moves the
// records.
func (r *ResilientRouter) Settle() {
	for _, att := range r.attempts {
		*att.rec = *att.primary
	}
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
	att.pending = false
	att.primaryRep, att.primarySent = i, r.sent
	if r.cfg.Timeout > 0 {
		r.arm(r.cfg.Timeout, r.timeoutFn, att)
	}
	if r.cfg.hedging() && att.hedge == nil && att.tries == 1 {
		r.arm(r.hedgeDelay(), r.hedgeFn, att)
	}
	r.send(i, att.primary)
}

// send stamps a copy's degradation fraction, counts it in flight on
// replica i and as sent, and hands it to the replica's node.
func (r *ResilientRouter) send(i int, req *workload.Request) {
	r.stampDegrade(req)
	rep := &r.reps[i]
	rep.inflight++
	rep.submitted++
	r.sent++
	rep.submit(req)
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
func (r *ResilientRouter) onTimeout(arg any) {
	att, current := r.fired(arg)
	if !current {
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
	att.primary = cp
	att.pending = true
	r.attempts[cp] = att
	att.tries++
	att.seq++
	r.stats.Retried++
	if immediate {
		r.dispatch(att)
		return
	}
	r.arm(r.cfg.Backoff<<uint(att.tries-2), r.backoffFn, att)
}

// onBackoff re-dispatches a retry once its backoff delay has expired,
// unless the attempt has moved on in the meantime.
func (r *ResilientRouter) onBackoff(arg any) {
	if att, current := r.fired(arg); current {
		r.dispatch(att)
	}
}

// clone draws a pooled copy carrying the request's identity — the five
// fields an arrival generator sets; the timeline fields restart so the
// copy flows through its pipeline like a fresh submission (ArrivalAt is
// preserved — latency is end-to-end from the user's perspective,
// retries included).
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
	*att.rec = *att.primary
	delete(r.attempts, att.primary)
	if att.pending {
		r.pool.Put(att.primary)
	}
	if att.hedge != nil {
		delete(r.attempts, att.hedge)
	}
	r.spareAtts = append(r.spareAtts, att)
}

// onHedge fires the backup copy on a healthy replica other than the
// primary's. Skipped when the attempt has moved on, a hedge already
// exists, or no second replica is available.
func (r *ResilientRouter) onHedge(arg any) {
	att, current := r.fired(arg)
	if !current || att.hedge != nil || att.pending {
		return
	}
	i := r.pick(att.primaryRep)
	if i < 0 {
		return
	}
	cp := r.clone(att.primary)
	att.hedge, att.hedgeRep, att.hedgeSent = cp, i, r.sent
	r.attempts[cp] = att
	r.stats.Hedged++
	r.send(i, cp)
}

// Complete settles one copy finishing on replica i. It is exported so
// callers that must build replica pipelines *before* the router exists
// can wire a late-bound closure as each terminal sink.
func (r *ResilientRouter) Complete(i int, req *workload.Request) {
	r.reps[i].release()
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
		delete(r.attempts, att.primary)
		if att.pending {
			r.pool.Put(att.primary) // retry copy awaiting backoff, on no replica
		}
		// else: in flight on some replica, drains as a ghost
	} else if att.hedge != nil {
		delete(r.attempts, att.hedge) // drains as a ghost
	}
	*att.rec = *req
	if att.crashID >= 0 && r.healedBy[att.crashID] < r.sim.Now() {
		r.healedBy[att.crashID] = r.sim.Now()
	}
	if r.cfg.HedgeAuto && att.tries == 1 && !isHedge {
		r.samples = append(r.samples, float64(req.Done-req.ArrivalAt)/float64(time.Second))
	}
	r.pool.Put(req)
	r.spareAtts = append(r.spareAtts, att)
}

// crashed is one copy on a crashed replica and its send stamp.
type crashed struct {
	sent uint64
	req  *workload.Request
}

// Crash takes replica i out of the candidate set and fails over its
// in-flight primaries (in send order, so the failover sequence is
// deterministic). Hedge copies on the crashed replica are dropped;
// their primaries race on alone. The replica's pipeline keeps draining
// in virtual time — its completions arrive as ghosts, modeling
// responses lost with the node. A primary awaiting its backoff is on
// no replica, and one sent to i before an earlier crash was superseded.
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
	var doomed []crashed
	for req, att := range r.attempts {
		switch {
		case req == att.hedge && att.hedgeRep == i:
			doomed = append(doomed, crashed{att.hedgeSent, req})
		case req == att.primary && !att.pending && att.primaryRep == i:
			doomed = append(doomed, crashed{att.primarySent, req})
		}
	}
	slices.SortFunc(doomed, func(a, b crashed) int { return cmp.Compare(a.sent, b.sent) })
	// The crashed replica is out of the candidate set, so failing over
	// sends nothing to it.
	for _, d := range doomed {
		req := d.req
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
}

// Recover returns replica i to the candidate set.
func (r *ResilientRouter) Recover(i int) {
	if r.up[i] {
		return
	}
	r.up[i] = true
	r.nUp++
}

// reuse pops the last of spares, or returns a new T when there is none.
func reuse[T any](spares *[]*T) *T {
	n := len(*spares)
	if n == 0 {
		return new(T)
	}
	t := (*spares)[n-1]
	*spares = (*spares)[:n-1]
	return t
}
