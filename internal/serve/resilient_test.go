package serve

import (
	"slices"
	"testing"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/workload"
)

// svcStage is a one-stage fake replica: it "serves" each request after
// a per-replica virtual delay and stamps its completion fields.
type svcStage struct {
	sim  *des.Sim
	rep  int
	svc  func(rep int, req *workload.Request) time.Duration
	next Sink
}

func (s *svcStage) Name() string { return "svc" }

func (s *svcStage) Submit(req *workload.Request) {
	d := s.svc(s.rep, req)
	s.sim.After(d, func() {
		now := s.sim.Now()
		req.SearchStart = req.ArrivalAt
		req.SearchDone = now
		req.LLMStart = now
		req.FirstToken = now
		req.Done = now
		s.next(req)
	})
}

// resilientHarness wires n fake replicas behind a ResilientRouter plus
// the admission front the rag layer composes.
type resilientHarness struct {
	sim    *des.Sim
	router *ResilientRouter
	front  *Pipeline
	coll   *Collector
	pool   *workload.Pool
	nextID int
}

func newResilientHarness(t *testing.T, sim *des.Sim, cfg ResilienceConfig, n int, svc func(rep int, req *workload.Request) time.Duration) *resilientHarness {
	t.Helper()
	pool := &workload.Pool{}
	coll := NewCollector()
	var router *ResilientRouter
	reps := make([]*Replica, n)
	for i := range reps {
		i := i
		rep := NewReplica()
		pipe, err := Compose(sim,
			func(req *workload.Request) { router.Complete(i, req) },
			func(next Sink) (Stage, error) {
				return &svcStage{sim: sim, rep: i, svc: svc, next: next}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		rep.Bind(pipe)
		reps[i] = rep
	}
	router, err := NewResilientRouter(sim, cfg, reps, coll, pool)
	if err != nil {
		t.Fatal(err)
	}
	front, err := Compose(sim, router.Submit, Admit(coll))
	if err != nil {
		t.Fatal(err)
	}
	return &resilientHarness{sim: sim, router: router, front: front, coll: coll, pool: pool}
}

// arriveAt schedules one arrival at the given instant.
func (h *resilientHarness) arriveAt(at des.Time) {
	id := h.nextID
	h.nextID++
	h.sim.At(at, func() {
		req := h.pool.Get()
		req.ID = id
		req.ArrivalAt = h.sim.Now()
		h.front.Submit(req)
	})
}

// settled asserts the run left no dangling control blocks or replica
// gauge residue — every copy either completed, failed, or drained.
func (h *resilientHarness) settled(t *testing.T) {
	t.Helper()
	if len(h.router.attempts) != 0 {
		t.Errorf("%d attempts still tracked after drain", len(h.router.attempts))
	}
	for i, rep := range h.router.reps {
		if rep.Inflight() != 0 {
			t.Errorf("replica %d inflight gauge %d after drain", i, rep.Inflight())
		}
		if h.router.liveOn[i].n != 0 {
			t.Errorf("replica %d liveOn list non-empty after drain", i)
		}
	}
}

func TestResilientCrashFailover(t *testing.T) {
	var sim des.Sim
	cfg := ResilienceConfig{Policy: RoundRobin, Timeout: 10 * time.Second, MaxRetries: 2}
	// Both replicas serve in 100ms.
	h := newResilientHarness(t, &sim, cfg, 2, func(rep int, req *workload.Request) time.Duration {
		return 100 * time.Millisecond
	})
	h.arriveAt(0)                          // -> replica 0, would finish at 100ms
	h.arriveAt(des.Time(time.Millisecond)) // -> replica 1
	sim.At(des.Time(50*time.Millisecond), func() { h.router.Crash(0) })
	sim.At(des.Time(300*time.Millisecond), func() { h.router.Recover(0) })
	h.arriveAt(des.Time(60 * time.Millisecond)) // while 0 is down -> must go to 1
	sim.RunUntil(des.Time(5 * time.Second))

	if got := h.coll.Completed(); got != 3 {
		t.Fatalf("completed %d, want 3", got)
	}
	st := h.router.Stats()
	if st.Crashes != 1 || st.FailedOver != 1 || st.Retried != 1 {
		t.Fatalf("stats %+v: want 1 crash, 1 failover, 1 retry", st)
	}
	// The failed-over copy's original drains from replica 0's pipeline
	// as a ghost.
	if st.Ghosts != 1 {
		t.Fatalf("ghosts %d, want 1", st.Ghosts)
	}
	// Request 0 failed over at 50ms and redispatched immediately; its
	// record must show a completion at 150ms, not the doomed 100ms.
	reqs := h.coll.Requests()
	if got := time.Duration(reqs[0].Done); got != 150*time.Millisecond {
		t.Fatalf("failed-over request finished at %v, want 150ms", got)
	}
	recov := h.router.Recoveries()
	if len(recov) != 1 || recov[0] != 100*time.Millisecond {
		t.Fatalf("recoveries %v, want [100ms] (crash at 50ms, failover done at 150ms)", recov)
	}
	// While replica 0 was down it must receive nothing; the third
	// arrival landed on replica 1.
	if h.router.reps[0].Submitted() != 1 || h.router.reps[1].Submitted() != 3 {
		t.Fatalf("submitted = [%d %d], want [1 3]", h.router.reps[0].Submitted(), h.router.reps[1].Submitted())
	}
	h.settled(t)
}

func TestResilientTimeoutRetryAndExhaustion(t *testing.T) {
	var sim des.Sim
	// Replica 0 is a black hole; replica 1 is fast. Round-robin sends
	// the first arrival to 0, the timeout retries it onto 1.
	svc := func(rep int, req *workload.Request) time.Duration {
		if rep == 0 {
			return time.Hour
		}
		return 20 * time.Millisecond
	}
	cfg := ResilienceConfig{Policy: RoundRobin, Timeout: 100 * time.Millisecond, MaxRetries: 2, Backoff: 10 * time.Millisecond}
	h := newResilientHarness(t, &sim, cfg, 2, svc)
	h.arriveAt(0)
	sim.RunUntil(des.Time(time.Minute))
	st := h.router.Stats()
	if st.TimedOut != 1 || st.Retried != 1 {
		t.Fatalf("stats %+v: want 1 timeout, 1 retry", st)
	}
	if h.coll.Completed() != 1 {
		t.Fatalf("completed %d, want 1", h.coll.Completed())
	}
	// timeout 100ms + backoff 10ms + service 20ms
	if got := time.Duration(h.coll.Requests()[0].Done); got != 130*time.Millisecond {
		t.Fatalf("retried request finished at %v, want 130ms", got)
	}

	// Exhaustion: every replica is a black hole.
	var sim2 des.Sim
	h2 := newResilientHarness(t, &sim2, ResilienceConfig{Policy: RoundRobin, Timeout: 50 * time.Millisecond, MaxRetries: 1, Backoff: 10 * time.Millisecond},
		2, func(int, *workload.Request) time.Duration { return time.Hour })
	h2.arriveAt(0)
	sim2.RunUntil(des.Time(time.Minute))
	st2 := h2.router.Stats()
	if st2.Failed != 1 {
		t.Fatalf("stats %+v: want 1 failed", st2)
	}
	if h2.coll.Completed() != 0 {
		t.Fatalf("completed %d, want 0", h2.coll.Completed())
	}
	rec := h2.coll.Requests()[0]
	if rec.FirstToken != 0 {
		t.Fatalf("abandoned request has FirstToken %d, want 0 (counts unserved)", rec.FirstToken)
	}
}

func TestResilientHedgeWins(t *testing.T) {
	var sim des.Sim
	svc := func(rep int, req *workload.Request) time.Duration {
		if rep == 0 {
			return time.Second // straggling primary
		}
		return 20 * time.Millisecond
	}
	cfg := ResilienceConfig{Policy: RoundRobin, HedgeDelay: 100 * time.Millisecond}
	h := newResilientHarness(t, &sim, cfg, 2, svc)
	h.arriveAt(0)
	sim.RunUntil(des.Time(time.Minute))
	st := h.router.Stats()
	if st.Hedged != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats %+v: want 1 hedged, 1 hedge win", st)
	}
	if st.Ghosts != 1 {
		t.Fatalf("ghosts %d, want 1 (the losing primary)", st.Ghosts)
	}
	// Hedge fired at 100ms, served in 20ms.
	if got := time.Duration(h.coll.Requests()[0].Done); got != 120*time.Millisecond {
		t.Fatalf("hedged request finished at %v, want 120ms", got)
	}
	h.settled(t)
}

func TestResilientDegradeStamp(t *testing.T) {
	var sim des.Sim
	var seen []float64
	svc := func(rep int, req *workload.Request) time.Duration {
		seen = append(seen, req.Degrade)
		return 10 * time.Millisecond
	}
	cfg := ResilienceConfig{Policy: RoundRobin, Degrade: true}
	h := newResilientHarness(t, &sim, cfg, 4, svc)
	h.arriveAt(0) // full capacity: degrade 0
	sim.At(des.Time(20*time.Millisecond), func() { h.router.Crash(1) })
	h.arriveAt(des.Time(30 * time.Millisecond)) // 1 of 4 down: degrade 0.25
	sim.At(des.Time(40*time.Millisecond), func() { h.router.Crash(2) })
	sim.At(des.Time(41*time.Millisecond), func() { h.router.Crash(3) })
	h.arriveAt(des.Time(50 * time.Millisecond)) // 3 of 4 down: capped at degradeMax
	sim.At(des.Time(60*time.Millisecond), func() {
		h.router.Recover(1)
		h.router.Recover(2)
		h.router.Recover(3)
	})
	h.arriveAt(des.Time(70 * time.Millisecond)) // healed: degrade 0
	sim.RunUntil(des.Time(time.Second))
	want := []float64{0, 0.25, degradeMax, 0}
	if len(seen) != len(want) {
		t.Fatalf("saw %d dispatches, want %d", len(seen), len(want))
	}
	for i, w := range want {
		if seen[i] != w {
			t.Fatalf("dispatch %d carried degrade %v, want %v (all: %v)", i, seen[i], w, seen)
		}
	}
}

// TestReplicaReleaseGuard pins satellite-hardening of the in-flight
// gauge: release sequences that over-shoot (double release after a
// failover, release on a replica that never admitted) must clamp at
// zero instead of driving the least-loaded signal negative.
func TestReplicaReleaseGuard(t *testing.T) {
	cases := []struct {
		name     string
		admits   int
		releases int
		want     int
	}{
		{"balanced", 2, 2, 0},
		{"release after failover moved the request", 1, 2, 0},
		{"release with nothing in flight", 0, 1, 0},
		{"partial drain", 3, 1, 2},
		{"storm of stray releases", 1, 5, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := NewReplica()
			var req workload.Request
			for i := 0; i < tc.admits; i++ {
				rep.inflight++
			}
			for i := 0; i < tc.releases; i++ {
				rep.Release(&req)
			}
			if rep.Inflight() != tc.want {
				t.Fatalf("inflight %d, want %d", rep.Inflight(), tc.want)
			}
		})
	}
}

func TestCollectorReplaceAndAbandon(t *testing.T) {
	c := NewCollector()
	a := &workload.Request{ID: 7, ArrivalAt: 10}
	c.Admit(a)
	b := &workload.Request{ID: 7, ArrivalAt: 10}
	c.Replace(a, b)
	// After Replace the collector must follow b, not a.
	b.FirstToken = 99
	b.Done = 100
	c.Done(b)
	if c.Completed() != 1 {
		t.Fatalf("completed %d, want 1", c.Completed())
	}
	if got := c.Requests()[0].Done; got != 100 {
		t.Fatalf("record Done %d, want 100 (the replacement's state)", got)
	}
	// Done on the superseded pointer must be a no-op for the record.
	a.Done = 55
	c.Done(a)
	if got := c.Requests()[0].Done; got != 100 {
		t.Fatalf("superseded pointer overwrote the record: Done %d", got)
	}

	// Abandon freezes the record unserved without counting a completion.
	c2 := NewCollector()
	r := &workload.Request{ID: 1, ArrivalAt: 5}
	c2.Admit(r)
	c2.Abandon(r)
	r.FirstToken = 42 // late mutation must not leak into the record
	rec := c2.Requests()[0]
	if rec.FirstToken != 0 {
		t.Fatalf("abandoned record FirstToken %d, want 0", rec.FirstToken)
	}
	if c2.Completed() != 0 {
		t.Fatalf("abandon counted a completion")
	}
	if c2.Admitted() != 1 {
		t.Fatalf("admitted %d, want 1", c2.Admitted())
	}
}

// TestResilientDeterministic pins that two identical storm runs produce
// identical completion records and counters.
func TestResilientDeterministic(t *testing.T) {
	run := func() ([]workload.Request, ResilienceStats) {
		var sim des.Sim
		svc := func(rep int, req *workload.Request) time.Duration {
			return time.Duration(30+7*(req.ID%5)) * time.Millisecond
		}
		cfg := ResilienceConfig{Policy: LeastLoaded, Timeout: 200 * time.Millisecond, MaxRetries: 2, HedgeDelay: 150 * time.Millisecond, Degrade: true}
		h := newResilientHarness(t, &sim, cfg, 3, svc)
		for i := 0; i < 200; i++ {
			h.arriveAt(des.Time(i) * des.Time(4*time.Millisecond))
		}
		sim.At(des.Time(200*time.Millisecond), func() { h.router.Crash(0) })
		sim.At(des.Time(500*time.Millisecond), func() { h.router.Recover(0) })
		sim.At(des.Time(600*time.Millisecond), func() { h.router.Crash(2) })
		sim.At(des.Time(800*time.Millisecond), func() { h.router.Recover(2) })
		sim.RunUntil(des.Time(time.Minute))
		return append([]workload.Request(nil), h.coll.Requests()...), h.router.Stats()
	}
	r1, s1 := run()
	r2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", s1, s2)
	}
	if len(r1) != len(r2) {
		t.Fatalf("record counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
	if s1.Crashes != 2 {
		t.Fatalf("crashes %d, want 2", s1.Crashes)
	}
}

// TestHedgeAutoDelayIsInterpolatedP95 pins the auto-hedge quantile
// fix: at the 20-sample warmup boundary the naive index
// scratch[(len*95)/100] is scratch[19] — the sample maximum — which
// made one straggler drag the auto delay up to its own latency and
// effectively disabled hedging. The interpolated p95 must sit far
// below such an outlier.
func TestHedgeAutoDelayIsInterpolatedP95(t *testing.T) {
	r := &ResilientRouter{cfg: ResilienceConfig{HedgeAuto: true}}
	// 19 clean 100 ms attempts and one 10 s straggler — exactly the
	// warmup boundary where the off-by-one bit.
	for i := 0; i < 19; i++ {
		r.samples = append(r.samples, 0.100)
	}
	r.samples = append(r.samples, 10.0)

	got := r.hedgeDelay()
	// Interpolated p95 over the sorted 20: s[18] + 0.05·(s[19]−s[18]).
	want := time.Duration((0.100 + 0.05*(10.0-0.100)) * float64(time.Second))
	if diff := got - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("auto delay %v, want interpolated p95 ≈ %v", got, want)
	}
	if got >= 10*time.Second {
		t.Fatalf("auto delay %v tracks the straggler maximum", got)
	}

	// The fixed HedgeDelay stays a floor under the auto value.
	r.cfg.HedgeDelay = 2 * time.Second
	if got := r.hedgeDelay(); got != 2*time.Second {
		t.Fatalf("floor ignored: %v, want 2s", got)
	}

	// Pre-warmup (fewer than 20 samples) uses the floor, or 1 s for a
	// pure-auto configuration.
	r.samples = r.samples[:10]
	if got := r.hedgeDelay(); got != 2*time.Second {
		t.Fatalf("pre-warmup with floor: %v, want 2s", got)
	}
	r.cfg.HedgeDelay = 0
	if got := r.hedgeDelay(); got != time.Second {
		t.Fatalf("pre-warmup pure auto: %v, want 1s", got)
	}
}

// TestLiveListMatchesSliceReference: random pushes and removals —
// mostly near the front, as completions arrive, some anywhere, some of
// copies never pushed — leave the ring holding exactly what a plain
// slice with copy-down removal holds, in the same order, and the ring
// never grows past twice its peak length.
func TestLiveListMatchesSliceReference(t *testing.T) {
	r := rng.New(3)
	reqs := make([]workload.Request, 16384)
	var l liveList
	var ref []*workload.Request
	next, peak := 0, 0
	for step := 0; step < 20000; step++ {
		switch {
		case next < len(reqs) && (len(ref) == 0 || r.Intn(100) < 52):
			l.push(&reqs[next])
			ref = append(ref, &reqs[next])
			next++
		case len(ref) == 0:
			continue
		case r.Intn(10) == 0: // a copy not on the list
			l.remove(&workload.Request{})
		default:
			k := r.Intn(min(len(ref), 3)) // nearly FIFO
			if r.Intn(4) == 0 {
				k = r.Intn(len(ref))
			}
			l.remove(ref[k])
			ref = append(ref[:k], ref[k+1:]...)
		}
		peak = max(peak, len(ref))
		if l.n != len(ref) {
			t.Fatalf("step %d: ring holds %d, reference %d", step, l.n, len(ref))
		}
		for k, q := range ref {
			if l.at(k) != q {
				t.Fatalf("step %d: position %d holds request %p, reference %p", step, k, l.at(k), q)
			}
		}
	}
	if len(l.buf) > max(8, 2*peak) {
		t.Errorf("ring buffer %d for a peak of %d", len(l.buf), peak)
	}
	l.reset()
	if l.n != 0 || slices.ContainsFunc(l.buf, func(q *workload.Request) bool { return q != nil }) {
		t.Errorf("reset left %d entries", l.n)
	}
}

// TestResilientCrashFailsOverInDispatchOrder: completions leave replica
// 0's in-flight list out of order; the crash must then fail the
// survivors over in the order they were dispatched.
func TestResilientCrashFailsOverInDispatchOrder(t *testing.T) {
	var sim des.Sim
	cfg := ResilienceConfig{Policy: RoundRobin, Timeout: 10 * time.Second, MaxRetries: 2}
	crashAt := des.Time(40*time.Millisecond + 500*time.Microsecond)
	// Replica 0 finishes ids 0, 2, 8 and 14 before the crash and still
	// holds 4, 6, 10, 12, 16 and 18.
	svc := func(id int) time.Duration { return time.Duration(id*11%17+1) * 4 * time.Millisecond }
	var failedOver []int
	h := newResilientHarness(t, &sim, cfg, 2, func(rep int, req *workload.Request) time.Duration {
		if rep == 1 && sim.Now() == crashAt {
			failedOver = append(failedOver, req.ID)
		}
		return svc(req.ID)
	})
	// Round-robin sends the even ids to replica 0, one a millisecond.
	var want []int
	for id := 0; id < 20; id++ {
		at := des.Time(time.Duration(id) * time.Millisecond)
		h.arriveAt(at)
		if id%2 == 0 && at+des.Time(svc(id)) > crashAt {
			want = append(want, id)
		}
	}
	sim.At(crashAt, func() { h.router.Crash(0) })
	sim.RunUntil(des.Time(5 * time.Second))

	if len(want) < 4 || len(want) == 10 {
		t.Fatalf("fixture: %d of 10 replica-0 requests live at the crash; want some done, several live", len(want))
	}
	if !slices.Equal(failedOver, want) {
		t.Fatalf("failed over %v, want dispatch order %v", failedOver, want)
	}
	h.settled(t)
}
