package serve

import (
	"slices"
	"strings"
	"testing"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/workload"
)

// svcStage is a one-stage fake replica: it stamps a copy's dispatch
// instant as its search start, "serves" it after a per-replica virtual
// delay and stamps its completion fields.
type svcStage struct {
	sim  *des.Sim
	rep  int
	svc  func(rep int, req *workload.Request) time.Duration
	next Sink
}

func (s *svcStage) Submit(req *workload.Request) {
	req.SearchStart = s.sim.Now()
	d := s.svc(s.rep, req)
	s.sim.After(d, func() {
		now := s.sim.Now()
		req.SearchDone = now
		req.LLMStart = now
		req.FirstToken = now
		req.Done = now
		s.next(req)
	})
}

// resilientHarness wires n fake replicas behind a ResilientRouter and
// allocates each arrival into an arena, as the rag layer does: the
// arena's slots are the run's records.
type resilientHarness struct {
	sim    *des.Sim
	router *ResilientRouter
	arena  *workload.Arena
	nextID int
}

func newResilientHarness(t *testing.T, sim *des.Sim, cfg ResilienceConfig, n int, svc func(rep int, req *workload.Request) time.Duration) *resilientHarness {
	t.Helper()
	var router *ResilientRouter
	heads := make([]Sink, n)
	for i := range heads {
		st := &svcStage{sim: sim, rep: i, svc: svc, next: func(req *workload.Request) { router.Complete(i, req) }}
		heads[i] = st.Submit
	}
	router, err := NewResilientRouter(sim, cfg, heads)
	if err != nil {
		t.Fatal(err)
	}
	// A small first chunk: most runs overflow it, so a record the router
	// wrote through a moved slot would show.
	return &resilientHarness{sim: sim, router: router, arena: workload.NewArena(8)}
}

// arriveAt schedules one arrival at the given instant. Arrivals must be
// scheduled in time order for a record's ID to be its index.
func (h *resilientHarness) arriveAt(at des.Time) {
	id := h.nextID
	h.nextID++
	h.sim.At(at, func() {
		rec := h.arena.New()
		rec.ID = id
		rec.ArrivalAt = h.sim.Now()
		h.router.Submit(rec)
	})
}

// records settles the router and returns every arrival's record in
// arrival order. Call it once, when the run is over.
func (h *resilientHarness) records() []workload.Request {
	h.router.Settle()
	return h.arena.Records()
}

// completed counts the records of requests that finished.
func completed(recs []workload.Request) int {
	n := 0
	for i := range recs {
		if recs[i].Done != 0 {
			n++
		}
	}
	return n
}

// settled asserts the run left no dangling control blocks or replica
// gauge residue — every copy either completed, failed, or drained.
func (h *resilientHarness) settled(t *testing.T) {
	t.Helper()
	if len(h.router.attempts) != 0 {
		t.Errorf("%d attempts still tracked after drain", len(h.router.attempts))
	}
	for i, rep := range h.router.reps {
		if rep.inflight != 0 {
			t.Errorf("replica %d inflight gauge %d after drain", i, rep.inflight)
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

	reqs := h.records()
	if got := completed(reqs); got != 3 {
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
	if got := time.Duration(reqs[0].Done); got != 150*time.Millisecond {
		t.Fatalf("failed-over request finished at %v, want 150ms", got)
	}
	recov := h.router.Recoveries()
	if len(recov) != 1 || recov[0] != 100*time.Millisecond {
		t.Fatalf("recoveries %v, want [100ms] (crash at 50ms, failover done at 150ms)", recov)
	}
	// While replica 0 was down it must receive nothing; the third
	// arrival landed on replica 1.
	if h.router.Submitted(0) != 1 || h.router.Submitted(1) != 3 {
		t.Fatalf("submitted = [%d %d], want [1 3]", h.router.Submitted(0), h.router.Submitted(1))
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
	recs := h.records()
	if completed(recs) != 1 {
		t.Fatalf("completed %d, want 1", completed(recs))
	}
	// timeout 100ms + backoff 10ms + service 20ms
	if got := time.Duration(recs[0].Done); got != 130*time.Millisecond {
		t.Fatalf("retried request finished at %v, want 130ms", got)
	}
}

// TestResilientFailedRecordStaysUnserved: a request whose retries run
// out keeps the record of its last attempt as it stood when it failed —
// unserved — even when both attempts later drain as ghosts and stamp
// their completions onto their own copies.
func TestResilientFailedRecordStaysUnserved(t *testing.T) {
	var sim des.Sim
	h := newResilientHarness(t, &sim, ResilienceConfig{Policy: RoundRobin, Timeout: 50 * time.Millisecond, MaxRetries: 1, Backoff: 10 * time.Millisecond},
		2, func(int, *workload.Request) time.Duration { return time.Hour })
	h.arriveAt(0)
	sim.RunUntil(des.Time(3 * time.Hour))
	st := h.router.Stats()
	if st.Failed != 1 || st.Ghosts != 2 {
		t.Fatalf("stats %+v: want 1 failed, and both attempts drained as ghosts", st)
	}
	recs := h.records()
	if completed(recs) != 0 {
		t.Fatalf("completed %d, want 0", completed(recs))
	}
	// timeout 50ms + backoff 10ms: the retry was dispatched at 60ms.
	if rec := recs[0]; rec.FirstToken != 0 || rec.Done != 0 || time.Duration(rec.SearchStart) != 60*time.Millisecond {
		t.Fatalf("abandoned record %+v, want the retry's state at the failure (search start 60ms, no first token)", rec)
	}
	h.settled(t)
}

// TestResilientRecordSurvivesRecycling: a completed request's copy goes
// back to the router's pool and serves the next arrival; the first
// record keeps its own timestamps.
func TestResilientRecordSurvivesRecycling(t *testing.T) {
	var sim des.Sim
	h := newResilientHarness(t, &sim, ResilienceConfig{Policy: RoundRobin}, 1, func(_ int, req *workload.Request) time.Duration {
		if req.ID == 0 {
			return 100 * time.Millisecond
		}
		return time.Hour
	})
	h.arriveAt(0)
	h.arriveAt(des.Time(200 * time.Millisecond))
	sim.RunUntil(des.Time(time.Second))
	if got := h.router.pool.Allocated(); got != 1 {
		t.Fatalf("the pool built %d copies, want 1: the second arrival must reuse the first's", got)
	}
	recs := h.records()
	ms := des.Time(time.Millisecond)
	if r := recs[0]; r.ID != 0 || r.ArrivalAt != 0 || r.SearchStart != 0 || r.FirstToken != 100*ms || r.Done != 100*ms {
		t.Fatalf("completed record corrupted by recycling: %+v", r)
	}
	if r := recs[1]; r.ID != 1 || r.ArrivalAt != 200*ms || r.SearchStart != 200*ms || r.FirstToken != 0 {
		t.Fatalf("in-flight record %+v, want its own arrival and dispatch at 200ms", r)
	}
}

// TestResilientInFlightRecordAtDeadline: a request still in flight when
// the clock stops reports its current attempt's state at that instant —
// the retry it was failed over to, not the first attempt it left behind.
func TestResilientInFlightRecordAtDeadline(t *testing.T) {
	var sim des.Sim
	svc := func(rep int, req *workload.Request) time.Duration {
		if rep == 0 {
			return time.Hour
		}
		return time.Second
	}
	cfg := ResilienceConfig{Policy: RoundRobin, Timeout: 500 * time.Millisecond, MaxRetries: 2, Backoff: 10 * time.Millisecond}
	h := newResilientHarness(t, &sim, cfg, 2, svc)
	h.arriveAt(0)
	sim.RunUntil(des.Time(800 * time.Millisecond))
	if st := h.router.Stats(); st.TimedOut != 1 || st.Retried != 1 {
		t.Fatalf("stats %+v: want 1 timeout, 1 retry", st)
	}
	// timeout 500ms + backoff 10ms: the retry runs on replica 1 from 510ms.
	rec := h.records()[0]
	if rec.ID != 0 || rec.ArrivalAt != 0 || time.Duration(rec.SearchStart) != 510*time.Millisecond || rec.FirstToken != 0 {
		t.Fatalf("in-flight record %+v, want the retry's state at the deadline (search start 510ms, no first token)", rec)
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
	// Hedge fired at 100ms, served in 20ms; the losing primary drained
	// at 1s without touching the record.
	ms := des.Time(time.Millisecond)
	if rec := h.records()[0]; rec.SearchStart != 100*ms || rec.FirstToken != 120*ms || rec.Done != 120*ms {
		t.Fatalf("hedge-won record %+v, want the hedge's timestamps (dispatched 100ms, done 120ms)", rec)
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

// TestReplicaReleaseGuard pins the hardening of the in-flight gauge:
// release sequences that over-shoot (double release after a failover,
// release on a replica that never admitted) must clamp at zero instead
// of driving the least-loaded signal negative.
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
			rep := replica{inflight: tc.admits}
			for i := 0; i < tc.releases; i++ {
				rep.release()
			}
			if rep.inflight != tc.want {
				t.Fatalf("inflight %d, want %d", rep.inflight, tc.want)
			}
		})
	}
}

// TestReplicaInflightAccounting: a dispatch raises its replica's gauge
// and routed count, and the completion lowers the gauge again.
func TestReplicaInflightAccounting(t *testing.T) {
	var sim des.Sim
	h := newResilientHarness(t, &sim, ResilienceConfig{Policy: LeastLoaded}, 1, func(int, *workload.Request) time.Duration {
		return time.Millisecond
	})
	h.arriveAt(0)
	sim.RunUntil(0)
	if rep := h.router.reps[0]; rep.inflight != 1 || h.router.Submitted(0) != 1 {
		t.Fatalf("after dispatch: inflight %d, submitted %d; want 1 and 1", rep.inflight, h.router.Submitted(0))
	}
	sim.Run()
	if rep := h.router.reps[0]; rep.inflight != 0 || h.router.Submitted(0) != 1 {
		t.Fatalf("after drain: inflight %d, submitted %d; want 0 and 1", rep.inflight, h.router.Submitted(0))
	}
}

// TestResilientRouterValidation: the router refuses an unknown policy,
// an empty replica set, a replica with no node head and negative knobs,
// and resolves the empty policy to the default.
func TestResilientRouterValidation(t *testing.T) {
	head := func(*workload.Request) {}
	for _, c := range []struct {
		name  string
		cfg   ResilienceConfig
		heads []Sink
		want  string
	}{
		{"unknown policy", ResilienceConfig{Policy: "bogus"}, []Sink{head}, "unknown routing policy"},
		{"no replicas", ResilienceConfig{}, nil, "at least one replica"},
		{"nil head", ResilienceConfig{}, []Sink{head, nil}, "replica 1 has no node bound"},
		{"negative retries", ResilienceConfig{MaxRetries: -1}, []Sink{head}, "negative MaxRetries"},
		{"negative timeout", ResilienceConfig{Timeout: -1}, []Sink{head}, "negative resilience durations"},
		{"default policy", ResilienceConfig{}, []Sink{head}, ""},
	} {
		var sim des.Sim
		r, err := NewResilientRouter(&sim, c.cfg, c.heads)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want == "" && r.cfg.Policy != LeastLoaded:
			t.Errorf("%s: policy %q, want %q", c.name, r.cfg.Policy, LeastLoaded)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
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
		return h.records(), h.router.Stats()
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

// TestResilientCrashFailsOverInDispatchOrder: completions out of
// dispatch order leave gaps among replica 0's live copies; the crash
// must then fail the survivors over in the order they were dispatched.
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

// TestResilientCrashDropsHedgeOnCrashedReplica: the primary runs on
// replica 0 and its hedge on replica 1 when replica 1 crashes. The hedge
// is dropped, so the copy replica 1's pipeline finishes later drains as
// a ghost, not as a hedge win, and the record is the primary's.
func TestResilientCrashDropsHedgeOnCrashedReplica(t *testing.T) {
	var sim des.Sim
	svc := func(rep int, req *workload.Request) time.Duration {
		if rep == 0 {
			return 500 * time.Millisecond
		}
		return 20 * time.Millisecond
	}
	cfg := ResilienceConfig{Policy: RoundRobin, HedgeDelay: 100 * time.Millisecond}
	h := newResilientHarness(t, &sim, cfg, 2, svc)
	h.arriveAt(0)
	sim.At(des.Time(110*time.Millisecond), func() { h.router.Crash(1) })
	sim.RunUntil(des.Time(time.Minute))
	if st := h.router.Stats(); st.Hedged != 1 || st.HedgeWins != 0 || st.Ghosts != 1 || st.FailedOver != 0 {
		t.Fatalf("stats %+v: want 1 hedged, no hedge win, 1 ghost (the hedge), no failover", st)
	}
	ms := des.Time(time.Millisecond)
	if rec := h.records()[0]; rec.SearchStart != 0 || rec.Done != 500*ms {
		t.Fatalf("record %+v, want the primary's (dispatched 0, done 500ms)", rec)
	}
	h.settled(t)
}

// TestResilientCrashSkipsAttemptInBackoff: an attempt times out on
// replica 0 and is waiting out its backoff, on no replica, when replica
// 0 crashes. The crash must not fail it over again: it retries once,
// after its backoff, and the crash has no failover to recover from.
func TestResilientCrashSkipsAttemptInBackoff(t *testing.T) {
	var sim des.Sim
	svc := func(rep int, req *workload.Request) time.Duration {
		if rep == 0 {
			return time.Hour
		}
		return 20 * time.Millisecond
	}
	cfg := ResilienceConfig{Policy: RoundRobin, Timeout: 100 * time.Millisecond, MaxRetries: 2, Backoff: 50 * time.Millisecond}
	h := newResilientHarness(t, &sim, cfg, 2, svc)
	h.arriveAt(0)
	// Timed out at 100ms, redispatched at 150ms: the crash falls between.
	sim.At(des.Time(120*time.Millisecond), func() { h.router.Crash(0) })
	sim.RunUntil(des.Time(2 * time.Hour))
	if st := h.router.Stats(); st.TimedOut != 1 || st.Retried != 1 || st.FailedOver != 0 {
		t.Fatalf("stats %+v: want 1 timeout, 1 retry, no failover", st)
	}
	if rec := h.records()[0]; time.Duration(rec.Done) != 170*time.Millisecond {
		t.Fatalf("record done at %v, want 170ms (backoff to 150ms, served in 20ms)", time.Duration(rec.Done))
	}
	if rec := h.router.Recoveries(); len(rec) != 1 || rec[0] >= 0 {
		t.Fatalf("recoveries %v, want one crash with nothing failed over", rec)
	}
	h.settled(t)
}

// FuzzResilientRecords drives 64 arrivals, one every 4 ms, through three
// fake replicas under any resilience configuration and one crash and
// recovery, and stops the clock at any instant after the last arrival.
// The run must leave exactly one record per arrival, in arrival order
// with its identity and arrival instant kept, every finished record's
// first token between its arrival and its completion, and no more
// failures than unserved records.
func FuzzResilientRecords(f *testing.F) {
	f.Add(uint16(200), uint8(2), uint16(10), uint16(150), false, true, uint16(100), uint16(200), uint8(0), uint16(600))
	f.Add(uint16(60), uint8(1), uint16(0), uint16(0), true, false, uint16(20), uint16(400), uint8(1), uint16(150))
	f.Add(uint16(0), uint8(0), uint16(0), uint16(40), false, false, uint16(0), uint16(0), uint8(2), uint16(2000))
	f.Add(uint16(30), uint8(3), uint16(90), uint16(25), true, true, uint16(250), uint16(499), uint8(2), uint16(1))
	f.Fuzz(func(t *testing.T, timeoutMs uint16, retries uint8, backoffMs, hedgeMs uint16, hedgeAuto, degrade bool, crashMs, downMs uint16, crashRep uint8, untilMs uint16) {
		const n, gap = 64, 4 * time.Millisecond
		ms := func(v uint16, mod int) time.Duration { return time.Duration(int(v)%mod) * time.Millisecond }
		cfg := ResilienceConfig{
			Policy:     LeastLoaded,
			Timeout:    ms(timeoutMs, 500),
			MaxRetries: int(retries % 4),
			Backoff:    ms(backoffMs, 100),
			HedgeDelay: ms(hedgeMs, 300),
			HedgeAuto:  hedgeAuto,
			Degrade:    degrade,
		}
		var sim des.Sim
		// Replica 2 straggles at three times the others' service time.
		h := newResilientHarness(t, &sim, cfg, 3, func(rep int, req *workload.Request) time.Duration {
			d := time.Duration(30+7*(req.ID%5)) * time.Millisecond
			if rep == 2 {
				d *= 3
			}
			return d
		})
		for i := range n {
			h.arriveAt(des.Time(time.Duration(i) * gap))
		}
		crash, rep := des.Time(ms(crashMs, 500)), int(crashRep%3)
		sim.At(crash, func() { h.router.Crash(rep) })
		sim.At(crash+des.Time(ms(downMs, 500)+time.Millisecond), func() { h.router.Recover(rep) })
		sim.RunUntil(des.Time((n-1)*gap + ms(untilMs, 2000)))

		recs := h.records()
		if len(recs) != n {
			t.Fatalf("%d records for %d arrivals", len(recs), n)
		}
		unserved := 0
		for i := range recs {
			r := &recs[i]
			if r.ID != i || r.ArrivalAt != des.Time(time.Duration(i)*gap) {
				t.Fatalf("record %d is request %d arriving at %d", i, r.ID, r.ArrivalAt)
			}
			if r.FirstToken == 0 {
				unserved++
				continue
			}
			if r.Done != 0 && (r.FirstToken < r.ArrivalAt || r.Done < r.FirstToken) {
				t.Fatalf("record %d: arrival %d, first token %d, done %d", i, r.ArrivalAt, r.FirstToken, r.Done)
			}
		}
		if st := h.router.Stats(); st.Failed > unserved {
			t.Fatalf("%d failed requests but %d unserved records", st.Failed, unserved)
		}
	})
}
