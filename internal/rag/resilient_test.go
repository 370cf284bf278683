package rag

import (
	"testing"
	"time"

	"vectorliterag/internal/fault"
	"vectorliterag/internal/serve"
)

// stormOpts is a short resilient cluster run under a scripted storm
// touching all three failure modes.
func stormOpts(t *testing.T) Options {
	t.Helper()
	o := baseOpts(t, VLiteRAG, 30)
	o.Duration = 60 * time.Second
	o.Warmup = 10 * time.Second
	o.Drain = 60 * time.Second
	sched, err := fault.Parse("crash@20s:r0:10s,straggler@35s:r1:8s:x3,bandwidth@45s:r2:8s:x3")
	if err != nil {
		t.Fatal(err)
	}
	o.Faults = sched
	// End-to-end completion (decode included) runs ~4s at this rate, so
	// the timeout must clear that comfortably or the run collapses into
	// a retry storm.
	o.Resilience = &serve.ResilienceConfig{
		Timeout:    8 * time.Second,
		MaxRetries: 2,
		Backoff:    50 * time.Millisecond,
		HedgeDelay: 6 * time.Second,
		Degrade:    true,
	}
	return o
}

func TestResilientClusterStorm(t *testing.T) {
	res, err := Run(routed(stormOpts(t), 3, serve.LeastLoaded))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Resilience
	if rep == nil {
		t.Fatal("resilient run returned no resilience report")
	}
	if rep.Stats.Crashes != 1 {
		t.Fatalf("crashes %d, want 1", rep.Stats.Crashes)
	}
	if rep.Stats.FailedOver == 0 {
		t.Fatal("crash with traffic in flight failed nothing over")
	}
	if rep.Stats.Ghosts == 0 {
		t.Fatal("failovers without ghosts: superseded copies vanished instead of draining")
	}
	if rep.Goodput <= 0 {
		t.Fatalf("goodput %v, want > 0", rep.Goodput)
	}
	if len(rep.Recoveries) != 1 || rep.Recoveries[0] <= 0 {
		t.Fatalf("recoveries %v, want one positive time-to-recover", rep.Recoveries)
	}
	if rep.Recoveries[0] > 30*time.Second {
		t.Fatalf("time-to-recover %v implausibly long for a 2s-timeout run", rep.Recoveries[0])
	}
	// The cluster kept serving: most requests completed despite losing a
	// third of capacity for 10s of a 60s window.
	if res.Summary.N == 0 || res.Summary.Unserved > res.Summary.N/4 {
		t.Fatalf("%d of %d unserved under the storm with retries on", res.Summary.Unserved, res.Summary.N)
	}
	// The crashed replica took no traffic while down: its share is well
	// under a fair third.
	total := 0
	for _, rr := range res.PerReplica {
		total += rr.Submitted
	}
	if res.PerReplica[0].Submitted >= total/3 {
		t.Fatalf("crashed replica took %d of %d routed copies — health tracking is not steering", res.PerReplica[0].Submitted, total)
	}
}

// TestResilientDeterministicAcrossWorkers pins the acceptance bar:
// identical storms produce bit-identical artifacts for any Workers
// value (the resilient path always runs the single shared timeline).
func TestResilientDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Result {
		o := stormOpts(t)
		o.Workers = workers
		res, err := Run(routed(o, 3, serve.LeastLoaded))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{2, 4} {
		res := run(workers)
		if res.Resilience.Stats != ref.Resilience.Stats {
			t.Fatalf("workers=%d: stats %+v diverged from %+v", workers, res.Resilience.Stats, ref.Resilience.Stats)
		}
		if res.Resilience.Goodput != ref.Resilience.Goodput {
			t.Fatalf("workers=%d: goodput %v != %v", workers, res.Resilience.Goodput, ref.Resilience.Goodput)
		}
		if len(res.Requests) != len(ref.Requests) {
			t.Fatalf("workers=%d: %d records != %d", workers, len(res.Requests), len(ref.Requests))
		}
		for i := range ref.Requests {
			if res.Requests[i] != ref.Requests[i] {
				t.Fatalf("workers=%d: record %d differs: %+v vs %+v", workers, i, res.Requests[i], ref.Requests[i])
			}
		}
	}
}

// TestFaultFreeResilientMatchesRouterLessTimeouts sanity-checks the
// gating: a run with a Resilience config but no faults and generous
// timeouts completes everything, with zero failure-handling actions
// beyond possible hedges.
func TestFaultFreeResilientCompletes(t *testing.T) {
	o := baseOpts(t, VLiteRAG, 20)
	o.Resilience = &serve.ResilienceConfig{Timeout: time.Minute, MaxRetries: 1}
	res, err := Run(routed(o, 2, serve.LeastLoaded))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Resilience.Stats
	if st.Crashes != 0 || st.FailedOver != 0 || st.TimedOut != 0 || st.Failed != 0 || st.Ghosts != 0 {
		t.Fatalf("fault-free run took failure actions: %+v", st)
	}
	if res.Summary.Unserved > res.Summary.N/20 {
		t.Fatalf("%d of %d unserved without faults", res.Summary.Unserved, res.Summary.N)
	}
}

func TestResilientValidation(t *testing.T) {
	// RunCluster rejects schedules naming replicas the run doesn't have.
	o2 := baseOpts(t, VLiteRAG, 10)
	o2.Faults = fault.Schedule{{Kind: fault.Crash, Replica: 5, At: time.Second, Duration: time.Second}}
	if _, err := Run(routed(o2, 2, serve.LeastLoaded)); err == nil {
		t.Fatal("RunCluster accepted an out-of-range replica")
	}
	// And bad resilience configs.
	o3 := baseOpts(t, VLiteRAG, 10)
	o3.Resilience = &serve.ResilienceConfig{MaxRetries: -1}
	if _, err := Run(routed(o3, 2, serve.LeastLoaded)); err == nil {
		t.Fatal("RunCluster accepted negative MaxRetries")
	}
}
