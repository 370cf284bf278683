package rag

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"vectorliterag/internal/des"
	"vectorliterag/internal/fault"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/workload"
)

// bytesPerRequest runs o, and o cut to one second (half of it warm-up)
// as the measure of the decision, and fails unless the decision is under a tenth of the whole
// run and the run allocated at most limit bytes per admitted request.
func bytesPerRequest(t *testing.T, label string, o Options, limit float64) {
	t.Helper()
	short := o
	short.Duration, short.Warmup = time.Second, time.Second/2
	allocated := func(o Options) (uint64, int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(o)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, len(res.Requests)
	}
	allocated(short) // memoized set-up (the SLO, the workload's lazy state) stays out of both
	decision, _ := allocated(short)
	total, n := allocated(o)
	label = fmt.Sprintf("%s: %d requests, %d bytes (decision %d)", label, n, total, decision)
	if 10*decision >= total {
		t.Fatalf("%s: the decision is not under a tenth of the run", label)
	}
	if per := float64(total) / float64(n); per > limit {
		t.Fatalf("%s: %.1f bytes per admitted request, want at most %.0f", label, per, limit)
	}
	t.Logf("%s: %.1f bytes per admitted request", label, float64(total)/float64(n))
}

// TestFleetWritesEachRequestOnce is the fleet's footprint fence: under
// both policies — round-robin runs each lane alone, least-loaded runs the
// lanes in rounds — a whole Run, decision included, allocates at most one
// request record plus 64 bytes per admitted request. The arrival-ordered
// array is the only copy of a request: any second one — a per-replica
// record, a merged array — adds a full record per request and fails it.
// The run is long enough that the decision, measured on a run of the
// same options cut to one second, is under a tenth of the total.
func TestFleetWritesEachRequestOnce(t *testing.T) {
	limit := float64(unsafe.Sizeof(workload.Request{}) + 64)
	for _, policy := range serve.Policies() {
		o := routed(shardedClusterOpts(t, 1, 2), 4, policy)
		o.Rate, o.Duration, o.Warmup, o.Drain = 80, 800*time.Second, 10*time.Second, 10*time.Second
		bytesPerRequest(t, fmt.Sprintf("%s x4", policy), o, limit)
	}
}

// TestNodeWritesEachRequestOnce is the same fence on a single node: the
// arena is the run's only copy of a request, so a long run allocates at
// most one request record plus 64 bytes per admitted request.
func TestNodeWritesEachRequestOnce(t *testing.T) {
	o := shardedClusterOpts(t, 1, 1)
	o.NetDelay = 0
	o.Rate, o.Duration, o.Warmup, o.Drain = 40, 800*time.Second, 10*time.Second, 10*time.Second
	bytesPerRequest(t, "one node", o, float64(unsafe.Sizeof(workload.Request{})+64))
}

// TestResilientWritesEachRequestOnce is the same fence on the resilient
// router under a storm — a crash and a straggler, with retries, hedging
// and degradation on: each arrival's slot is its record, and the copies
// the router dispatches come from its pool, so a long run still
// allocates at most one request record plus 64 bytes per admitted
// request.
func TestResilientWritesEachRequestOnce(t *testing.T) {
	o := routed(stormOpts(t), 3, serve.LeastLoaded)
	o.Duration = 800 * time.Second
	bytesPerRequest(t, "resilient storm x3", o, float64(unsafe.Sizeof(workload.Request{})+64))
}

// TestArenaOverflowKeepsRecords: a run whose arrivals overflow the
// arena — sized to one request, so every arrival past the first opens or
// fills another chunk — returns the records of a normally sized run on
// every topology: one node, the one-timeline router, the resilient
// router under a crash and a straggler with retries and hedging on, and
// a fleet under both policies. A slot that moved while its request was
// in flight would leave a stale record behind; so would a resilient
// run's requests still in flight at the deadline if the router wrote
// them back after the arena joined its chunks.
func TestArenaOverflowKeepsRecords(t *testing.T) {
	base := baseOpts(t, VLiteRAG, 24)
	base.Duration, base.Warmup, base.Drain = 20*time.Second, 5*time.Second, 40*time.Second
	base.ProfileQueries = 1000
	// tiny returns o's decided corpus with its arena sized to one request.
	tiny := func(o *Options) *corpus {
		c := decidedCorpus(t, o)
		c.expect = 1
		return c
	}
	check := func(label string, o Options, got []workload.Request, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < 2 || len(got) != len(want.Requests) || recordsDigest(got) != recordsDigest(want.Requests) {
			t.Fatalf("%s: %d overflowed records differ from the %d of a sized arena", label, len(got), len(want.Requests))
		}
	}

	o := base
	s, err := tiny(&o).node(new(des.Sim), &o, nil, nil)
	check("one node", base, s.records, err)

	sh := routed(base, 3, serve.LeastLoaded)
	o = sh
	s, err = tiny(&o).shared(&o)
	check("one timeline", sh, s.records, err)

	// A drain too short for the last arrivals, so some are in flight when
	// the clock stops.
	storm := routed(base, 3, serve.LeastLoaded)
	storm.Drain = 500 * time.Millisecond
	faults, err := fault.Parse("crash@6s:r0:5s,straggler@15s:r1:6s:x3")
	if err != nil {
		t.Fatal(err)
	}
	storm.Faults = faults
	storm.Resilience = &serve.ResilienceConfig{Timeout: 3 * time.Second, MaxRetries: 2, HedgeDelay: 2 * time.Second, Degrade: true}
	o = storm
	s, err = tiny(&o).shared(&o)
	if err == nil {
		s.summarize(o.sloTotal(), des.Time(o.Warmup))
	}
	if err == nil && (s.resilience.Stats.FailedOver == 0 || s.resilience.Stats.Hedged == 0 || s.summary.Unserved == 0) {
		t.Fatalf("resilient: stats %+v, %d unserved: want failovers, hedges and requests in flight at the deadline", s.resilience.Stats, s.summary.Unserved)
	}
	check("resilient", storm, s.records, err)

	for _, policy := range serve.Policies() {
		fl := routed(base, 3, policy)
		fl.NetDelay = time.Millisecond
		res, err := run(fl, func(spec *nodeSpec, replicas int, policy serve.Policy, netDelay time.Duration, _ int) (*fleet, error) {
			return newFleet(spec, replicas, policy, netDelay, 1)
		})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("fleet %s", policy), fl, res.Requests, nil)
	}
}
