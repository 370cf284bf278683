package rag

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"testing"
	"time"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/workload"
)

// recordsDigest hashes the schedule-determined content of a run — every
// per-request record's identity and virtual timestamps — so two runs
// compare bit-for-bit while ignoring the wall-clock fields.
func recordsDigest(reqs []workload.Request) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, r := range reqs {
		buf = fmt.Appendf(buf[:0], "%d|%d|%d|%d|%d|%d|%d|%d|%d|%x\n",
			r.ID, r.Query, r.Tenant, r.ArrivalAt, r.SearchStart,
			r.SearchDone, r.LLMStart, r.FirstToken, r.Done, r.HitRate)
		h.Write(buf)
	}
	return h.Sum64()
}

func shardedClusterOpts(t *testing.T, seed uint64, workers int) Options {
	o := baseOpts(t, VLiteRAG, 24)
	o.Seed = seed
	o.Duration = 20 * time.Second
	o.Warmup = 5 * time.Second
	o.Drain = 40 * time.Second
	o.Workers = workers
	o.NetDelay = time.Millisecond
	o.ProfileQueries = 1000
	return o
}

// TestShardedClusterDeterministicAcrossWorkers is the fleet's property
// test: for every seed and routing policy — so both ways the lanes run,
// alone under round-robin and in rounds under least-loaded — the merged
// schedule — every request record, the aggregate summary,
// and the per-replica breakdown — is bit-identical whether the
// timelines execute on 1, 2, 3, or 8 worker goroutines.
func TestShardedClusterDeterministicAcrossWorkers(t *testing.T) {
	for _, policy := range serve.Policies() {
		for seed := uint64(1); seed <= 5; seed++ {
			ref, err := Run(routed(shardedClusterOpts(t, seed, 1), 3, policy))
			if err != nil {
				t.Fatal(err)
			}
			refDigest := recordsDigest(ref.Requests)
			for _, workers := range []int{2, 3, 8} {
				res, err := Run(routed(shardedClusterOpts(t, seed, workers), 3, policy))
				if err != nil {
					t.Fatal(err)
				}
				if got := recordsDigest(res.Requests); got != refDigest {
					t.Fatalf("%s seed=%d workers=%d: record digest %x != sequential %x",
						policy, seed, workers, got, refDigest)
				}
				if res.Summary != ref.Summary {
					t.Fatalf("%s seed=%d workers=%d: summary diverged from sequential", policy, seed, workers)
				}
				for i := range ref.PerReplica {
					if res.PerReplica[i].Submitted != ref.PerReplica[i].Submitted ||
						res.PerReplica[i].Summary != ref.PerReplica[i].Summary ||
						res.PerReplica[i].AvgBatch != ref.PerReplica[i].AvgBatch {
						t.Fatalf("%s seed=%d workers=%d: replica %d diverged from sequential",
							policy, seed, workers, i)
					}
				}
			}
		}
	}
}

// TestFleetLanesSharePriceTable: a fleet's run prices its plan once —
// the node spec's one table, which every lane's engine reads while the
// workers run the lanes concurrently (the race detector watches those
// reads) — and serves record for record what a sequential run whose
// lanes each build a table of their own serves, under both policies:
// lanes alone (round-robin) and lanes in rounds (least-loaded).
func TestFleetLanesSharePriceTable(t *testing.T) {
	for _, policy := range serve.Policies() {
		built := false
		shared, err := run(routed(shardedClusterOpts(t, 3, 4), 6, policy),
			func(spec *nodeSpec, replicas int, policy serve.Policy, netDelay time.Duration, expect int) (*fleet, error) {
				built = spec.cfg.Prices != nil
				return newFleet(spec, replicas, policy, netDelay, expect)
			})
		if err != nil {
			t.Fatal(err)
		}
		own, err := run(routed(shardedClusterOpts(t, 3, 1), 6, policy),
			func(spec *nodeSpec, replicas int, policy serve.Policy, netDelay time.Duration, expect int) (*fleet, error) {
				s := *spec
				s.cfg.Prices = nil
				return newFleet(&s, replicas, policy, netDelay, expect)
			})
		if err != nil {
			t.Fatal(err)
		}
		if !built {
			t.Fatalf("%s: the run's node spec built no price table", policy)
		}
		sameClusterRun(t, string(policy)+" shared table", shared, own)
	}
}

// TestShardedClusterMergesAllArrivals pins the record merge: the
// restamped IDs are the dense front arrival order, every routed
// request — including any still in network transit at the deadline —
// lands in exactly one slot.
func TestShardedClusterMergesAllArrivals(t *testing.T) {
	res, err := Run(routed(shardedClusterOpts(t, 1, 2), 3, serve.LeastLoaded))
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != len(res.Requests) || res.Generated < 300 {
		t.Fatalf("generated %d, records %d", res.Generated, len(res.Requests))
	}
	sub := 0
	for _, rr := range res.PerReplica {
		sub += rr.Submitted
	}
	if sub != res.Generated {
		t.Fatalf("replica submissions %d != arrivals %d", sub, res.Generated)
	}
	for i, r := range res.Requests {
		if r.ID != i {
			t.Fatalf("record %d has ID %d; merge left a hole or duplicate", i, r.ID)
		}
		if r.ArrivalAt < 0 || (i > 0 && r.ArrivalAt < res.Requests[i-1].ArrivalAt) {
			t.Fatalf("record %d out of arrival order", i)
		}
	}
	if res.Workers != 2 || res.NetDelay != time.Millisecond {
		t.Fatalf("execution config not echoed: workers=%d netdelay=%v", res.Workers, res.NetDelay)
	}
}

// TestShardedClusterDriftSafe checks a drift trace runs on the sharded
// engine (rotation lives on the front timeline) and restores the
// workload's rotation afterwards.
func TestShardedClusterDriftSafe(t *testing.T) {
	o := shardedClusterOpts(t, 3, 4)
	before := o.W.PopularityRotation()
	o.Drift = []dataset.DriftEvent{{At: 8 * time.Second, Rotate: o.W.DefaultDriftRotation()}}
	ref, err := Run(routed(o, 2, serve.RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	if got := o.W.PopularityRotation(); got != before {
		t.Fatalf("rotation %d leaked out of the run (was %d)", got, before)
	}
	res, err := Run(routed(o, 2, serve.RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	if recordsDigest(res.Requests) != recordsDigest(ref.Requests) {
		t.Fatal("drifted sharded run not reproducible")
	}
}

// TestRunIgnoresWorkers pins that single-node Run is untouched by the
// parallelism knobs: its schedule never shards.
func TestRunIgnoresWorkers(t *testing.T) {
	a, err := Run(baseOpts(t, CPUOnly, 10))
	if err != nil {
		t.Fatal(err)
	}
	o := baseOpts(t, CPUOnly, 10)
	o.Workers = 8
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if recordsDigest(a.Requests) != recordsDigest(b.Requests) {
		t.Fatal("Run's schedule changed with Workers set")
	}
}

// TestRoutedWorkersNeverPickTheEngine: without a NetDelay a routed
// single corpus stays on one simulator whatever Workers says, so its
// schedule is one at every worker count.
func TestRoutedWorkersNeverPickTheEngine(t *testing.T) {
	var want uint64
	for _, workers := range []int{1, 2, 8} {
		o := routed(shardedClusterOpts(t, 1, workers), 3, serve.RoundRobin)
		o.NetDelay = 0
		res, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		got := recordsDigest(res.Requests)
		if workers == 1 {
			want = got
		}
		if got != want || res.NetDelay != 0 {
			t.Fatalf("workers=%d: digest %x vs %x at one worker, NetDelay %v", workers, got, want, res.NetDelay)
		}
	}
}

func shardedMTOpts(t *testing.T, seed uint64, workers int) Options {
	o := mtOpts(t)
	o.Seed = seed
	o.Duration = 20 * time.Second
	o.Warmup = 5 * time.Second
	o.Drain = 40 * time.Second
	o.Replicas = 2
	o.Workers = workers
	o.ProfileQueries = 1000
	return o
}

// TestShardedTenantsDeterministicAcrossWorkers extends the property
// test to the replicated multi-tenant engine: per-tenant summaries,
// fairness, and the per-replica split are worker-count invariant.
func TestShardedTenantsDeterministicAcrossWorkers(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		ref, err := Run(shardedMTOpts(t, seed, 1))
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.PerReplica) != 2 {
			t.Fatalf("sharded tenants run not replicated: %+v", ref.PerReplica)
		}
		refDigest := recordsDigest(ref.Requests)
		for _, workers := range []int{2, 8} {
			res, err := Run(shardedMTOpts(t, seed, workers))
			if err != nil {
				t.Fatal(err)
			}
			if recordsDigest(res.Requests) != refDigest {
				t.Fatalf("seed=%d workers=%d: tenant records diverged from sequential", seed, workers)
			}
			if res.Fairness != ref.Fairness || res.Attainment != ref.Attainment {
				t.Fatalf("seed=%d workers=%d: fairness aggregates diverged", seed, workers)
			}
			for i := range ref.Tenants {
				if res.Tenants[i].Summary != ref.Tenants[i].Summary ||
					res.Tenants[i].PeakQueue != ref.Tenants[i].PeakQueue {
					t.Fatalf("seed=%d workers=%d: tenant %s diverged", seed, workers, ref.Tenants[i].Name)
				}
			}
			for r := range ref.PerReplica {
				if res.PerReplica[r] != ref.PerReplica[r] {
					t.Fatalf("seed=%d workers=%d: replica %d split diverged", seed, workers, r)
				}
			}
		}
	}
}

// TestShardedTenantsServeEveryTenant checks the replicated engine still
// serves every tenant within its tier expectations at light load.
func TestShardedTenantsServeEveryTenant(t *testing.T) {
	res, err := Run(shardedMTOpts(t, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 3 {
		t.Fatalf("%d tenant results", len(res.Tenants))
	}
	for _, tr := range res.Tenants {
		if tr.Summary.N == 0 {
			t.Fatalf("tenant %s served no requests", tr.Name)
		}
		if tr.Rate != mtOpts(t).Tenants[tenantIndex(t, tr.Name)].Rate {
			t.Fatalf("tenant %s reports scaled rate %v; want the nominal cluster-wide rate", tr.Name, tr.Rate)
		}
	}
}

// tenantIndex maps a tenant name back to its index in mtOpts.
func tenantIndex(t *testing.T, name string) int {
	for i, tc := range mtOpts(t).Tenants {
		if tc.Name == name {
			return i
		}
	}
	t.Fatalf("unknown tenant %s", name)
	return -1
}

// TestShardWorkersResolution pins how the Workers option resolves: the
// default follows GOMAXPROCS (what the process may actually run at
// once), not the host's core count, an explicit count is honored, and
// neither exceeds one worker per shard.
func TestShardWorkersResolution(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ procs, workers, shards, want int }{
		{1, 0, 65, 1},
		{1, -3, 65, 1},
		{3, 0, 65, 3},
		{3, 0, 2, 2},
		{3, 1, 65, 1},
		{3, 8, 65, 8},
		{3, 8, 5, 5},
	} {
		runtime.GOMAXPROCS(tc.procs)
		if got := shardWorkers(tc.workers, tc.shards); got != tc.want {
			t.Errorf("GOMAXPROCS=%d: shardWorkers(%d, %d) = %d, want %d", tc.procs, tc.workers, tc.shards, got, tc.want)
		}
	}
}

// TestWorkerScalingSmoke is the wall-clock verdict on Workers: a
// 16-replica round-robin run — the link-free fleet — on every core
// against the same run on one worker. More workers must never cost more
// than 15 % wall on any multi-core host, and on a host with at least 4
// cores they must buy 1.5x. The least-loaded ratio (lanes in rounds of
// at least two milliseconds, one barrier each) is logged beside it and
// gates nothing: a 16-replica round holds little work, so a barrier's
// cost is its coordinator's, not a regression. So is the least-loaded wall of
// the lanes against the exchange they replaced (des.Group, one barrier
// per millisecond window), the differential tests' reference. It needs
// quiet neighbors, so it runs only when SCALING_SMOKE=1 is exported (the
// dedicated CI step) — never as part of plain `go test`.
func TestWorkerScalingSmoke(t *testing.T) {
	if os.Getenv("SCALING_SMOKE") != "1" {
		t.Skip("set SCALING_SMOKE=1 to run the wall-clock scaling smoke")
	}
	cpus := runtime.GOMAXPROCS(0)
	if cpus < 2 {
		t.Skipf("GOMAXPROCS is %d; scaling smoke needs >= 2", cpus)
	}
	wall := func(policy serve.Policy, workers int, build fleetBuilder) time.Duration {
		o := baseOpts(t, CPUOnly, 400)
		o.Duration = 600 * time.Second
		o.Warmup = 60 * time.Second
		o.Drain = 60 * time.Second
		o.Workers = workers
		o.NetDelay = time.Millisecond
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if _, err := run(routed(o, 16, policy), build); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(t0))
		}
		return best
	}
	w1, all := wall(serve.RoundRobin, 1, newFleet), wall(serve.RoundRobin, 0, newFleet)
	speedup := float64(w1) / float64(all)
	t.Logf("scaling smoke, round-robin (lanes alone): 1 worker %v, %d workers %v, speedup %.2fx", w1, cpus, all, speedup)
	ll1, llAll := wall(serve.LeastLoaded, 1, newFleet), wall(serve.LeastLoaded, 0, newFleet)
	t.Logf("scaling smoke, least-loaded (lanes in rounds, not gated): 1 worker %v, %d workers %v, speedup %.2fx", ll1, cpus, llAll, float64(ll1)/float64(llAll))
	x1, xAll := wall(serve.LeastLoaded, 1, newExchangeFleet), wall(serve.LeastLoaded, 0, newExchangeFleet)
	t.Logf("scaling smoke, least-loaded lanes / exchange wall (not gated): 1 worker %.2f (%v / %v), %d workers %.2f (%v / %v)",
		float64(ll1)/float64(x1), ll1, x1, cpus, float64(llAll)/float64(xAll), llAll, xAll)
	if float64(all) > 1.15*float64(w1) {
		t.Fatalf("%d workers are slower than one: %v vs %v (%.2fx)", cpus, all, w1, speedup)
	}
	if cpus >= 4 && speedup < 1.5 {
		t.Fatalf("%d-worker speedup %.2fx < 1.5x (1w=%v all=%v)", cpus, speedup, w1, all)
	}
}
