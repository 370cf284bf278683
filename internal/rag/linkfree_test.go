package rag

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/workload"
)

// TestLinkFreeEngineChoice pins which engine newFleet builds: routing
// that cannot observe replica state gets no des.Group and no
// serve.Exchange; least-loaded over several replicas keeps both.
func TestLinkFreeEngineChoice(t *testing.T) {
	o := routed(shardedClusterOpts(t, 1, 1), 2, "")
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	d, err := profileAndDecide(&o, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := singleSpec(&o, d, nil)
	for _, tc := range []struct {
		policy   serve.Policy
		replicas int
		linkFree bool
	}{
		{serve.RoundRobin, 1, true},
		{serve.RoundRobin, 2, true},
		{serve.RoundRobin, 7, true},
		{serve.LeastLoaded, 1, true},
		{serve.LeastLoaded, 2, false},
		{serve.LeastLoaded, 3, false},
	} {
		f, err := newFleet(spec, tc.replicas, tc.policy, time.Millisecond, 100)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.x == nil; got != tc.linkFree {
			t.Errorf("policy %q x%d: link-free = %v, want %v", tc.policy, tc.replicas, got, tc.linkFree)
		}
		if len(f.nodes) != tc.replicas {
			t.Errorf("policy %q x%d: built %d nodes", tc.policy, tc.replicas, len(f.nodes))
		}
	}
}

// sameClusterRun fails unless two cluster runs agree on everything the
// schedule determines.
func sameClusterRun(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if g, w := recordsDigest(got.Requests), recordsDigest(want.Requests); g != w || len(got.Requests) != len(want.Requests) {
		t.Fatalf("%s: %d records digest %x, exchange %d records digest %x", label, len(got.Requests), g, len(want.Requests), w)
	}
	if got.Summary != want.Summary {
		t.Fatalf("%s: summary diverged\n got %+v\nwant %+v", label, got.Summary, want.Summary)
	}
	if got.AvgBatch != want.AvgBatch || got.Generated != want.Generated {
		t.Fatalf("%s: avg batch %v / generated %d, exchange %v / %d", label, got.AvgBatch, got.Generated, want.AvgBatch, want.Generated)
	}
	if !reflect.DeepEqual(got.PerReplica, want.PerReplica) {
		t.Fatalf("%s: per-replica rows diverged\n got %+v\nwant %+v", label, got.PerReplica, want.PerReplica)
	}
}

// TestLinkFreeMatchesExchange is the tentpole's differential test: for
// round-robin routing the link-free fleet (pre-routed arrivals, each
// replica run alone to the deadline) must reproduce the exchange-backed
// fleet — the engine it replaced, still reachable through the
// unexported constructor — record for record, over seeds, replica
// counts, worker counts, and the scenarios that stress the delivery
// rule: drift events on the front, a thinned arrival schedule, and a
// run cut with requests both in flight and in network transit.
func TestLinkFreeMatchesExchange(t *testing.T) {
	const transit = 50 * time.Millisecond
	variants := []struct {
		name string
		mod  func(o *Options)
	}{
		{"plain", func(o *Options) {}},
		{"drift", func(o *Options) {
			o.Drift = []dataset.DriftEvent{
				{At: 6 * time.Second, Rotate: o.W.DefaultDriftRotation()},
				{At: 13 * time.Second, Rotate: 2 * o.W.DefaultDriftRotation()},
			}
		}},
		{"schedule", func(o *Options) {
			o.RateSchedule = workload.Bursts(10, 70, 6*time.Second, 2*time.Second)
		}},
		// No drain to speak of (zero would take the default) and a long
		// transit: the deadline finds requests mid-pipeline and on the wire.
		{"cut", func(o *Options) {
			o.Rate, o.Drain, o.NetDelay = 60, time.Nanosecond, transit
		}},
	}
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	onWire, midPipe := 0, 0
	for _, v := range variants {
		for _, seed := range seeds {
			for _, replicas := range []int{1, 2, 3, 7} {
				o := shardedClusterOpts(t, seed, 1)
				v.mod(&o)
				want, err := run(routed(o, replicas, serve.RoundRobin), newExchangeFleet)
				if err != nil {
					t.Fatal(err)
				}
				if v.name == "cut" {
					deadline := o.Duration + o.Drain
					for _, r := range want.Requests {
						switch {
						case time.Duration(r.ArrivalAt)+transit > deadline:
							onWire++
						case r.Done == 0:
							midPipe++
						}
					}
				}
				for _, workers := range []int{1, 2, 4} {
					o.Workers = workers
					got, err := Run(routed(o, replicas, serve.RoundRobin))
					if err != nil {
						t.Fatal(err)
					}
					sameClusterRun(t, fmt.Sprintf("%s seed=%d x%d workers=%d", v.name, seed, replicas, workers), got, want)
				}
			}
		}
	}
	if onWire == 0 || midPipe == 0 {
		t.Fatalf("the cut runs never caught a request on the wire (%d) and one mid-pipeline (%d)", onWire, midPipe)
	}
}

// TestLinkFreeSingleReplicaAnyPolicy: one replica leaves the router
// nothing to choose, so least-loaded takes the link-free path too and
// must match the exchange it would otherwise have run on.
func TestLinkFreeSingleReplicaAnyPolicy(t *testing.T) {
	o := shardedClusterOpts(t, 2, 2)
	o = routed(o, 1, serve.LeastLoaded)
	want, err := run(o, newExchangeFleet)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	sameClusterRun(t, "least-loaded x1", got, want)
}

// TestLinkFreeTenantsMatchExchange is the differential test on the
// multi-tenant fleet: several generators multiplex onto the front (so
// the restamped global ID, not the generator's, orders the merge), and
// bounded admission rejects on the replicas.
func TestLinkFreeTenantsMatchExchange(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	rejected := 0
	for _, overload := range []bool{false, true} {
		for _, seed := range seeds {
			for _, replicas := range []int{1, 2, 3} {
				o := shardedMTOpts(t, seed, 1)
				o.Replicas, o.Policy, o.NetDelay = replicas, serve.RoundRobin, time.Millisecond
				if overload {
					// A tight queue under a hard burst: rejections are certain.
					o.Overload = &OverloadOptions{QueueCap: 4, Brownout: true}
					o.Tenants[2].RateSchedule = workload.Bursts(4, 80*float64(replicas), 10*time.Second, 4*time.Second)
				}
				want, err := run(o, newExchangeFleet)
				if err != nil {
					t.Fatal(err)
				}
				if overload {
					rejected += want.Overload.RejectedTotal
				}
				for _, workers := range []int{1, 2, 4} {
					o.Workers = workers
					got, err := Run(o)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("overload=%v seed=%d x%d workers=%d", overload, seed, replicas, workers)
					if g, w := recordsDigest(got.Requests), recordsDigest(want.Requests); g != w || len(got.Requests) != len(want.Requests) {
						t.Fatalf("%s: %d records digest %x, exchange %d records digest %x", label, len(got.Requests), g, len(want.Requests), w)
					}
					if !reflect.DeepEqual(got.Tenants, want.Tenants) {
						t.Fatalf("%s: tenant results diverged\n got %+v\nwant %+v", label, got.Tenants, want.Tenants)
					}
					if got.Fairness != want.Fairness || got.Attainment != want.Attainment || got.AvgBatch != want.AvgBatch {
						t.Fatalf("%s: aggregates diverged", label)
					}
					if !reflect.DeepEqual(got.PerReplica, want.PerReplica) {
						t.Fatalf("%s: split %+v, exchange %+v", label, got.PerReplica, want.PerReplica)
					}
					if !reflect.DeepEqual(got.Overload, want.Overload) {
						t.Fatalf("%s: overload report diverged\n got %+v\nwant %+v", label, got.Overload, want.Overload)
					}
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("the overload arms rejected nothing; the rejection path went untested")
	}
}
