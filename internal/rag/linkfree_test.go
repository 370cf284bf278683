package rag

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/workload"
)

// TestLinkFreeEngineChoice pins what newFleet builds: one lane per
// replica for every policy — no routed fleet builds a des.Group or a
// serve.Exchange — and, for least-loaded over several replicas only, the
// per-lane inboxes and notice feedback its rounds route from.
func TestLinkFreeEngineChoice(t *testing.T) {
	o := routed(shardedClusterOpts(t, 1, 1), 2, "")
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	d, err := decide(&o)
	if err != nil {
		t.Fatal(err)
	}
	spec := singleSpec(&o, d, nil)
	for _, tc := range []struct {
		policy   serve.Policy
		replicas int
		rounds   bool
	}{
		{serve.RoundRobin, 1, false},
		{serve.RoundRobin, 2, false},
		{serve.RoundRobin, 7, false},
		{serve.LeastLoaded, 1, false},
		{serve.LeastLoaded, 2, true},
		{serve.LeastLoaded, 3, true},
		{serve.LeastLoaded, 64, true},
	} {
		f, err := newFleet(spec, tc.replicas, tc.policy, time.Millisecond, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.nodes) != tc.replicas || len(f.lanes) != tc.replicas {
			t.Fatalf("policy %q x%d: built %d nodes on %d lanes", tc.policy, tc.replicas, len(f.nodes), len(f.lanes))
		}
		for i, l := range f.lanes {
			if got := l.in != nil; got != tc.rounds {
				t.Errorf("policy %q x%d lane %d: routed in rounds = %v, want %v", tc.policy, tc.replicas, i, got, tc.rounds)
			}
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
	matchExchange(t, serve.RoundRobin, []int{1, 2, 3, 7}, []int{1, 2, 4})
}

// TestLeastLoadedLanesMatchExchange is the same differential test for
// least-loaded routing, where the lanes advance in rounds two network
// delays wide and route from completion notices: over the same
// scenarios, replica counts up to 16 and worker counts from the default
// to 4, every run must match the exchange record for record. It fails if
// least-loaded never split the traffic differently from round-robin, so
// the notices demonstrably steered the routing.
func TestLeastLoadedLanesMatchExchange(t *testing.T) {
	splits := matchExchange(t, serve.LeastLoaded, []int{2, 3, 7, 16}, []int{0, 1, 2, 4})
	steered := 0
	for _, res := range splits {
		n, r := len(res.Requests), len(res.PerReplica)
		for i, row := range res.PerReplica {
			if row.Submitted != (n-i+r-1)/r {
				steered++
				break
			}
		}
	}
	if steered == 0 {
		t.Fatalf("least-loaded split all %d runs as round-robin would", len(splits))
	}
}

// matchExchange runs each scenario that stresses the delivery rule —
// drift events on the front, a thinned arrival schedule, and a run cut
// with requests both in flight and in network transit — over seeds and
// the given replica counts, on the exchange and then on the lanes at
// each worker count, and fails unless every lane run matches its
// exchange run. It returns the exchange runs.
func matchExchange(t *testing.T, policy serve.Policy, replicaCounts, workerCounts []int) []*Result {
	t.Helper()
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
	var refs []*Result
	onWire, midPipe := 0, 0
	for _, v := range variants {
		for _, seed := range seeds {
			for _, replicas := range replicaCounts {
				o := shardedClusterOpts(t, seed, 1)
				v.mod(&o)
				want, err := run(routed(o, replicas, policy), newExchangeFleet)
				if err != nil {
					t.Fatal(err)
				}
				refs = append(refs, want)
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
				for _, workers := range workerCounts {
					o.Workers = workers
					got, err := Run(routed(o, replicas, policy))
					if err != nil {
						t.Fatal(err)
					}
					sameClusterRun(t, fmt.Sprintf("%s %s seed=%d x%d workers=%d", policy, v.name, seed, replicas, workers), got, want)
				}
			}
		}
	}
	if onWire == 0 || midPipe == 0 {
		t.Fatalf("the cut runs never caught a request on the wire (%d) and one mid-pipeline (%d)", onWire, midPipe)
	}
	return refs
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
	matchExchangeTenants(t, serve.RoundRobin, []int{1, 2, 3})
}

// TestLeastLoadedTenantsMatchExchange is the tenant-lineup half of the
// least-loaded differential test: a rejection at admission sends its
// notice back like a completion, so overload steers the routing too.
func TestLeastLoadedTenantsMatchExchange(t *testing.T) {
	matchExchangeTenants(t, serve.LeastLoaded, []int{2, 3, 7})
}

// matchExchangeTenants runs the tenant lineup, with and without a tight
// overload rig, over seeds and the given replica counts on the exchange
// and on the lanes at several worker counts, and fails unless they agree
// on every record, tenant, aggregate, split and overload count, or if
// the overload arms rejected nothing.
func matchExchangeTenants(t *testing.T, policy serve.Policy, replicaCounts []int) {
	t.Helper()
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	rejected := 0
	for _, overload := range []bool{false, true} {
		for _, seed := range seeds {
			for _, replicas := range replicaCounts {
				o := shardedMTOpts(t, seed, 1)
				o.Replicas, o.Policy, o.NetDelay = replicas, policy, time.Millisecond
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
					label := fmt.Sprintf("%s overload=%v seed=%d x%d workers=%d", policy, overload, seed, replicas, workers)
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

// TestNoticeAtArrivalInstantCountsAfter pins the one tie the rounds'
// routing decides: a notice stamped before an arrival frees its gauge
// before that arrival is routed, and one stamped exactly at an arrival
// instant counts after every arrival of that instant — the order the
// exchange's replay handler gave them. Two replicas, cursor-first ties:
// the notice at t=4 evens the gauges so that the cursor picks replica 1
// at t=5; had the t=5 notice gone first, replica 0 would have been the
// strictly smaller gauge.
func TestNoticeAtArrivalInstantCountsAfter(t *testing.T) {
	arrivals := []des.Time{0, 1, 2, 5, 5, 6}
	f := &fleet{records: make([]workload.Request, len(arrivals)), netDelay: 1}
	for k, at := range arrivals {
		f.records[k] = workload.Request{ID: k, ArrivalAt: at}
	}
	for range 2 {
		f.lanes = append(f.lanes, &lane{in: des.NewInbox(nil, 0)})
	}
	rt := &router{load: newLoadIndex(2), next: []des.Time{never, never}}
	rt.batch = []notice{{at: 4, lane: 0}, {at: 5, lane: 0}}
	rt.route(f, never)
	picks := make([]int, len(arrivals))
	for i, l := range f.lanes {
		l.in.Drain(func(at des.Time, arg any) {
			req := arg.(*workload.Request)
			picks[req.ID] = i
			if at != req.ArrivalAt+f.netDelay {
				t.Errorf("arrival %d posted at %d, want arrival + network delay", req.ID, at)
			}
		})
	}
	if want := []int{0, 1, 0, 1, 0, 0}; !reflect.DeepEqual(picks, want) {
		t.Fatalf("picks %v, want %v", picks, want)
	}
	// Four routed to replica 0 less its two notices; each lane's next
	// instant is its first arrival's delivery.
	if !reflect.DeepEqual(rt.load.gauge, []int{2, 2}) || !reflect.DeepEqual(rt.next, []des.Time{1, 2}) {
		t.Fatalf("gauges %v, lane heads %v; want [2 2] and [1 2]", rt.load.gauge, rt.next)
	}
}

// TestLoadIndexPicksLikeScan: the bitset pick is the scan of
// serve.Router and serve.Exchange — from the cursor round the ring, the
// first strictly smaller gauge wins — over random picks and releases,
// for replica counts on both sides of a 64-bit word.
func TestLoadIndexPicksLikeScan(t *testing.T) {
	for _, r := range []int{1, 2, 3, 63, 64, 65, 130} {
		x := newLoadIndex(r)
		gauge, cursor := make([]int, r), 0
		state := uint64(r)
		rnd := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(n))
		}
		for op := 0; op < 20000; op++ {
			if i := rnd(r); rnd(3) == 0 && gauge[i] > 0 {
				gauge[i]--
				x.move(i, -1)
				continue
			}
			want := cursor
			for k := 1; k < r; k++ {
				if c := (cursor + k) % r; gauge[c] < gauge[want] {
					want = c
				}
			}
			cursor = (cursor + 1) % r
			gauge[want]++
			if got := x.pick(); got != want {
				t.Fatalf("R=%d op %d: picked %d, scan picks %d (gauges %v)", r, op, got, want, gauge)
			}
		}
		if !reflect.DeepEqual(x.gauge, gauge) {
			t.Fatalf("R=%d: gauges %v, want %v", r, x.gauge, gauge)
		}
	}
}
