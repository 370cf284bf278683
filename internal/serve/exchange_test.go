package serve

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/workload"
)

// exchangeRun drives an Exchange with a synthetic workload: arrivals
// every 5 ms on the front, a replica "pipeline" that services each
// request in (20 + 7·(id mod 5)) ms, and the completion notice wired
// as the terminal sink. It returns the per-replica admission logs and
// submitted counts.
func exchangeRun(t *testing.T, policy Policy, replicas, workers, total int) ([][]int, []int) {
	t.Helper()
	pool := &workload.Pool{}
	x, err := NewExchange(policy, replicas, time.Millisecond, time.Millisecond, pool)
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]int, replicas)
	for i := 0; i < replicas; i++ {
		i := i
		sim := x.ReplicaSim(i)
		notice := x.NoticeSink(i)
		x.BindReplica(i, func(req *workload.Request) {
			logs[i] = append(logs[i], req.ID)
			svc := time.Duration(20+7*(req.ID%5)) * time.Millisecond
			sim.AfterArg(svc, func(a any) {
				r := a.(*workload.Request)
				r.Done = sim.Now()
				notice(r)
			}, req)
		})
	}
	front := x.FrontSim()
	n := 0
	var arrive func()
	arrive = func() {
		req := pool.Get()
		req.ArrivalAt = front.Now()
		x.Submit(req)
		n++
		if n < total {
			front.After(5*time.Millisecond, arrive)
		}
	}
	front.At(0, arrive)
	x.Run(des.Time(time.Hour), workers)
	if x.Arrivals() != total {
		t.Fatalf("%d arrivals, want %d", x.Arrivals(), total)
	}
	subs := make([]int, replicas)
	for i := range subs {
		subs[i] = x.Submitted(i)
	}
	return logs, subs
}

// TestExchangeDeterministicAcrossWorkers pins that the exchange's
// routed schedule is identical for any worker count, for both
// policies.
func TestExchangeDeterministicAcrossWorkers(t *testing.T) {
	for _, policy := range Policies() {
		refLogs, refSubs := exchangeRun(t, policy, 4, 1, 400)
		for _, workers := range []int{2, 3, 8} {
			logs, subs := exchangeRun(t, policy, 4, workers, 400)
			if !reflect.DeepEqual(logs, refLogs) || !reflect.DeepEqual(subs, refSubs) {
				t.Fatalf("%s workers=%d: routed schedule diverged from sequential", policy, workers)
			}
		}
	}
}

// TestExchangeRoutingInvariants checks the policies do what the
// single-timeline Router does: round-robin splits exactly evenly, and
// least-loaded keeps every replica busy within a fair share.
func TestExchangeRoutingInvariants(t *testing.T) {
	_, subs := exchangeRun(t, RoundRobin, 4, 2, 400)
	for i, s := range subs {
		if s != 100 {
			t.Fatalf("round-robin replica %d got %d, want 100", i, s)
		}
	}
	_, subs = exchangeRun(t, LeastLoaded, 4, 2, 400)
	for i, s := range subs {
		if s < 60 || s > 140 {
			t.Fatalf("least-loaded replica %d share %d of 400 outside [60,140]", i, s)
		}
	}
}

// TestExchangeRestampAndRecycle checks the global arrival restamp (IDs
// are the front arrival order, densely 0..N-1 across replicas) and
// that completion notices return requests to the pool, keeping the
// allocated population at the in-flight peak instead of the request
// count.
func TestExchangeRestampAndRecycle(t *testing.T) {
	pool := &workload.Pool{}
	x, err := NewExchange(LeastLoaded, 2, time.Millisecond, time.Millisecond, pool)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		i := i
		sim := x.ReplicaSim(i)
		notice := x.NoticeSink(i)
		x.BindReplica(i, func(req *workload.Request) {
			if seen[req.ID] {
				t.Errorf("duplicate restamped ID %d", req.ID)
			}
			seen[req.ID] = true
			sim.AfterArg(10*time.Millisecond, func(a any) { notice(a.(*workload.Request)) }, req)
		})
	}
	front := x.FrontSim()
	n := 0
	var arrive func()
	arrive = func() {
		req := pool.Get()
		req.ID = 999999 // generator-local ID; Submit must restamp
		x.Submit(req)
		n++
		if n < 300 {
			front.After(5*time.Millisecond, arrive)
		}
	}
	front.At(0, arrive)
	x.Run(des.Time(time.Hour), 2)
	for id := 0; id < 300; id++ {
		if !seen[id] {
			t.Fatalf("restamped ID %d never delivered", id)
		}
	}
	if got := pool.Allocated(); got >= 300/4 {
		t.Fatalf("pool allocated %d requests; notices are not recycling", got)
	}
	for i := 0; i < 2; i++ {
		if x.Inflight(i) != 0 {
			t.Fatalf("replica %d inflight %d after drain", i, x.Inflight(i))
		}
	}
}

// TestExchangeEarlyTermination terminates a busy sharded run mid-storm
// — arrivals still flowing, replicas mid-service, notices in feedback
// transit — and checks the accounting invariant a fleet's in-place
// record array depends on: every routed request is either delivered to
// exactly one replica head or was routed within the last network delay
// and is still on the wire, never both, never neither. The stranded set
// must also be identical for any worker count, like every other
// observable of the exchange.
func TestExchangeEarlyTermination(t *testing.T) {
	const deadline = des.Time(50 * time.Millisecond)
	const net = 2 * time.Millisecond
	run := func(workers int) (delivered map[int]int, stranded []int, arrivals int) {
		x, err := NewExchange(RoundRobin, 3, net, net, nil)
		if err != nil {
			t.Fatal(err)
		}
		delivered = map[int]int{}
		// Replica shards run on separate worker goroutines; the shared
		// delivered map needs a lock (test bookkeeping only — the
		// exchange itself shares nothing across shards).
		var mu sync.Mutex
		for i := 0; i < 3; i++ {
			i := i
			sim := x.ReplicaSim(i)
			notice := x.NoticeSink(i)
			x.BindReplica(i, func(req *workload.Request) {
				mu.Lock()
				if prev, dup := delivered[req.ID]; dup {
					t.Errorf("request %d delivered to replica %d and %d", req.ID, prev, i)
				}
				delivered[req.ID] = i
				mu.Unlock()
				sim.AfterArg(10*time.Millisecond, func(a any) { notice(a.(*workload.Request)) }, req)
			})
		}
		front := x.FrontSim()
		var routed []*workload.Request
		var arrive func()
		arrive = func() {
			req := &workload.Request{ArrivalAt: front.Now()}
			x.Submit(req)
			routed = append(routed, req)
			if len(routed) < 100 {
				front.After(time.Millisecond, arrive)
			}
		}
		front.At(0, arrive)
		x.Run(deadline, workers)
		for _, req := range routed {
			_, ok := delivered[req.ID]
			if onWire := req.ArrivalAt+des.Time(net) > deadline; onWire == ok {
				t.Errorf("request %d routed at %d: delivered %v, on the wire %v", req.ID, req.ArrivalAt, ok, onWire)
			}
			if !ok {
				stranded = append(stranded, req.ID)
			}
		}
		return delivered, stranded, x.Arrivals()
	}

	delivered, stranded, arrivals := run(1)
	if len(stranded) == 0 {
		t.Fatal("no requests in transit at the deadline; the cut is not mid-storm")
	}
	if arrivals >= 100 {
		t.Fatalf("all %d arrivals routed; the cut is not early", arrivals)
	}
	if len(delivered)+len(stranded) != arrivals {
		t.Fatalf("delivered %d + stranded %d != routed %d: requests lost at termination",
			len(delivered), len(stranded), arrivals)
	}
	for _, workers := range []int{2, 4} {
		_, s, a := run(workers)
		if a != arrivals || !reflect.DeepEqual(s, stranded) {
			t.Fatalf("workers=%d: stranded set %v (of %d) diverged from sequential %v (of %d)",
				workers, s, a, stranded, arrivals)
		}
	}
}

func TestExchangeValidation(t *testing.T) {
	if _, err := NewExchange(LeastLoaded, 0, time.Millisecond, time.Millisecond, nil); err == nil {
		t.Error("zero replicas accepted")
	}
	if _, err := NewExchange(LeastLoaded, 2, 0, time.Millisecond, nil); err == nil {
		t.Error("zero net delay accepted")
	}
	if _, err := NewExchange(LeastLoaded, 2, time.Millisecond, 0, nil); err == nil {
		t.Error("zero feedback delay accepted")
	}
	if _, err := NewExchange("bogus", 2, time.Millisecond, time.Millisecond, nil); err == nil {
		t.Error("unknown policy accepted")
	}
}
