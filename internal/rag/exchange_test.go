package rag

import (
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/workload"
)

// newExchangeFleet builds the fleet on the sharded exchange — front and
// replicas as shards of a des.Group behind a serve.Exchange, one barrier
// per network delay — whatever the policy. It is the engine the lanes
// replaced, kept as the differential tests' reference. Without a pool a
// completion notice only decrements the front's gauge.
func newExchangeFleet(spec *nodeSpec, replicas int, policy serve.Policy, netDelay time.Duration, expect int) (*fleet, error) {
	f := newFront(replicas, netDelay, expect)
	x, err := serve.NewExchange(policy, replicas, netDelay, netDelay, nil)
	if err != nil {
		return nil, err
	}
	for i := range f.nodes {
		// Each replica admits (or rejects) on its own timeline, so overload
		// control is per replica and the schedule stays a pure function of
		// the options for any worker count.
		if err := f.build(spec, i, x.ReplicaSim(i), x.NoticeSink(i)); err != nil {
			return nil, err
		}
		x.BindReplica(i, f.nodes[i].submit)
	}
	f.phase2 = func(deadline des.Time, used int) []int {
		replay(x, f.records)
		x.Run(deadline, used)
		submitted := make([]int, replicas)
		for i := range submitted {
			submitted[i] = x.Submitted(i)
		}
		return submitted
	}
	return f, nil
}

// replay arms the exchange's front shard with the record array: one
// handler routes every arrival of an instant, in array order, and then
// arms the next instant's. A completion notice stamped at an instant
// thus lands after every arrival of that instant, as it did behind the
// generator events that were queued before it.
func replay(x *serve.Exchange, records []workload.Request) {
	front, k := x.FrontSim(), 0
	var fire func()
	fire = func() {
		for now := front.Now(); k < len(records) && records[k].ArrivalAt == now; k++ {
			x.Submit(&records[k])
		}
		if k < len(records) {
			front.At(records[k].ArrivalAt, fire)
		}
	}
	front.At(0, fire)
}
