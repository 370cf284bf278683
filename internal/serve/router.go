package serve

import (
	"fmt"

	"vectorliterag/internal/workload"
)

// Policy selects how the front-end router spreads requests across
// replica nodes.
type Policy string

// The supported routing policies.
const (
	// RoundRobin cycles through replicas in order.
	RoundRobin Policy = "round-robin"
	// LeastLoaded picks the replica with the fewest in-flight requests,
	// breaking ties round-robin so equal replicas share evenly.
	LeastLoaded Policy = "least-loaded"
)

// Policies lists the supported routing policies.
func Policies() []Policy { return []Policy{RoundRobin, LeastLoaded} }

// ResolvePolicy validates a policy string, mapping the empty string to
// the default (LeastLoaded). Callers that do expensive setup before
// routing should resolve up front.
func ResolvePolicy(p Policy) (Policy, error) {
	switch p {
	case RoundRobin, LeastLoaded:
		return p, nil
	case "":
		return LeastLoaded, nil
	default:
		return "", fmt.Errorf("serve: unknown routing policy %q (have %v)", p, Policies())
	}
}

// Replica is one node behind the router, with the in-flight accounting
// the least-loaded policy reads.
type Replica struct {
	submit    Sink
	inflight  int
	submitted int
}

// NewReplica returns an unbound replica for placement behind a router.
// Wire Release as (part of) the node's terminal sink so completions
// decrement the in-flight gauge.
func NewReplica() *Replica { return &Replica{} }

// Bind attaches the sink the replica's node takes requests by (the node
// is built after the replica so its terminal sink can reference
// Release).
func (r *Replica) Bind(submit Sink) { r.submit = submit }

// Release records one request leaving the replica (generation done).
// The gauge is guarded against underflow: resilience paths can route a
// completion to Release after the request was already failed over away
// from this replica (or after a crash reset the gauge), and a
// double-release must not drive the load signal negative — a negative
// gauge would make the least-loaded policy prefer this replica forever.
func (r *Replica) Release(*workload.Request) {
	if r.inflight > 0 {
		r.inflight--
	}
}

// Submitted returns the number of requests routed to this replica.
func (r *Replica) Submitted() int { return r.submitted }

// Router is the cluster front end: it fans requests out to N replica
// nodes. With one replica it degenerates to a pass-through.
type Router struct {
	policy   Policy
	replicas []*Replica
	next     int
}

// NewRouter builds a router over the given replicas.
func NewRouter(policy Policy, replicas []*Replica) (*Router, error) {
	policy, err := ResolvePolicy(policy)
	if err != nil {
		return nil, err
	}
	if len(replicas) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one replica")
	}
	for i, r := range replicas {
		if r == nil || r.submit == nil {
			return nil, fmt.Errorf("serve: replica %d has no node bound", i)
		}
	}
	return &Router{policy: policy, replicas: replicas}, nil
}

// Submit picks a replica per the policy and hands the request to that
// replica's node.
func (r *Router) Submit(req *workload.Request) {
	pick := r.next
	if r.policy == LeastLoaded {
		// From the cursor round the ring, first strictly smaller load wins.
		for c := r.next + 1; c < len(r.replicas); c++ {
			if r.replicas[c].inflight < r.replicas[pick].inflight {
				pick = c
			}
		}
		for c := 0; c < r.next; c++ {
			if r.replicas[c].inflight < r.replicas[pick].inflight {
				pick = c
			}
		}
	}
	if r.next++; r.next == len(r.replicas) {
		r.next = 0
	}
	rep := r.replicas[pick]
	rep.inflight++
	rep.submitted++
	rep.submit(req)
}
