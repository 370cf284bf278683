package serve

import "fmt"

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
