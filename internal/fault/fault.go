// Package fault is the deterministic failure-injection subsystem: a
// schedule of replica crash/recovery events, straggler episodes
// (scaled LLM service rates for a window), and degraded PCIe/HBM
// bandwidth episodes (scaled retrieval service rates), delivered onto
// the DES timeline through hooks the serving layer installs.
//
// Everything is virtual-time events: a schedule is data, an Injector
// turns it into simulator events, and the same seed or script always
// produces the same storm — fault runs are as bit-reproducible as
// fault-free ones. An empty schedule installs nothing.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"vectorliterag/internal/des"
)

// Kind is a failure mode.
type Kind string

// The injectable failure modes.
const (
	// Crash takes a replica out entirely at At; it recovers (rejoins the
	// candidate set) Duration later. In-flight requests on the replica
	// are lost — the resilience layer decides whether they fail or fail
	// over.
	Crash Kind = "crash"
	// Straggler scales a replica's LLM iteration time by Factor for
	// Duration — the slow-GPU / noisy-neighbor episode.
	Straggler Kind = "straggler"
	// Bandwidth scales a replica's retrieval service time by Factor for
	// Duration — degraded PCIe/HBM bandwidth on the search path.
	Bandwidth Kind = "bandwidth"
)

// Kinds lists the supported failure modes.
func Kinds() []Kind { return []Kind{Crash, Straggler, Bandwidth} }

// Event is one scheduled failure episode on a replica.
type Event struct {
	Kind    Kind
	Replica int
	// At is the virtual onset instant.
	At time.Duration
	// Duration is how long the episode lasts; the replica recovers (or
	// the slowdown lifts) at At+Duration.
	Duration time.Duration
	// Factor is the service-time multiplier of Straggler/Bandwidth
	// episodes (2 = half speed). Ignored for Crash.
	Factor float64
}

// Schedule is a fault storm: the episodes injected into one run. Order
// does not matter; the Injector sorts deterministically.
type Schedule []Event

// maxFactor bounds a slowdown factor. A factor stretches one priced
// service interval (a batch search, an LLM iteration) and the product is
// converted back to an int64 des.Time; any interval under 100 days
// (8.64e15 ns) stays below 2^63 ns at this bound, while a 1000x straggler
// is already indistinguishable from a crash.
const maxFactor = 1000

// Validate checks every event against the run's replica count.
func (s Schedule) Validate(replicas int) error {
	for i, ev := range s {
		switch ev.Kind {
		case Crash, Straggler, Bandwidth:
		default:
			return fmt.Errorf("fault: event %d: unknown kind %q (have %v)", i, ev.Kind, Kinds())
		}
		if ev.Replica < 0 || ev.Replica >= replicas {
			return fmt.Errorf("fault: event %d: replica %d out of range [0,%d)", i, ev.Replica, replicas)
		}
		if ev.At < 0 {
			return fmt.Errorf("fault: event %d: negative onset %v", i, ev.At)
		}
		if ev.Duration <= 0 {
			return fmt.Errorf("fault: event %d: non-positive duration %v", i, ev.Duration)
		}
		// Written as a negated range so NaN fails it too.
		if ev.Kind != Crash && !(ev.Factor >= 1 && ev.Factor <= maxFactor) {
			return fmt.Errorf("fault: event %d: %s factor %g must be in [1, %d] (a service-time multiplier)", i, ev.Kind, ev.Factor, maxFactor)
		}
	}
	return nil
}

// String renders the schedule in the Parse grammar.
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, ev := range s {
		p := fmt.Sprintf("%s@%v:r%d:%v", ev.Kind, ev.At, ev.Replica, ev.Duration)
		if ev.Kind != Crash {
			p += fmt.Sprintf(":x%g", ev.Factor)
		}
		parts[i] = p
	}
	return strings.Join(parts, ",")
}

// Parse reads the scripted CLI form: comma-separated events, each
//
//	kind@onset:rN:duration[:xFactor]
//
// e.g. "crash@20s:r0:10s,straggler@35s:r1:8s:x2.5,bandwidth@50s:r2:10s:x3".
// The factor is required for straggler/bandwidth and rejected for
// crash.
func Parse(s string) (Schedule, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out Schedule
	for _, part := range strings.Split(s, ",") {
		ev, err := parseEvent(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

func parseEvent(part string) (Event, error) {
	bad := func(why string) (Event, error) {
		return Event{}, fmt.Errorf("fault: bad event %q: %s (want kind@onset:rN:duration[:xFactor], e.g. crash@20s:r0:10s or straggler@35s:r1:8s:x2.5)", part, why)
	}
	kindAt, rest, ok := strings.Cut(part, "@")
	if !ok {
		return bad("missing '@'")
	}
	ev := Event{Kind: Kind(kindAt)}
	switch ev.Kind {
	case Crash, Straggler, Bandwidth:
	default:
		return bad(fmt.Sprintf("unknown kind %q (have %v)", kindAt, Kinds()))
	}
	fields := strings.Split(rest, ":")
	if len(fields) < 3 {
		return bad("missing fields")
	}
	at, err := time.ParseDuration(fields[0])
	if err != nil {
		return bad("bad onset: " + err.Error())
	}
	ev.At = at
	if !strings.HasPrefix(fields[1], "r") {
		return bad("replica must be rN")
	}
	rep, err := strconv.Atoi(fields[1][1:])
	if err != nil {
		return bad("bad replica: " + err.Error())
	}
	ev.Replica = rep
	dur, err := time.ParseDuration(fields[2])
	if err != nil {
		return bad("bad duration: " + err.Error())
	}
	ev.Duration = dur
	switch {
	case len(fields) == 3:
		if ev.Kind != Crash {
			return bad(string(ev.Kind) + " needs an xFactor field")
		}
	case len(fields) == 4:
		if ev.Kind == Crash {
			return bad("crash takes no factor")
		}
		if !strings.HasPrefix(fields[3], "x") {
			return bad("factor must be xN")
		}
		f, err := strconv.ParseFloat(fields[3][1:], 64)
		if err != nil {
			return bad("bad factor: " + err.Error())
		}
		ev.Factor = f
	default:
		return bad("too many fields")
	}
	return ev, nil
}

// Hooks are the serving-layer entry points the Injector drives. Any
// nil hook is skipped (a run without a resilient router can still take
// slowdown episodes, and vice versa).
type Hooks struct {
	// Crash / Recover toggle a replica's membership in the router's
	// candidate set; Crash also fails over its in-flight requests.
	Crash   func(replica int)
	Recover func(replica int)
	// SlowLLM scales replica's LLM iteration time by factor until the
	// given virtual instant.
	SlowLLM func(replica int, factor float64, until des.Time)
	// SlowRetrieval scales replica's retrieval service time by factor
	// until the given virtual instant.
	SlowRetrieval func(replica int, factor float64, until des.Time)
}

// Install schedules the whole storm on the simulator. Events are
// sorted by (At, Replica, Kind) first, so installation order — and
// therefore event sequence numbers and same-instant tie-breaks — is a
// pure function of the schedule, never of its construction order.
func Install(sim *des.Sim, s Schedule, hooks Hooks) {
	sorted := append(Schedule(nil), s...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].At != sorted[j].At {
			return sorted[i].At < sorted[j].At
		}
		if sorted[i].Replica != sorted[j].Replica {
			return sorted[i].Replica < sorted[j].Replica
		}
		return sorted[i].Kind < sorted[j].Kind
	})
	for _, ev := range sorted {
		ev := ev
		until := des.Time(ev.At + ev.Duration)
		switch ev.Kind {
		case Crash:
			if hooks.Crash != nil {
				sim.At(des.Time(ev.At), func() { hooks.Crash(ev.Replica) })
			}
			if hooks.Recover != nil {
				sim.At(until, func() { hooks.Recover(ev.Replica) })
			}
		case Straggler:
			if hooks.SlowLLM != nil {
				sim.At(des.Time(ev.At), func() { hooks.SlowLLM(ev.Replica, ev.Factor, until) })
			}
		case Bandwidth:
			if hooks.SlowRetrieval != nil {
				sim.At(des.Time(ev.At), func() { hooks.SlowRetrieval(ev.Replica, ev.Factor, until) })
			}
		}
	}
}
