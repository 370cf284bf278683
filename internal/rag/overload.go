package rag

import (
	"fmt"
	"time"

	"vectorliterag/internal/brownout"
	"vectorliterag/internal/des"
)

// OverloadOptions configures overload control on a serving run: bounded
// admission queues on the FairScheduler and, optionally, the closed-
// loop brownout controller that sheds retrieval quality when a stage
// overruns its latency budget. Nil (the default everywhere) keeps every
// path byte-identical to a run without overload control.
type OverloadOptions struct {
	// QueueCap bounds each tenant's admission queue: an arrival to a
	// full queue is rejected immediately (surfacing as an unserved
	// request) instead of queueing toward a guaranteed SLO violation.
	// Zero selects the default 64; negative values are rejected.
	QueueCap int
	// Brownout enables the knob-shedding controller. Without it the run
	// is the reject-only arm: bounded queues, no quality shedding.
	Brownout bool
	// RetrievalBudget overrides the retrieval-stage latency budget
	// (default: each tenant's own SLOSearch). Measured arrival →
	// SearchDone, queueing included.
	RetrievalBudget time.Duration
	// GenerationBudget overrides the generation-stage budget (default:
	// the run's SLOGen). Measured SearchDone → FirstToken.
	GenerationBudget time.Duration
}

// normalized validates the options and returns a private copy with the
// defaults filled in (see PrecisionOptions.normalized). A nil receiver
// stays nil.
func (o *OverloadOptions) normalized() (*OverloadOptions, error) {
	if o == nil {
		return nil, nil
	}
	q := *o
	if q.QueueCap < 0 {
		return nil, fmt.Errorf("rag: negative overload QueueCap %d", q.QueueCap)
	}
	if q.QueueCap == 0 {
		q.QueueCap = 64
	}
	if q.RetrievalBudget < 0 || q.GenerationBudget < 0 {
		return nil, fmt.Errorf("rag: negative overload stage budget %v/%v",
			q.RetrievalBudget, q.GenerationBudget)
	}
	return &q, nil
}

// OverloadReport is the overload-control addendum of a run (nil when
// Overload was not configured).
type OverloadReport struct {
	// QueueCap echoes the effective per-tenant admission bound.
	QueueCap int
	// Rejected counts admissions refused per tenant; RejectedTotal sums
	// them (across replicas in a sharded run).
	Rejected      []int
	RejectedTotal int
	// Brownout echoes whether the shedding controller ran. The
	// remaining fields are zero without it.
	Brownout bool
	// MaxLevel is the deepest ladder level reached (max over replicas).
	MaxLevel int
	// TimeInBrownout is virtual time spent above level 0 (max over
	// replicas); BrownoutShare normalizes it by the run's full span.
	TimeInBrownout time.Duration
	BrownoutShare  float64
	// StampedRequests counts dispatches that carried a non-zero rung;
	// MeanShed is their mean probe-shed fraction (stamped-weighted
	// across replicas) — the recall give-up proxy.
	StampedRequests int
	MeanShed        float64
}

// overloadReport folds the nodes' admission counters and brownout
// controllers into one report: rejected counts sum, the brownout depth
// and dwell report the worst replica, and the mean shed weights each
// replica by its stamped requests (a lone node reports its own mean as
// is, with no weighted round trip). span is the full run length.
func overloadReport(o *OverloadOptions, nodes []*node, tenants int, span time.Duration) *OverloadReport {
	rep := &OverloadReport{
		QueueCap: o.QueueCap,
		Brownout: o.Brownout,
		Rejected: make([]int, tenants),
	}
	var shedSum float64
	for _, n := range nodes {
		for t := range rep.Rejected {
			rep.Rejected[t] += n.sched.Rejected(t)
			rep.RejectedTotal += n.sched.Rejected(t)
		}
		if n.brown == nil {
			continue
		}
		rep.MaxLevel = max(rep.MaxLevel, n.brown.MaxLevel())
		rep.TimeInBrownout = max(rep.TimeInBrownout, n.brown.TimeInBrownout(des.Time(span)))
		rep.StampedRequests += n.brown.StampedRequests()
		shedSum += n.brown.MeanShed() * float64(n.brown.StampedRequests())
	}
	if span > 0 {
		rep.BrownoutShare = float64(rep.TimeInBrownout) / float64(span)
	}
	if len(nodes) == 1 && nodes[0].brown != nil {
		rep.MeanShed = nodes[0].brown.MeanShed()
	} else if rep.StampedRequests > 0 {
		rep.MeanShed = shedSum / float64(rep.StampedRequests)
	}
	return rep
}

// stageBudgets derives the brownout controller's per-tenant stage
// budgets: each tenant's own search SLO and the run's generation SLO,
// unless the options override them.
func stageBudgets(o *OverloadOptions, sloSearch []time.Duration, sloGen time.Duration) []brownout.StageBudget {
	budgets := make([]brownout.StageBudget, len(sloSearch))
	for i, slo := range sloSearch {
		b := brownout.StageBudget{Retrieval: slo, Generation: sloGen}
		if o.RetrievalBudget > 0 {
			b.Retrieval = o.RetrievalBudget
		}
		if o.GenerationBudget > 0 {
			b.Generation = o.GenerationBudget
		}
		budgets[i] = b
	}
	return budgets
}
