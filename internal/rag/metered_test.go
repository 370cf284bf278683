package rag

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/workload"
)

// inSection is the most requests of ids (nil: every record) that lie in
// the scheduler's metered section at one instant, as the records show
// it: from SearchStart, which the engine stamps after dispatch, to
// FirstToken, where the slot frees. A request still short of its first
// token when the clock stopped holds its slot to the end. A slot freed
// at an instant may be taken again at that instant, so releases count
// first.
func inSection(records []workload.Request, ids []int32) int {
	type edge struct {
		at   des.Time
		step int
	}
	var edges []edge
	add := func(r *workload.Request) {
		if r.SearchStart == 0 {
			return // never dispatched, or queued in the engine at the deadline
		}
		edges = append(edges, edge{r.SearchStart, 1})
		if r.FirstToken > 0 {
			edges = append(edges, edge{r.FirstToken, -1})
		}
	}
	if ids == nil {
		for i := range records {
			add(&records[i])
		}
	} else {
		for _, id := range ids {
			add(&records[id])
		}
	}
	slices.SortFunc(edges, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.step, b.step))
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.step
		peak = max(peak, cur)
	}
	return peak
}

// TestSchedulerMeteredSectionBounded: however hard arrivals press, no
// node ever holds more than schedulerInflight requests between dispatch
// and first token, and no tenant's queue grows past its cap — on a
// lineup under a burst, the same lineup on two fleet lanes run by two
// workers, and a single corpus under overload control.
func TestSchedulerMeteredSectionBounded(t *testing.T) {
	check := func(label string, records []workload.Request, ids []int32) {
		t.Helper()
		peak := inSection(records, ids)
		if peak > schedulerInflight {
			t.Errorf("%s: %d requests between search start and first token at once, bound %d", label, peak, schedulerInflight)
		}
		if peak < schedulerInflight/2 {
			t.Errorf("%s: at most %d requests in the metered section: the load never pressed the bound %d", label, peak, schedulerInflight)
		}
	}

	// Every tenant bursts to four times its nominal rate for 10 s of
	// each 30 s, so every per-tenant cap fills. On two replicas each
	// tenant brings twice the traffic, so each node sees as much.
	lineup := mtOpts(t)
	routedLineup := lineup
	routedLineup.Replicas, routedLineup.Workers = 2, 2
	for _, o := range []*Options{&lineup, &routedLineup} {
		o.Tenants = slices.Clone(o.Tenants)
		for i := range o.Tenants {
			tc := &o.Tenants[i]
			if o.Replicas > 0 {
				tc.Rate *= 2
			}
			tc.RateSchedule = workload.Bursts(tc.Rate, 4*tc.Rate, 30*time.Second, 10*time.Second)
		}
	}
	res, err := Run(lineup)
	if err != nil {
		t.Fatal(err)
	}
	check("lineup", res.Requests, nil)

	var f *fleet
	res, err = run(routedLineup, func(spec *nodeSpec, replicas int, policy serve.Policy, netDelay time.Duration, expect int) (*fleet, error) {
		f, err = newFleet(spec, replicas, policy, netDelay, expect)
		return f, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range f.nodes {
		check(fmt.Sprintf("lineup, replica %d of 2", i), res.Requests, n.ids)
	}

	// One corpus under overload control, served on one node as Run
	// serves it, so that its scheduler can be read.
	o := baseOpts(t, VLiteRAG, 40)
	o.Overload = &OverloadOptions{QueueCap: 16}
	s, err := decidedCorpus(t, &o).node(new(des.Sim), &o, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("single corpus, overload", s.records, nil)
	sched := s.nodes[0].sched
	if peak := sched.PeakQueue(0); peak > o.Overload.QueueCap || sched.Rejected(0) == 0 {
		t.Errorf("single corpus, overload: peak queue %d against cap %d, %d rejected", peak, o.Overload.QueueCap, sched.Rejected(0))
	}
}
