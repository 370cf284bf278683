package rag

import (
	"vectorliterag/internal/adapt"
	"vectorliterag/internal/des"
)

// AdaptReport is the adapt controller's record: every rebuild it
// executed and the expectation it started from. Result.Rho reports the
// *initial* plan's coverage; each rebuild record carries the coverage
// it moved to.
type AdaptReport struct {
	// ExpectedHitRate is the model-expected mean hit rate of the initial
	// plan (the monitor's first anchor).
	ExpectedHitRate float64
	// Rebuilds holds the completed cycles; on a live corpus compaction
	// cycles carry Compaction == true.
	Rebuilds []adapt.RebuildRecord
	// Pending is a rebuild still in flight when the clock stopped (its
	// remaining stages lay past duration+drain), or nil. Shards it left
	// refreshing explain a hit-rate dip at the tail of the timeline.
	Pending *adapt.RebuildRecord
	// Observed is how many completed requests fed the monitor.
	Observed int
}

// newAdaptController builds the in-loop adaptation controller for a
// single-node run — the re-partitioning plane and, with io set, the
// compaction plane of a live run — on the models the decision was made
// from: the controller re-measures only the access profile across
// cycles, because drift moves the query distribution, not the machine.
// It returns the model-expected mean hit rate of the installed plan,
// the monitor's first anchor. The caller binds the engine (and the
// compactor) once the pipeline exists.
func newAdaptController(sim *des.Sim, opts *Options, d *decision, mon adapt.MonitorConfig, io *IngestOptions) (*adapt.Controller, float64, error) {
	if err := d.fit(); err != nil {
		return nil, 0, err
	}
	if d.mu0 == 0 { // a prebuilt plan skipped the capacity measurement
		var err error
		if d.mu0, err = BareCapacity(opts.Node, opts.Model, opts.Shape); err != nil {
			return nil, 0, err
		}
	}
	if mon.WindowRequests == 0 {
		// Roughly ten seconds of traffic. With a schedule driving
		// arrivals, Rate is only a label (and may be far off the real
		// traffic), so the schedule's bound sizes the window —
		// conservatively large, which also keeps the one-window post-swap
		// cooldown meaningful.
		rate := opts.Rate
		if opts.RateSchedule != nil {
			rate = opts.RateSchedule.MaxRate()
		}
		mon.WindowRequests = max(int(rate*10), 100)
	}
	cfg := adapt.Config{
		Monitor:        mon,
		ProfileQueries: opts.ProfileQueries,
		Epsilon:        opts.Epsilon,
	}
	if io != nil {
		cfg.EscalateSkew, cfg.EscalateResidual = io.EscalateSkew, io.EscalateResidual
	}
	expected := d.est.MeanHitRate(d.rho)
	ctrl, err := adapt.NewController(cfg, adapt.Inputs{
		Sim:       sim,
		W:         opts.W,
		Node:      opts.Node,
		SLOTotal:  d.sloTotal,
		SLOSearch: opts.SLOSearch,
		Perf:      d.perf,
		Mu0:       d.mu0,
		MemKV:     opts.Model.NodeKVBytes(opts.Node),
		Expected:  expected,
		Seed:      opts.Seed + 13,
	})
	return ctrl, expected, err
}
