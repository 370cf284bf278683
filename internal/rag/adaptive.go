package rag

import (
	"vectorliterag/internal/adapt"
	"vectorliterag/internal/des"
	"vectorliterag/internal/hitrate"
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
// A decision written as a literal carries no models; the controller
// then fits its own the way Decide would, and the decision stays as it
// is. It returns the model-expected mean hit rate of the installed plan,
// the monitor's first anchor. The caller binds the engine (and the
// compactor) once the pipeline exists.
func newAdaptController(sim *des.Sim, opts *Options, d *Decision, mon adapt.MonitorConfig, io *IngestOptions) (*adapt.Controller, float64, error) {
	perf, expected := d.perf, d.MeanHitRate
	if perf == nil {
		prof, err := collect(opts, opts.W, opts.Seed+1)
		if err != nil {
			return nil, 0, err
		}
		var est *hitrate.Estimator
		if est, perf, err = fitModels(prof, opts.Node.CPU); err != nil {
			return nil, 0, err
		}
		expected = est.MeanHitRate(d.Rho)
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
		ProfileQueries: opts.profileQueries(),
		Epsilon:        opts.Epsilon,
	}
	if io != nil {
		cfg.EscalateResidual = io.EscalateResidual
	}
	ctrl, err := adapt.NewController(cfg, adapt.Inputs{
		Sim:       sim,
		W:         opts.W,
		Node:      opts.Node,
		SLOTotal:  opts.sloTotal(),
		SLOSearch: opts.SLOSearch,
		Perf:      perf,
		Mu0:       d.Mu0,
		MemKV:     opts.Model.NodeKVBytes(opts.Node),
		Expected:  expected,
		Seed:      opts.Seed + 13,
	})
	return ctrl, expected, err
}
