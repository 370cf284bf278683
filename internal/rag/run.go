package rag

import (
	"fmt"

	"vectorliterag/internal/adapt"
	"vectorliterag/internal/des"
	"vectorliterag/internal/ingest"
	"vectorliterag/internal/retrieval"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/workload"
)

// Run executes one evaluation point: it makes the system's resource
// decision, composes the serving pipeline (admission → retrieval →
// generation → collector), and drives Poisson arrivals through it in
// virtual time.
func Run(opts Options) (*Result, error) {
	run, err := runSingle(opts, nil, nil)
	if err != nil {
		return nil, err
	}
	return &run.Result, nil
}

// single is what a single-node run leaves behind: the tallied result
// and whichever control planes were attached to it.
type single struct {
	Result
	warmup   des.Time          // the excluded prefix, defaults filled
	ctrl     *adapt.Controller // nil without a monitor
	expected float64           // the controller's first hit-rate anchor
	store    *ingest.Store     // nil without ingest
	ing      *ingest.Ingester
}

// runSingle is the one single-node body behind Run, RunAdaptive and
// RunLive: one node, one collector, one timeline. Control planes attach
// at the three points the pipeline offers: the engine (a live-cost
// overlay at construction, the HotSwapper a controller re-plans
// through), the terminal tee (a controller observes each completion
// before the pool recycles it) and the timeline itself (mutation
// sources start beside the arrivals). mon attaches the adapt
// controller; ingest the streaming-ingest subsystem, which the
// controller — when both are set — also drives as its compactor.
func runSingle(opts Options, mon *adapt.MonitorConfig, io *IngestOptions) (*single, error) {
	if err := opts.check(fSingleNode |
		when(io != nil, fIngest) |
		when(io != nil && mon != nil, fCompaction) |
		when(io == nil && mon != nil, fAdaptive)); err != nil {
		return nil, err
	}
	d, err := offline(&opts)
	if err != nil {
		return nil, err
	}

	var sim des.Sim
	run := &single{}
	var live retrieval.LiveCost
	var aux []serve.Aux
	if io != nil {
		run.store, run.ing, aux = startIngest(&sim, &opts, io)
		live = run.store
	}
	var observers []serve.Sink
	if mon != nil {
		run.ctrl, run.expected, err = newAdaptController(&sim, &opts, d, *mon, io)
		if err != nil {
			return nil, err
		}
		observers = []serve.Sink{run.ctrl.Observe}
	}
	pool := &workload.Pool{}
	coll := serve.NewCollector()
	coll.Reserve(expectedArrivals(opts.Rate, opts.RateSchedule, opts.Duration))
	n, err := singleSpec(&opts, d, live).build(&sim, coll, observers, pool.Release)
	if err != nil {
		return nil, err
	}
	if run.ctrl != nil {
		hs, ok := n.pipe.Retrieval().Engine.(retrieval.HotSwapper)
		if !ok {
			return nil, fmt.Errorf("rag: engine %s is not hot-swappable", n.pipe.Retrieval().Engine.Name())
		}
		run.ctrl.Bind(hs)
		if run.ing != nil {
			run.ctrl.BindCompactor(run.ing)
		}
	}

	defer installDrift(&sim, &opts)()
	arr := arrivalsFor(opts.W, opts.Rate, opts.RateSchedule, opts.Shape, opts.Seed+7, pool)
	n.pipe.RunAux(arr, opts.Duration, opts.Drain, aux...)

	run.warmup = des.Time(opts.Warmup)
	run.Result, _ = tally(&opts, d, coll.Requests(), []*node{n}, []int{1})
	return run, nil
}
