package rag

import (
	"time"

	"vectorliterag/internal/adapt"
	"vectorliterag/internal/des"
	"vectorliterag/internal/ingest"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/retrieval"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/workload"
)

// Run executes one evaluation point: it validates the options, makes
// the resource decision once unless Options.Decision brings one (per
// Kind for a single corpus — Algorithm 1 for vLiteRAG — or the joint
// allocator for a tenant lineup), composes the serving pipeline
// (admission → retrieval → generation → collector) on every node of the
// topology the options name, with the control planes they attach, and
// drives arrivals through it in virtual time. The topologies differ
// only in the timeline: one node alone; replicas and router on one
// simulator (resilient, or a zero NetDelay); or a fleet (see fleet).
func Run(opts Options) (*Result, error) {
	return run(opts, newFleet)
}

// run is Run on the fleet engine build puts behind a routed run.
func run(opts Options, build fleetBuilder) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.SLOGen == 0 {
		// The deployment's own TTFT at the model's throughput limit, the
		// way the paper derives Table I (memoized per deployment).
		slo, err := GenSLO(opts.Node, opts.Model, opts.Shape)
		if err != nil {
			return nil, err
		}
		opts.SLOGen = slo
	}
	if opts.Tenants != nil {
		return runTenants(&opts, build)
	}
	d, err := opts.Decision, error(nil)
	if d == nil {
		d, err = decide(&opts)
	}
	if err != nil {
		return nil, err
	}
	if opts.Replicas == 0 {
		return runSingle(&opts, d)
	}
	c := opts.corpus(d, nil, nil)
	var s *served
	if opts.NetDelay > 0 && !opts.resilient() {
		s, err = c.fleet(&opts, build)
	} else {
		s, err = c.shared(&opts)
	}
	if err != nil {
		return nil, err
	}
	return tally(&opts, d, s), nil
}

// runSingle serves a single corpus on one node, one arena, one
// timeline. Control planes attach at the three points the pipeline
// offers: the engine (a live-cost overlay at construction, the
// HotSwapper a controller re-plans through), the terminal tee (a
// controller observes each completion) and the timeline itself
// (mutation sources start beside the arrivals).
// Monitor attaches the adapt controller; live Ingest streams the
// streaming-ingest subsystem, which the controller — when both are set
// — also drives as its compactor.
func runSingle(opts *Options, d *Decision) (*Result, error) {
	var sim des.Sim
	var (
		store *ingest.Store
		ing   *ingest.Ingester
		live  retrieval.LiveCost
		aux   []serve.Aux
	)
	io := opts.streams()
	if io != nil {
		store, ing, aux = startIngest(&sim, opts, io)
		live = store
	}
	var ctrl *adapt.Controller
	var expected float64
	var observers []serve.Sink
	if opts.Monitor != nil {
		var err error
		if ctrl, expected, err = newAdaptController(&sim, opts, d, *opts.Monitor, io); err != nil {
			return nil, err
		}
		observers = []serve.Sink{ctrl.Observe}
	}
	s, err := opts.corpus(d, live, aux).node(&sim, opts, observers, func(n *node) {
		if ctrl != nil {
			// The rules admit a controller on vLiteRAG alone, whose hybrid
			// engine hot-swaps.
			ctrl.Bind(n.pipe.Retrieval().Engine.(retrieval.HotSwapper))
			if ing != nil {
				ctrl.BindCompactor(ing)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	res := tally(opts, d, s)
	if ctrl != nil {
		res.Adapt = &AdaptReport{ExpectedHitRate: expected, Rebuilds: ctrl.Rebuilds(), Pending: ctrl.Pending(), Observed: ctrl.Observed()}
	}
	if opts.Ingest != nil {
		res.Live = liveReport(opts, store, ing)
	}
	return res, nil
}

// corpus is what a run serves as every topology sees it: the node spec
// each replica instantiates, the arrival-count hint arenas and
// collectors are sized to, the SLO a replica's own summary is read
// against (zero for a lineup, which has no single SLO), and the feed
// that starts the run's sources on the timeline owning arrivals (a
// node's own, or a fleet's front), drawing their requests from alloc,
// and returns the hook that undoes its drift trace.
type corpus struct {
	spec   *nodeSpec
	expect int
	slo    time.Duration
	feed   func(front *des.Sim, alloc func() *workload.Request, submit serve.Sink) (restore func())
}

// corpus returns the single corpus of a decided run. Its feed schedules,
// in pinned order, the drift trace, any aux sources (live mutation
// streams) and the arrival stream.
func (opts *Options) corpus(d *Decision, live retrieval.LiveCost, aux []serve.Aux) *corpus {
	return &corpus{
		spec:   singleSpec(opts, d, live),
		expect: expectedArrivals(opts.Rate, opts.RateSchedule, opts.Duration),
		slo:    opts.sloTotal(),
		feed: func(front *des.Sim, alloc func() *workload.Request, submit serve.Sink) func() {
			restore := installDrift(front, opts)
			arr := arrivalsFor(opts.W, opts.Rate, opts.RateSchedule, opts.Shape, opts.Seed+7, alloc)
			for _, a := range aux {
				a.Start(front, des.Time(opts.Duration))
			}
			arr.Start(front, des.Time(opts.Duration), submit)
			return restore
		},
	}
}

// served is what a topology leaves behind for the tally: the global
// record set in arrival order (one per admitted request), the built
// nodes and how much traffic each took, each replica's own summary
// where it kept one, the fleet's worker count (zero off a fleet) and a
// resilient run's addendum.
type served struct {
	records    []workload.Request
	nodes      []*node
	submitted  []int
	sums       []metrics.Summary
	workers    int
	resilience *ResilienceReport
}

// node serves the corpus on one node on sim. Every arrival is allocated
// into one arena and served where it lies, so the arena, in arrival
// order, is the run's record set, and the node keeps no collector.
// bind, when non-nil, sees the built node before the first event.
func (c *corpus) node(sim *des.Sim, opts *Options, observers []serve.Sink, bind func(*node)) (*served, error) {
	n, err := c.spec.build(sim, nil, observers, nil)
	if err != nil {
		return nil, err
	}
	if bind != nil {
		bind(n)
	}
	arena := workload.NewArena(c.expect)
	defer c.feed(sim, arena.New, n.pipe.Submit)()
	sim.RunUntil(des.Time(opts.Duration + opts.Drain))
	return &served{records: arena.Records(), nodes: []*node{n}, submitted: []int{1}}, nil
}

// fleet serves the corpus on opts.Replicas replicas on the fleet engine
// build picks, with each replica's own summary where the corpus has one
// SLO.
func (c *corpus) fleet(opts *Options, build fleetBuilder) (*served, error) {
	f, err := build(c.spec, opts.Replicas, opts.Policy, opts.NetDelay, c.expect)
	if err != nil {
		return nil, err
	}
	// Drift rotates popularity on the front timeline, where the only
	// reader (arrival sampling) lives and which finishes before any
	// replica starts, so the trace stays race-free under parallel
	// execution.
	defer c.feed(&f.front, f.arena.New, f.Submit)()
	s := &served{nodes: f.nodes}
	s.submitted, s.sums, s.workers = f.run(des.Time(opts.Duration+opts.Drain), opts.Workers, c.slo, des.Time(opts.Warmup))
	s.records = f.records
	return s, nil
}

// tally folds what a topology left behind into the fields every run
// reports and, on a routed run, the per-replica rows and the execution
// echo.
func (s *served) tally(opts *Options, res *Result) {
	res.Requests, res.Generated = s.records, len(s.records)
	var rows []ReplicaResult
	rows, res.AvgBatch, res.RecallGain, res.LLMGPUs = nodeRows(s.nodes, s.submitted, opts.Model.TP)
	if opts.Replicas > 0 {
		for i := range s.sums {
			rows[i].Summary = s.sums[i]
		}
		res.Policy, res.PerReplica, res.Workers, res.Resilience = opts.Policy, rows, s.workers, s.resilience
		if s.workers > 0 {
			res.NetDelay = opts.NetDelay
		}
	}
	if opts.Overload != nil {
		res.Overload = overloadReport(opts.Overload, s.nodes, max(len(opts.Tenants), 1), opts.Duration+opts.Drain)
	}
}
