package rag

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/hitrate"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/partition"
	"vectorliterag/internal/perfmodel"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/workload"
)

// Decision is a system's resource choice — coverage, split plan, LLM
// placement — the output of the offline half of each baseline (for
// vLiteRAG, Algorithm 1). It reads no arrival rate, so one value serves
// every rate, arm and replica of a deployment: Decide returns it, Run
// makes it through the same code when Options.Decision is nil, and
// nothing writes it once it is made, so runs may share it concurrently.
type Decision struct {
	// Kind is the system the decision was made for; a run serves it on
	// that Kind (see Options.Decision for the one exception).
	Kind      Kind
	Rho       float64
	Plan      *splitter.Plan // nil for CPU-only
	PlanBytes int64
	Partition *partition.Result // nil for non-partitioned systems
	Mu0       float64
	// MeanHitRate is the estimator's mean hit rate at Rho (zero for the
	// systems that fit no estimator).
	MeanHitRate float64

	// nDed is DED-GPU's count of retrieval GPUs. prof, est and perf are
	// the access profile and the models fitted on it (nil where the Kind
	// reads none, and on a literal); the adapt controller re-runs
	// Algorithm 1 on perf, since drift moves queries, not the machine.
	nDed int
	prof *profiler.AccessProfile
	est  *hitrate.Estimator
	perf *perfmodel.Model
}

// serves reports whether a run of kind k may serve d: the Kind d was
// made for, or HedraRAG's unpruned runtime on a vLiteRAG placement that
// carries no precision refinement (the same coverage executed without
// probe pruning or the dispatcher).
func (d *Decision) serves(k Kind) bool {
	return d.Kind == k || (k == HedraRAG && d.Kind == VLiteRAG && !d.refined())
}

// refined reports whether d's plan carries a (tier, codec) refinement.
func (d *Decision) refined() bool { return d.Plan != nil && d.Plan.Prec != nil }

// collect opens the per-corpus step a single corpus and every tenant of
// a lineup share — profile, fit, plan, precision: the access profile of
// w over the calibration sample drawn from seed. fitModels and place
// are the rest of the step.
func collect(opts *Options, w *dataset.Workload, seed uint64) (*profiler.AccessProfile, error) {
	return profiler.CollectAccess(w, opts.profileQueries(), seed)
}

// profileQueries is the calibration sample's size: ProfileQueries, or
// profiler.CalibrationQueries when zero.
func (opts *Options) profileQueries() int {
	return cmp.Or(opts.ProfileQueries, profiler.CalibrationQueries)
}

// fitModels fits the two inputs of Algorithm 1 and the joint allocator
// on an access profile: the hit-rate estimator and the CPU
// search-latency model of the profiled corpus on cpu.
func fitModels(prof *profiler.AccessProfile, cpu hw.CPU) (*hitrate.Estimator, *perfmodel.Model, error) {
	est, err := hitrate.NewEstimator(prof)
	if err != nil {
		return nil, nil, err
	}
	perf, err := perfmodel.Fit(profiler.ProfileLatency(costmodel.NewSearchModel(cpu, prof.W.Spec), profiler.DefaultBatches()))
	return est, perf, err
}

// place closes the per-corpus step: the split plan at coverage rho over
// the GPUs that serve the index and, when refine is non-nil, the (tier,
// codec) refinement refine materializes on it — Algorithm 1's greedy
// pick, or the SQ8 set a lineup's joint allocator bought. Either way it
// ends in partition.MaterializePrecision, whose extra bytes fold into
// the plan's shard accounting, so the KV pool downstream pays for them.
func (d *Decision) place(opts *Options, rho float64, refine func(partition.PrecisionInputs) (*splitter.Precision, error)) (err error) {
	shards := opts.Node.NumGPUs
	if d.nDed > 0 {
		shards = d.nDed
	}
	d.Rho = rho
	if d.Plan, err = splitter.Build(d.prof, rho, shards); err != nil {
		return err
	}
	if refine != nil {
		prec, err := refine(partition.PrecisionInputs{
			Prof: d.prof, Plan: d.Plan,
			SQRatio:       splitter.SQRatio(d.prof.W.Spec),
			NVMeColdShare: opts.Precision.NVMeColdShare,
		})
		if err != nil {
			return err
		}
		d.Plan.AttachPrecision(prec)
	}
	d.PlanBytes = d.Plan.TotalBytes()
	if d.est != nil {
		d.MeanHitRate = d.est.MeanHitRate(rho)
	}
	return nil
}

// Decide runs the offline half of Run by itself — profile → estimate →
// model → partition → split, Algorithm 1 for vLiteRAG — on the options
// the decision reads (Node, Model, W, Kind, Shape, SLOSearch, Epsilon,
// ProfileQueries, Precision, Seed), through the validation and code
// every Run without a Decision takes: it needs no arrival rate, and a
// run served from its value is the run that decided for itself.
func Decide(opts Options) (*Decision, error) {
	opts.Tenants = nil // a lineup is jointly allocated; Decide reads W alone
	if err := opts.validateDecision(); err != nil {
		return nil, err
	}
	return decide(&opts)
}

// decide makes a single corpus's per-kind resource decision. opts must
// be validated, with its Shape and SLOSearch filled.
func decide(opts *Options) (*Decision, error) {
	d := &Decision{Kind: opts.Kind}
	if d.Kind == CPUOnly {
		return d, nil // reads no access profile
	}
	if d.Kind == DedGPU {
		perGPU := opts.Node.GPU.UsableMem()
		d.nDed = max(int((opts.W.TotalIndexBytes()+perGPU-1)/perGPU), 1)
		if d.nDed >= opts.Node.NumGPUs {
			return nil, fmt.Errorf("rag: index needs %d dedicated GPUs, node has %d", d.nDed, opts.Node.NumGPUs)
		}
		if opts.Node.NumGPUs-d.nDed < opts.Model.TP {
			return nil, fmt.Errorf("rag: DED-GPU leaves %d GPUs, %s needs TP=%d", opts.Node.NumGPUs-d.nDed, opts.Model, opts.Model.TP)
		}
	}
	var err error
	if d.prof, err = collect(opts, opts.W, opts.Seed+1); err != nil {
		return nil, err
	}
	if d.Kind == AllGPU || d.Kind == DedGPU { // the whole index on GPUs
		if err := d.place(opts, 1, nil); err != nil {
			return nil, err
		}
		return d, nil
	}
	// The partitioned kinds: fit the models, measure the bare LLM
	// throughput, pick the coverage — Algorithm 1 for vLiteRAG (with the
	// precision refinement when asked), the balancing rule for HedraRAG —
	// and place the plan there.
	if d.est, d.perf, err = fitModels(d.prof, opts.Node.CPU); err != nil {
		return nil, err
	}
	if d.Mu0, err = BareCapacity(opts.Node, opts.Model, opts.Shape); err != nil {
		return nil, err
	}
	memKV := opts.Model.NodeKVBytes(opts.Node)
	var part partition.Result
	var refine func(partition.PrecisionInputs) (*splitter.Precision, error)
	if d.Kind == VLiteRAG {
		part, err = partition.LatencyBounded(partition.Inputs{
			SLOSearch: opts.SLOSearch, Epsilon: opts.Epsilon,
			Perf: d.perf, Est: d.est, MemKV: memKV, Mu0: d.Mu0,
			IndexBytesAt: splitter.IndexBytesAt(d.prof),
		})
		if opts.Precision != nil {
			// The upgrades spend a fraction of the HBM the placement
			// left between the plan and the KV bound.
			refine = func(in partition.PrecisionInputs) (p *splitter.Precision, err error) {
				if in.RecallDeltas, err = profiler.SQRecallDeltas(d.prof); err != nil {
					return nil, err
				}
				in.SQBudgetBytes = int64(opts.Precision.SQBudgetFrac * float64(max(memKV-in.Plan.TotalBytes(), 0)))
				return partition.AssignPrecision(in)
			}
		}
	} else {
		part, err = partition.Hedra(partition.HedraInputs{
			Perf: d.perf, Est: d.est, MemKV: memKV, Mu0: d.Mu0,
			IndexBytesAt: splitter.IndexBytesAt(d.prof),
		})
	}
	if err != nil {
		return nil, err
	}
	d.Partition = &part
	if err := d.place(opts, part.Rho, refine); err != nil {
		return nil, err
	}
	return d, nil
}

// arrivalsFor returns one corpus's pipeline source, drawing requests
// from alloc (a run's arena, or the resilient router's pool): the
// constant-rate Poisson stream, or the inhomogeneous (thinned) stream
// when a rate schedule is set.
func arrivalsFor(w *dataset.Workload, rate float64, sched workload.Schedule, shape workload.Shape, seed uint64, alloc func() *workload.Request) *serve.Arrivals {
	var arr *serve.Arrivals
	if sched != nil {
		arr = serve.NewScheduledArrivals(w, sched, shape, seed)
	} else {
		arr = serve.NewArrivals(w, rate, shape, seed)
	}
	arr.SetAlloc(alloc)
	return arr
}

// expectedArrivals is the request count the stream arrivalsFor builds
// will almost never exceed over an arrival window: the Poisson mean
// plus four standard deviations. A run's arena and its collectors are
// sized to it before the run; falling short only costs another arena
// chunk, or a regrown ID list.
func expectedArrivals(rate float64, sched workload.Schedule, window time.Duration) int {
	mean := rate * window.Seconds()
	if sched != nil {
		mean = workload.MeanArrivals(sched, window)
	}
	return int(mean+4*math.Sqrt(mean)) + 16
}

// installDrift schedules the drift trace's popularity rotations on the
// virtual timeline and returns a restore hook that resets the workload
// to its pre-run rotation, so one run's drift cannot leak into the
// next (static and adaptive arms replay the identical trace).
func installDrift(sim *des.Sim, opts *Options) (restore func()) {
	initial := opts.W.PopularityRotation()
	for _, ev := range opts.Drift {
		ev := ev
		sim.At(des.Time(ev.At), func() { opts.W.ApplyDrift(ev) })
	}
	return func() { opts.W.SetPopularityRotation(initial) }
}
