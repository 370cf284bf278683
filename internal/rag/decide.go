package rag

import (
	"fmt"
	"math"
	"time"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/hitrate"
	"vectorliterag/internal/partition"
	"vectorliterag/internal/perfmodel"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/workload"
)

// decision is a system's resource choice — coverage, split plan, LLM
// placement — computed once per run and shared by every replica that
// instantiates it. It is the output of the offline half of each
// baseline (for vLiteRAG, Algorithm 1).
type decision struct {
	rho       float64
	plan      *splitter.Plan // nil for CPU-only
	planBytes int64
	partition *partition.Result
	mu0       float64
	nDed      int // DED-GPU: GPUs dedicated to retrieval

	// What the decision was made from. The adapt controller re-runs
	// Algorithm 1 on the same fitted models (drift moves the query
	// distribution, not the machine); est and perf stay nil until a path
	// that needs them calls fit.
	sloTotal time.Duration
	prof     *profiler.AccessProfile
	cpuModel costmodel.SearchModel
	est      *hitrate.Estimator
	perf     *perfmodel.Model
}

// fit fills the decision's models once: the hit-rate estimator over
// the access profile and the CPU search-latency model, the two inputs of
// Algorithm 1 and the joint allocator. The partitioned kinds and every
// tenant fit them while deciding, the prebuilt-plan path only if a
// controller asks.
func (d *decision) fit() (err error) {
	if d.est != nil {
		return nil
	}
	if d.est, err = hitrate.NewEstimator(d.prof); err != nil {
		return err
	}
	d.perf, err = perfmodel.Fit(profiler.ProfileLatency(d.cpuModel, profiler.DefaultBatches()))
	return err
}

// profileSample sizes the calibration sample (default 4000 queries).
func profileSample(n int) int {
	if n <= 0 {
		return 4000
	}
	return n
}

// profileAndDecide profiles the workload and makes the per-kind
// resource decision. opts must carry its Shape and SLOSearch.
func profileAndDecide(opts *Options, sloTotal time.Duration) (*decision, error) {
	d, err := profileCorpus(opts, opts.W, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	d.sloTotal = sloTotal
	if err := d.decide(opts); err != nil {
		return nil, err
	}
	if d.plan != nil {
		d.planBytes = d.plan.TotalBytes()
	}
	return d, nil
}

// profileCorpus opens the per-corpus step a single corpus and every
// tenant of a lineup share — profile, CPU model, fit, plan, precision:
// the access profile over a calibration sample and the CPU search model
// of the corpus geometry. fit and place are the rest of the step.
func profileCorpus(opts *Options, w *dataset.Workload, seed uint64) (*decision, error) {
	prof, err := profiler.CollectAccess(w, profileSample(opts.ProfileQueries), seed)
	if err != nil {
		return nil, err
	}
	return &decision{prof: prof, cpuModel: costmodel.NewSearchModel(opts.Node.CPU, w.Spec)}, nil
}

// place closes the per-corpus step: the split plan at coverage rho over
// the node's GPUs and, when refine is non-nil, the (tier, codec)
// refinement refine materializes on it — Algorithm 1's greedy pick, or
// the SQ8 set a lineup's joint allocator bought. Either way it ends in
// partition.MaterializePrecision, whose extra bytes fold into the plan's
// shard accounting, so the KV pool downstream pays for them.
func (d *decision) place(opts *Options, rho float64, refine func(partition.PrecisionInputs) (*splitter.Precision, error)) (err error) {
	d.rho = rho
	if d.plan, err = splitter.Build(d.prof, rho, opts.Node.NumGPUs); err != nil || refine == nil {
		return err
	}
	prec, err := refine(partition.PrecisionInputs{
		Prof: d.prof, Plan: d.plan,
		SQRatio:       splitter.SQRatio(d.prof.W.Spec),
		NVMeColdShare: opts.Precision.NVMeColdShare,
	})
	if err != nil {
		return err
	}
	d.plan.AttachPrecision(prec)
	return nil
}

// Decision is the outcome of the offline half alone, for callers that
// build a system without serving it.
type Decision struct {
	Rho       float64
	Plan      *splitter.Plan // nil for CPU-only
	PlanBytes int64
	Partition *partition.Result // nil for non-partitioned systems
	Mu0       float64
	// MeanHitRate is the estimator's mean hit rate at Rho (zero for the
	// systems that fit no estimator).
	MeanHitRate float64
}

// Decide runs the offline half of Run by itself — profile → estimate →
// model → partition → split, Algorithm 1 for vLiteRAG — on the options
// the decision reads (Node, Model, W, Kind, Shape, SLOSearch, Epsilon,
// ProfileQueries, Seed, ...). It needs no arrival rate and measures no
// generation SLO, and it is the same code path, profile seed and
// defaults every Run decides on, so its Rho is the Rho a run reports.
func Decide(opts Options) (*Decision, error) {
	if opts.W == nil {
		return nil, fmt.Errorf("rag: nil workload")
	}
	if err := checkDeployment(opts.Node, opts.Model); err != nil {
		return nil, err
	}
	opts.decisionDefaults()
	d, err := profileAndDecide(&opts, 0)
	if err != nil {
		return nil, err
	}
	out := &Decision{Rho: d.rho, Plan: d.plan, PlanBytes: d.planBytes, Partition: d.partition, Mu0: d.mu0}
	if d.est != nil {
		out.MeanHitRate = d.est.MeanHitRate(d.rho)
	}
	return out, nil
}

// decide makes the per-kind resource decision from the access profile.
func (d *decision) decide(opts *Options) (err error) {
	switch opts.Kind {
	case CPUOnly:
		return nil

	case AllGPU:
		return d.place(opts, 1, nil)

	case DedGPU:
		perGPU := opts.Node.GPU.UsableMem()
		nDed := int((opts.W.TotalIndexBytes() + perGPU - 1) / perGPU)
		if nDed < 1 {
			nDed = 1
		}
		if nDed >= opts.Node.NumGPUs {
			return fmt.Errorf("rag: index needs %d dedicated GPUs, node has %d", nDed, opts.Node.NumGPUs)
		}
		if opts.Node.NumGPUs-nDed < opts.Model.TP {
			return fmt.Errorf("rag: DED-GPU leaves %d GPUs, %s needs TP=%d", opts.Node.NumGPUs-nDed, opts.Model, opts.Model.TP)
		}
		d.rho, d.nDed = 1, nDed
		d.plan, err = splitter.Build(d.prof, 1.0, nDed)
		return err

	case VLiteRAG, HedraRAG:
		if opts.Plan != nil && opts.Kind == VLiteRAG {
			// Serve an existing plan as-is ("build once, serve many"), on a
			// node with one GPU per shard.
			if opts.Plan.NumShards != opts.Node.NumGPUs {
				return fmt.Errorf("rag: prebuilt plan has %d shards, node has %d GPUs", opts.Plan.NumShards, opts.Node.NumGPUs)
			}
			d.rho, d.plan = opts.Plan.Coverage, opts.Plan
			return nil
		}
		if err := d.fit(); err != nil {
			return err
		}
		if d.mu0, err = BareCapacity(opts.Node, opts.Model, opts.Shape); err != nil {
			return err
		}
		if opts.Kind == HedraRAG && opts.HedraCoverageOverride > 0 {
			return d.place(opts, opts.HedraCoverageOverride, nil)
		}
		memKV := opts.Model.NodeKVBytes(opts.Node)
		var part partition.Result
		var refine func(partition.PrecisionInputs) (*splitter.Precision, error)
		if opts.Kind == VLiteRAG {
			part, err = partition.LatencyBounded(partition.Inputs{
				SLOSearch: opts.SLOSearch, Epsilon: opts.Epsilon,
				Perf: d.perf, Est: d.est, MemKV: memKV, Mu0: d.mu0,
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
				Perf: d.perf, Est: d.est, MemKV: memKV, Mu0: d.mu0,
				IndexBytesAt: splitter.IndexBytesAt(d.prof),
			})
		}
		if err != nil {
			return err
		}
		d.partition = &part
		return d.place(opts, part.Rho, refine)

	default:
		return fmt.Errorf("rag: unknown kind %q", opts.Kind)
	}
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
