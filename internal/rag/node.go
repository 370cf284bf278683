package rag

import (
	"time"

	"vectorliterag/internal/brownout"
	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/des"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/retrieval"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/splitter"
)

// nodeSpec is everything about a serving node that is the same for
// every replica of a run: the hardware, the index bytes the decision
// put on the GPUs, which retrieval engine scans them, and how admission
// is metered. build instantiates it, once per replica, on whichever
// timeline that replica lives on.
type nodeSpec struct {
	node  hw.Node
	model llm.ModelSpec
	// plans' shard bytes stack on the retrieval GPUs, shrinking the KV
	// pool the LLM instances see. nDed > 0 (DED-GPU) reserves the node's
	// last nDed GPUs for retrieval and leaves the LLM the rest; otherwise
	// both share every GPU.
	plans []*splitter.Plan
	nDed  int
	// cfg is the engine configuration minus the per-replica Sim and
	// Forward; engine builds the run's retrieval engine from it.
	cfg    retrieval.Config
	engine func(cfg retrieval.Config, gpus []*gpu.State) (retrieval.Engine, error)
	// classes, when non-nil, puts a FairScheduler of that lineup between
	// admission and retrieval; overload, when non-nil, bounds its queues
	// and optionally runs the brownout controller over budgets/bias (one
	// entry per class).
	classes  []serve.TenantClass
	overload *OverloadOptions
	budgets  []brownout.StageBudget
	bias     []float64
}

// schedulerInflight bounds requests concurrently inside a FairScheduler's
// metered section (admission to first token). It approximates the
// Little's-law occupancy that sustains node throughput at SLO-scale
// TTFT; anything beyond it would sit in downstream FIFO queues where
// tier priority cannot act.
const schedulerInflight = 32

// singleSpec is the node of a single-corpus run: the decision's plan,
// the engine its Kind names, and — only under overload control — a
// single-class scheduler with the run's own stage SLOs as budgets.
func singleSpec(opts *Options, d *Decision, live retrieval.LiveCost) *nodeSpec {
	s := &nodeSpec{
		node: opts.Node, model: opts.Model, nDed: d.nDed,
		cfg: retrieval.Config{W: opts.W, CPUModel: costmodel.NewSearchModel(opts.Node.CPU, opts.W.Spec), Live: live, NVMe: opts.Node.NVMe},
	}
	if d.Plan != nil {
		s.plans = []*splitter.Plan{d.Plan}
		if live == nil {
			// Priced once per run: every replica's engine reads this one
			// table, and the shared decision stays untouched.
			s.cfg.Prices = retrieval.NewPriceTable(opts.W, d.Plan)
		}
	}
	gm := costmodel.GPUScanModel{GPU: opts.Node.GPU}
	s.engine = func(cfg retrieval.Config, gpus []*gpu.State) (retrieval.Engine, error) {
		switch opts.Kind {
		case CPUOnly:
			return retrieval.NewCPUOnly(cfg), nil
		case AllGPU, DedGPU, HedraRAG:
			return retrieval.NewSharded(cfg, string(opts.Kind), d.Plan, gpus, gm), nil
		}
		h := retrieval.NewHybrid(cfg, d.Plan, gpus, gm)
		h.Dispatcher = !opts.DisableDispatcher
		return h, nil
	}
	if opts.Overload != nil {
		s.classes = []serve.TenantClass{{Weight: 1, Priority: 0}}
		s.overload = opts.Overload
		s.budgets = stageBudgets(opts.Overload, []time.Duration{opts.SLOSearch}, opts.SLOGen)
		s.bias = []float64{1}
	}
	return s
}

// node is one built replica: its pipeline plus the pieces the tally
// reads back after the run (nil where the spec had none).
type node struct {
	pipe  *serve.Pipeline
	coll  *serve.Collector
	sched *serve.FairScheduler
	brown *brownout.Controller
}

// build instantiates one replica of the spec on sim: fresh GPU states
// with the shard bytes applied, admission into coll (an in-place
// collector, or nil where the replica keeps no record of its own: a
// lone node, whose arena is the record, and the resilient router's
// replicas), the optional scheduler and overload rig, retrieval,
// generation. A completed request is counted by coll, shown to the
// brownout monitor and then to each observer, and finally handed to
// next, which may take ownership of it (the resilient router) and so
// must come last; a rejected one is handed to next alone. A nil next
// takes nothing.
func (s *nodeSpec) build(sim *des.Sim, coll *serve.Collector, observers []serve.Sink, next serve.Sink) (*node, error) {
	states := gpu.NewStates(s.node)
	split := len(states) - s.nDed
	idxStates, llmStates := states, states
	if s.nDed > 0 {
		idxStates, llmStates = states[split:], states[:split]
	}
	for _, plan := range s.plans {
		for g := range plan.ShardBytes {
			if g < len(idxStates) {
				idxStates[g].ShardBytes += plan.ShardBytes[g]
			}
		}
	}

	n := &node{coll: coll}
	var builders []serve.Builder
	var tail []serve.Sink
	if coll != nil {
		builders = append(builders, serve.Admit(coll))
		tail = append(tail, coll.Done)
	}
	if s.classes != nil {
		sched, err := serve.NewFairScheduler(s.classes, schedulerInflight)
		if err != nil {
			return nil, err
		}
		n.sched = sched
		builders = append(builders, serve.Scheduled(sched))
		if s.overload != nil {
			sched.SetAdmission(s.overload.QueueCap, next)
		}
		if s.overload != nil && s.overload.Brownout {
			n.brown, err = brownout.NewController(sim, brownout.Config{}, s.budgets, s.bias)
			if err != nil {
				return nil, err
			}
			sched.SetOnDispatch(n.brown.Stamp)
			tail = append(tail, n.brown.Observe)
		}
	}
	tail = append(tail, observers...)
	if next != nil {
		tail = append(tail, next)
	}
	terminal := serve.Tee(tail...)

	cfg := s.cfg
	cfg.Sim = sim
	// Compose builds back to front: generation first, so the engine's
	// Forward hook points at a live cluster.
	builders = append(builders,
		serve.RetrievalStage(func(forward serve.Sink) (retrieval.Engine, error) {
			cfg.Forward = forward
			return s.engine(cfg, idxStates)
		}),
		serve.GenerationStage(func() (*llm.Cluster, error) {
			return llm.NewCluster(sim, s.node, s.model, llmStates, llm.DefaultEngineConfig())
		}))
	pipe, err := serve.Compose(sim, terminal, builders...)
	if err != nil {
		return nil, err
	}
	if n.sched != nil {
		// The scheduler meters the TTFT-relevant section — retrieval
		// queue, search, LLM wait, prefill — releasing the slot at first
		// token rather than at completion: decode proceeds concurrently
		// for many requests inside the LLM and must not hold admission
		// slots, while anything queued beyond the bound would sit in
		// downstream FIFO queues where tier priority cannot act. The
		// completion sink installed by Compose is re-installed unchanged.
		pipe.Generation().Cluster.SetCallbacks(n.sched.Release, terminal)
	}
	n.pipe = pipe
	return n, nil
}

// nodeRows reads back each node's share of a run — the traffic routed to
// it (weights[i]; a lone node weighs 1), its mean batch size, its LLM
// GPUs — and folds the rows and the engines' served recall gain into
// the run-level aggregates: GPUs sum, the means weight each node by its
// traffic, so a lone node reports its own readings exactly.
func nodeRows(nodes []*node, weights []int, tp int) (rows []ReplicaResult, avgBatch, recallGain float64, llmGPUs int) {
	var batchSum, gainSum float64
	total := 0
	for i, n := range nodes {
		rr := ReplicaResult{
			Submitted: weights[i],
			AvgBatch:  n.pipe.Retrieval().AvgBatch(),
			LLMGPUs:   n.pipe.Generation().GPUs(tp),
		}
		rows = append(rows, rr)
		total += rr.Submitted
		llmGPUs += rr.LLMGPUs
		batchSum += rr.AvgBatch * float64(rr.Submitted)
		if g, ok := n.pipe.Retrieval().Engine.(retrieval.RecallReporter); ok {
			gainSum += g.RecallGain() * float64(rr.Submitted)
		}
	}
	if total > 0 {
		avgBatch = batchSum / float64(total)
		recallGain = gainSum / float64(total)
	}
	return rows, avgBatch, recallGain, llmGPUs
}

// tally turns what a single-corpus run left behind — the decision and
// whatever its topology served — into its Result.
func tally(opts *Options, d *Decision, s *served) *Result {
	res := &Result{
		Kind: opts.Kind, Rate: opts.Rate, SLOTotal: opts.sloTotal(),
		Rho: d.Rho, PlanBytes: d.PlanBytes, Mu0: d.Mu0, Partition: d.Partition,
		Summary: metrics.Summarize(s.records, opts.sloTotal(), des.Time(opts.Warmup)),
	}
	s.tally(opts, res)
	if d.refined() {
		res.SQClusters = d.Plan.Prec.SQClusters
		res.NVMeClusters = d.Plan.Prec.NVMeClusters
	}
	return res
}
