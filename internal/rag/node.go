package rag

import (
	"time"

	"vectorliterag/internal/brownout"
	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/des"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/retrieval"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/workload"
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
			return retrieval.NewSharded(cfg, d.Plan, gpus, gm), nil
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

// node is one built replica: its stations, wired front to back —
// submit (the head arrivals enter by: admission, then the scheduler,
// then the engine), the retrieval engine, the LLM cluster — plus the
// pieces the tally reads back after the run (nil where the spec had
// none): among them ids, the IDs it admitted in admission order, which
// index the run's arrival-ordered records.
type node struct {
	submit serve.Sink
	eng    retrieval.Engine
	llm    *llm.Cluster
	ids    []int32
	sched  *serve.FairScheduler
	brown  *brownout.Controller
}

// build instantiates one replica of the spec on sim: fresh GPU states
// with the shard bytes applied, admission (for share > 0, into ids sized
// to share: a plain router's replica; a lone node and the resilient
// router's replicas keep none), the optional scheduler and overload rig,
// retrieval, generation. A completed request is shown to the brownout
// monitor and then to each observer, and finally handed to next, which
// may take ownership of it (the resilient router) and so must come last;
// a rejected one is handed to next alone. A nil next takes nothing.
func (s *nodeSpec) build(sim *des.Sim, share int, observers []serve.Sink, next serve.Sink) (*node, error) {
	n := &node{}
	if share > 0 {
		n.ids = make([]int32, 0, share)
	}
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

	var tail []serve.Sink
	var err error
	if s.classes != nil {
		if n.sched, err = serve.NewFairScheduler(s.classes, schedulerInflight); err != nil {
			return nil, err
		}
		if s.overload != nil {
			n.sched.SetAdmission(s.overload.QueueCap, next)
		}
		if s.overload != nil && s.overload.Brownout {
			n.brown, err = brownout.NewController(sim, brownout.Config{}, s.budgets, s.bias)
			if err != nil {
				return nil, err
			}
			n.sched.SetOnDispatch(n.brown.Stamp)
			tail = append(tail, n.brown.Observe)
		}
	}
	tail = append(tail, observers...)
	if next != nil {
		tail = append(tail, next)
	}

	// Back to front: generation first, so the engine's Forward hook
	// points at a live cluster.
	if n.llm, err = llm.NewCluster(sim, s.node, s.model, llmStates, llm.DefaultEngineConfig()); err != nil {
		return nil, err
	}
	cfg := s.cfg
	cfg.Sim, cfg.Forward = sim, n.llm.Submit
	if n.eng, err = s.engine(cfg, idxStates); err != nil {
		return nil, err
	}
	n.submit = n.eng.Submit
	var firstToken serve.Sink
	if n.sched != nil {
		if _, err := serve.Scheduled(n.sched)(n.eng.Submit); err != nil {
			return nil, err
		}
		n.submit = n.sched.Submit
		// The scheduler meters the TTFT-relevant section — retrieval
		// queue, search, LLM wait, prefill — releasing the slot at first
		// token rather than at completion: decode proceeds concurrently
		// for many requests inside the LLM and must not hold admission
		// slots, while anything queued beyond the bound would sit in
		// downstream FIFO queues where tier priority cannot act.
		firstToken = n.sched.Release
	}
	if share > 0 {
		head := n.submit
		n.submit = func(req *workload.Request) {
			n.ids = append(n.ids, int32(req.ID))
			head(req)
		}
	}
	n.llm.SetCallbacks(firstToken, serve.Tee(tail...))
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
			AvgBatch:  n.eng.AvgBatch(),
			LLMGPUs:   len(n.llm.Instances) * tp,
		}
		rows = append(rows, rr)
		total += rr.Submitted
		llmGPUs += rr.LLMGPUs
		batchSum += rr.AvgBatch * float64(rr.Submitted)
		if g, ok := n.eng.(retrieval.RecallReporter); ok {
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
// whatever its topology served, summarized against the corpus SLO — into
// its Result.
func tally(opts *Options, d *Decision, s *served) *Result {
	s.summarize(opts.sloTotal(), des.Time(opts.Warmup))
	res := &Result{
		Kind: opts.Kind, Rate: opts.Rate, SLOTotal: opts.sloTotal(),
		Rho: d.Rho, PlanBytes: d.PlanBytes, Mu0: d.Mu0, Partition: d.Partition,
		Summary: s.summary,
	}
	s.tally(opts, res)
	if d.refined() {
		res.SQClusters = d.Plan.Prec.SQClusters
		res.NVMeClusters = d.Plan.Prec.NVMeClusters
	}
	return res
}
