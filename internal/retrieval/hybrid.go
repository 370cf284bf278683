package retrieval

import (
	"fmt"
	"slices"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/workload"
)

// TenantSlot is one tenant's runtime state inside the engine: its
// corpus, its split plan (the slice of GPU memory the joint allocator
// granted it), and the CPU cost model fitted to its corpus geometry.
type TenantSlot struct {
	W        *dataset.Workload
	Plan     *splitter.Plan
	CPUModel costmodel.SearchModel
	// Live, when set, overlays this tenant's streaming-ingest scan costs
	// on W's frozen tables; nil means the tenant's corpus is frozen.
	// Per-slot because each tenant mutates (or doesn't) independently.
	Live LiveCost
	// Priority orders the shared CPU cold scan within a batch (lower
	// scans first): the CPU serializes miss work, and the §IV-B2
	// callback mechanism completes each query at its prefix, so putting
	// a gold query's misses ahead of a bronze burst's is the engine-
	// level half of tier-aware preemption ordering. Ties keep batch
	// (arrival) order.
	Priority int
	// Prices, when set, is Plan's price table over W (NewPriceTable),
	// which every engine serving the plan may share; an engine builds its
	// own when it is nil or names another plan, and keeps none while Live
	// is set.
	Prices *PriceTable
	// blockScale converts one physical probed cluster into its logical
	// thread-block count (NProbe/PhysNProbe — the two-scale probe
	// normalization, see dataset.Workload), per tenant because the probe
	// geometry is a corpus property. Zero on an unpruned engine, whose
	// blocks do not depend on residency.
	blockScale int
}

// slot is the single tenant a Config describes.
func (c *Config) slot(plan *splitter.Plan) TenantSlot {
	return TenantSlot{W: c.W, Plan: plan, CPUModel: c.CPUModel, Live: c.Live, Prices: c.Prices}
}

// usePrices makes the slot's price table its plan's, building one on a
// frozen corpus unless the slot already holds it.
func (s *TenantSlot) usePrices() {
	switch {
	case s.Live != nil:
		s.Prices = nil
	case !s.Prices.serves(s.W, s.Plan):
		s.Prices = NewPriceTable(s.W, s.Plan)
	}
}

// delta returns cluster c's live scan-byte delta through the tenant's
// overlay, zero on a frozen corpus.
func (s *TenantSlot) delta(c int) float64 {
	if s.Live == nil {
		return 0
	}
	return s.Live.Delta(c)
}

// cost prices a routed cluster list from its ClusterBytes sum and its
// live delta sum, each accumulated in probe order.
func (s *TenantSlot) cost(b, d float64) int64 { return s.W.ScanCost(b) + int64(d) }

// scanBytes prices a scan over clusters through the tenant's live
// overlay when one is installed.
func (s *TenantSlot) scanBytes(clusters []int) int64 {
	var b, d float64
	for _, c := range clusters {
		b += float64(s.W.ClusterBytes(c))
		d += s.delta(c)
	}
	return s.cost(b, d)
}

// scanBytesFull is scanBytes over the query's full probe set.
func (s *TenantSlot) scanBytesFull(q dataset.QueryID) int64 {
	if s.Live != nil {
		return s.Live.ScanBytesAll(q)
	}
	return s.W.ScanBytesAll(q)
}

// Hybrid is VectorLiteRAG's distributed retrieval pipeline (§IV-B) over
// N ≥ 1 tenants sharing one node, and — configured by NewSharded — the
// GPU baselines' runtime.
//
// Per batch: coarse quantization runs on the CPU; each query routes
// through its own tenant's mapping tables into per-GPU resident sets
// (pruned — only blocks for resident clusters launch) and a CPU
// remainder; one shard kernel per GPU scans every tenant's resident
// clusters there while the CPU scans the cold misses; the dynamic
// dispatcher promotes a query the moment its own clusters are fully
// scanned instead of waiting for the batch. A single CPU forms the
// batches from the (scheduler-metered) shared queue, so one tenant's
// burst inflates every tenant's batch — exactly the interference the
// FairScheduler's admission metering bounds. CPU stages serialize, so
// the batch pays the sum of per-tenant sub-batch costs, each priced
// with the owning tenant's model.
type Hybrid struct {
	batcher
	slots    []TenantSlot
	gpus     []*gpu.State // gpus[g] hosts shard g of every slot's plan
	gpuModel costmodel.GPUScanModel
	// Dispatcher toggles early query promotion (the Fig. 14 ablation).
	Dispatcher bool
	// unpruned prices every shard at the full nprobe per query, resident
	// or not: the IndexIVFShards semantics of the GPU baselines (§IV-B1).
	unpruned bool
	// refreshing[g] marks GPU g's shard as mid-reload: its clusters are
	// temporarily served by the CPU path (§IV-B3 service continuity).
	refreshing []bool
	// Per-batch work areas, reused across batches: every value is
	// rewritten before use and consumed before runBatch returns (the
	// completion closures capture only scalars), so reuse cannot leak
	// state between batches.
	work         kernelWork
	cpuWork      []int64
	cpuDone      []des.Time
	perTenant    []int   // batch members per tenant
	missByTenant []int64 // CPU miss bytes per tenant
	scanOrder    []int   // batch indices in CPU scan order
	// tiers sums one walked query's routed clusters: tiers[0] the CPU's,
	// tiers[g+1] GPU g's; walk zeroes each entry once it is read.
	tiers []tierSum
	// recallSum/recallN accumulate the served recall gain of SQ-upgraded
	// clusters (work-weighted per query, see RecallGain).
	recallSum float64
	recallN   int
}

// NewHybrid wires the single-tenant vLiteRAG engine over cfg's corpus.
// The i-th shard of the plan must reside on gpus[i].
func NewHybrid(cfg Config, plan *splitter.Plan, gpus []*gpu.State, gm costmodel.GPUScanModel) *Hybrid {
	return newHybrid(cfg, []TenantSlot{cfg.slot(plan)}, gpus, gm, false)
}

// NewSharded wires a GPU baseline: ALL-GPU (the whole index over every
// GPU, which also serve the LLM), DED-GPU (the whole index over
// dedicated retrieval GPUs) or HedraRAG (a partial hot-cluster cache
// chosen by throughput balancing, misses on the CPU). All run
// IndexIVFShards semantics: no probe pruning, no dispatcher.
func NewSharded(cfg Config, plan *splitter.Plan, gpus []*gpu.State, gm costmodel.GPUScanModel) *Hybrid {
	return newHybrid(cfg, []TenantSlot{cfg.slot(plan)}, gpus, gm, true)
}

// NewMultiTenant wires the engine over N tenants. Every slot's plan
// must have one shard per GPU in gpus; slot order defines tenant IDs (a
// request's Tenant field indexes slots).
func NewMultiTenant(cfg Config, slots []TenantSlot, gpus []*gpu.State, gm costmodel.GPUScanModel) (*Hybrid, error) {
	if len(slots) == 0 {
		return nil, fmt.Errorf("retrieval: multi-tenant engine needs at least one tenant slot")
	}
	for i := range slots {
		if slots[i].W == nil || slots[i].Plan == nil {
			return nil, fmt.Errorf("retrieval: tenant slot %d missing workload or plan", i)
		}
		if slots[i].Plan.NumShards != len(gpus) {
			return nil, fmt.Errorf("retrieval: tenant slot %d has %d shards for %d GPUs",
				i, slots[i].Plan.NumShards, len(gpus))
		}
	}
	return newHybrid(cfg, slots, gpus, gm, false), nil
}

func newHybrid(cfg Config, slots []TenantSlot, gpus []*gpu.State, gm costmodel.GPUScanModel, unpruned bool) *Hybrid {
	e := &Hybrid{
		batcher:    batcher{cfg: cfg},
		slots:      append([]TenantSlot(nil), slots...),
		gpus:       gpus,
		gpuModel:   gm,
		Dispatcher: !unpruned,
		unpruned:   unpruned,
		refreshing: make([]bool, len(gpus)),
		tiers:      make([]tierSum, len(gpus)+1),
	}
	for i := range e.slots {
		s := &e.slots[i]
		if !unpruned {
			s.blockScale = s.W.Spec.NProbe / s.W.Gen.PhysNProbe
		}
		s.usePrices()
	}
	e.init(e.runBatch)
	return e
}

// Plan returns the currently serving split plan of tenant 0.
func (e *Hybrid) Plan() *splitter.Plan { return e.slots[0].Plan }

// SetPlan atomically switches tenant 0 to a freshly built plan (the
// final step of an adaptive index update) and resets the refresh flags.
// KV pools are sized once, when the LLM instances are built from the
// GPU states' initial shard bytes, and a swap leaves both alone: it
// assumes the new plan fits the same memory envelope, which Algorithm 1
// guarantees by construction (it partitions against the same MemKV
// bound).
func (e *Hybrid) SetPlan(plan *splitter.Plan) {
	e.slots[0].Plan = plan
	e.slots[0].usePrices()
	clear(e.refreshing)
}

// SetShardRefreshing marks shard g as being reloaded; while set, its
// clusters are served from the CPU path so service never pauses.
func (e *Hybrid) SetShardRefreshing(g int, on bool) {
	if g >= 0 && g < len(e.refreshing) {
		e.refreshing[g] = on
	}
}

// ShardRefreshing reports whether shard g is mid-reload.
func (e *Hybrid) ShardRefreshing(g int) bool {
	return g >= 0 && g < len(e.refreshing) && e.refreshing[g]
}

// RecallGain implements RecallReporter: the mean per-query modeled
// recall gain from SQ8-upgraded clusters, zero when no tenant's plan
// carries a precision refinement.
func (e *Hybrid) RecallGain() float64 {
	if e.recallN == 0 {
		return 0
	}
	return e.recallSum / float64(e.recallN)
}

// slot resolves a request's tenant, clamping strays to tenant 0 the
// same way the FairScheduler does.
func (e *Hybrid) slot(req *workload.Request) int {
	if req.Tenant < 0 || req.Tenant >= len(e.slots) {
		return 0
	}
	return req.Tenant
}

func (e *Hybrid) runBatch(batch []*workload.Request) {
	sim := e.cfg.Sim
	b := len(batch)

	// Coarse quantization serializes on the CPU: each tenant's sub-batch
	// is priced with its own model and the batch pays the sum.
	perTenant := resize(&e.perTenant, len(e.slots))
	for _, req := range batch {
		perTenant[e.slot(req)]++
	}
	var cq des.Time
	for t, n := range perTenant {
		if n > 0 {
			cq += des.Time(e.slots[t].CPUModel.CQTime(n))
		}
	}
	tCQ := sim.Now() + e.slowAt(cq)

	anyPrec := false
	for i := range e.slots {
		anyPrec = anyPrec || e.slots[i].Plan.Prec != nil
	}
	e.price(batch, anyPrec)
	k := &e.work
	shardBytes, shardBlocks, sqBytes, sqBlocks := k.bytes, k.blocks, k.sqBytes, k.sqBlocks
	cpuWork, missByTenant := e.cpuWork, e.missByTenant

	// GPU shard kernels start once CQ delivers the cluster lists; one
	// kernel per GPU covers every tenant's resident clusters there, with
	// a second SQ8 streaming kernel when upgraded clusters landed on it.
	gpuReady := tCQ
	for g := range shardBytes {
		var t des.Time
		if shardBytes[g] != 0 || shardBlocks[g] != 0 {
			t += des.Time(e.gpuModel.ShardScanTime(shardBytes[g], shardBlocks[g]))
		}
		if anyPrec && (sqBytes[g] != 0 || sqBlocks[g] != 0) {
			t += des.Time(e.gpuModel.ShardScanTimeSQ(sqBytes[g], sqBlocks[g]))
		}
		if t == 0 {
			continue
		}
		end := tCQ + e.slowAt(t)
		e.gpus[g].MarkRetrievalBusy(end)
		if end > gpuReady {
			gpuReady = end
		}
	}

	// CPU cold scan: per-tenant miss work priced with the owning tenant's
	// model, summed (the CPU serializes). SSD-resident cold clusters are
	// fetched into DRAM before the fast-scan kernel reaches them; the
	// fetch extends the batch total.
	var missTotal int64
	var cpuTotal des.Time
	for t, miss := range missByTenant {
		if miss > 0 {
			cpuTotal += des.Time(e.slots[t].CPUModel.LUTTime(miss, perTenant[t]))
			missTotal += miss
		}
	}
	cpuTotal = e.slowAt(cpuTotal)
	if anyPrec && k.nvmeClusters > 0 {
		cpuTotal += e.slowAt(des.Time(costmodel.NVMeScanTime(e.cfg.NVMe, k.nvmeBytes, k.nvmeClusters)))
	}
	// Clusters are processed grouped by query, in tenant-priority order
	// and batch order within a tier, so query i's CPU portion completes at
	// the byte-proportional prefix of the miss work scanned before it
	// (§IV-B2 callback mechanism). Insertion sort: stable, allocation-
	// free, and batches are at most MaxBatch long.
	scanOrder := resize(&e.scanOrder, b)
	for i := range scanOrder {
		scanOrder[i] = i
	}
	for i := 1; i < len(scanOrder); i++ {
		v := scanOrder[i]
		p := e.slots[e.slot(batch[v])].Priority
		j := i - 1
		for j >= 0 && e.slots[e.slot(batch[scanOrder[j]])].Priority > p {
			scanOrder[j+1] = scanOrder[j]
			j--
		}
		scanOrder[j+1] = v
	}
	cpuDone := resize(&e.cpuDone, b)
	var prefix int64
	for _, i := range scanOrder {
		prefix += cpuWork[i]
		if missTotal > 0 {
			cpuDone[i] = tCQ + des.Time(float64(cpuTotal)*float64(prefix)/float64(missTotal))
		} else {
			cpuDone[i] = tCQ
		}
	}
	batchEnd := tCQ + cpuTotal
	if gpuReady > batchEnd {
		batchEnd = gpuReady
	}

	if e.Dispatcher {
		// Promote each query when its own search completes: GPU flags
		// must all be set (shard kernels are batch-granular) and its CPU
		// clusters scanned.
		e.dispatchCoalesced(batch, cpuDone, gpuReady)
	} else {
		sim.AtArg(batchEnd+des.Time(mergeCost), e.forwardGroup, e.takeGroup(batch))
	}
	// The pipeline accepts the next batch when both tiers are free.
	sim.At(batchEnd, e.doneFn)
}

// price prices every query of the batch and adds them up in batch
// order. Shard g of every plan lives on GPU g, so per-GPU work
// accumulates across tenants. It fills the per-GPU kernel and NVMe work
// (e.work; its SQ8 half when anyPrec), each query's CPU miss work and
// served hit rate, the per-tenant miss totals and the served recall
// gain. A query on a frozen corpus adds its template's row of the
// plan's price table when no shard is mid-reload and the request
// neither sheds probes (Degrade) nor forces PQ; any other query walks
// its probe list. Both give the same work, bit for bit.
func (e *Hybrid) price(batch []*workload.Request, anyPrec bool) {
	k := &e.work
	k.reset(len(e.gpus), anyPrec)
	cpuWork := resize(&e.cpuWork, len(batch))
	missByTenant := resize(&e.missByTenant, len(e.slots))
	refreshing := slices.Contains(e.refreshing, true)
	for i, req := range batch {
		t := e.slot(req)
		s := &e.slots[t]
		if e.unpruned {
			for g := range k.blocks {
				k.blocks[g] += s.W.Spec.NProbe
			}
		}
		var hit, share float64
		if s.Prices != nil && !refreshing && req.Degrade <= 0 && !req.ForcePQ {
			cpuWork[i], hit, share = s.Prices.add(req.Query, s.blockScale, k)
		} else {
			var gain float64
			cpuWork[i], gain = walk(s, degradeProbes(s.W.Probes(req.Query), req.Degrade), req.ForcePQ, e.refreshing, e.tiers, k)
			full := s.scanBytesFull(req.Query)
			hit, share = servedHitRate(full, cpuWork[i]), recallShare(gain, full)
		}
		missByTenant[t] += cpuWork[i]
		req.HitRate = hit
		if s.Plan.Prec != nil {
			e.recallSum += share
			e.recallN++
		}
	}
}
