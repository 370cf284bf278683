package retrieval

import (
	"fmt"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/workload"
)

// TenantSlot is one tenant's runtime state inside the shared
// multi-tenant engine: its corpus, its split plan (the slice of GPU
// memory the joint allocator granted it), and the CPU cost model fitted
// to its corpus geometry.
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
	// blockScale converts one physical probed cluster into its logical
	// thread-block count (NProbe/PhysNProbe), per tenant because the
	// probe geometry is a corpus property.
	blockScale int
}

// scanBytes prices a scan over clusters through the tenant's live
// overlay when one is installed.
func (s *TenantSlot) scanBytes(q dataset.QueryID, clusters []int) int64 {
	if s.Live != nil {
		return s.Live.ScanBytes(q, clusters)
	}
	return s.W.ScanBytes(q, clusters)
}

// scanBytesFull is scanBytes over the query's full probe set.
func (s *TenantSlot) scanBytesFull(q dataset.QueryID) int64 {
	if s.Live != nil {
		return s.Live.ScanBytesAll(q)
	}
	return s.W.ScanBytesAll(q)
}

// MultiTenant is the hybrid engine generalized to N tenants sharing
// one node: a single CPU forms dynamic batches from the (scheduler-
// metered) shared queue, so a batch may mix tenants; each query routes
// through its own tenant's mapping tables, its GPU-resident clusters
// scan on the shard kernels of the GPU hosting them (one kernel per
// GPU, over the combined per-tenant work), and the cold remainder joins
// the shared CPU scan. Because the CPU and GPUs are one physical
// resource, one tenant's burst inflates every tenant's batch — exactly
// the interference the FairScheduler's admission metering bounds.
//
// Per-tenant service times price each stage with the owning tenant's
// cost model: coarse quantization and the cold scan serialize on the
// CPU, so the batch pays the sum of per-tenant sub-batch costs.
type MultiTenant struct {
	batcher
	slots    []TenantSlot
	gpus     []*gpu.State
	gpuModel costmodel.GPUScanModel
	// Dispatcher toggles early query promotion, as on the single-tenant
	// hybrid engine.
	Dispatcher bool

	// Per-batch work areas, reused across batches (see Hybrid).
	shardBytes   []int64
	shardBlocks  []int
	cpuWork      []int64
	cpuDone      []des.Time
	perTenant    []int   // batch members per tenant
	missByTenant []int64 // CPU miss bytes per tenant
	scanOrder    []int   // batch indices in CPU scan order
	route        splitter.RouteScratch
	// sqBytes/sqBlocks are the per-GPU SQ8 kernel work areas, used only
	// when at least one tenant's plan carries a precision refinement.
	sqBytes  []int64
	sqBlocks []int
	// recallSum/recallN accumulate the served recall gain of SQ-upgraded
	// clusters across all tenants (see Hybrid.RecallGain).
	recallSum float64
	recallN   int
}

// NewMultiTenant wires the shared engine. Every slot's plan must have
// one shard per GPU in gpus; slot order defines tenant IDs (a request's
// Tenant field indexes slots).
func NewMultiTenant(cfg Config, slots []TenantSlot, gpus []*gpu.State, gm costmodel.GPUScanModel) (*MultiTenant, error) {
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
		slots[i].blockScale = slots[i].W.Spec.NProbe / slots[i].W.Gen.PhysNProbe
	}
	e := &MultiTenant{
		batcher:    batcher{cfg: cfg},
		slots:      append([]TenantSlot(nil), slots...),
		gpus:       gpus,
		gpuModel:   gm,
		Dispatcher: true,
	}
	e.init(e.runBatch)
	return e, nil
}

// Name implements Engine.
func (e *MultiTenant) Name() string {
	return fmt.Sprintf("multi-tenant(%d)", len(e.slots))
}

// RecallGain implements RecallReporter: the mean per-query modeled
// recall gain from SQ8-upgraded clusters across all tenants, zero when
// no tenant's plan carries a precision refinement.
func (e *MultiTenant) RecallGain() float64 {
	if e.recallN == 0 {
		return 0
	}
	return e.recallSum / float64(e.recallN)
}

// hasPrecision reports whether any tenant's plan carries a precision
// refinement (decides whether runBatch walks the per-cluster path).
func (e *MultiTenant) hasPrecision() bool {
	for i := range e.slots {
		if e.slots[i].Plan.Prec != nil {
			return true
		}
	}
	return false
}

// slot resolves a request's tenant, clamping strays to tenant 0 the
// same way the FairScheduler does.
func (e *MultiTenant) slot(req *workload.Request) int {
	if req.Tenant < 0 || req.Tenant >= len(e.slots) {
		return 0
	}
	return req.Tenant
}

func (e *MultiTenant) runBatch(batch []*workload.Request) {
	sim := e.cfg.Sim
	b := len(batch)

	// Coarse quantization serializes on the shared CPU: each tenant's
	// sub-batch is priced with its own model and the batch pays the sum.
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

	// Route every query through its tenant's mapping tables. Shard g of
	// every tenant's plan lives on GPU g, so per-GPU work accumulates
	// across tenants. When a tenant's plan carries a precision
	// refinement its clusters split by codec (PQ vs SQ8 kernels) exactly
	// as on the single-tenant hybrid engine, and its NVMe-demoted cold
	// clusters bill the shared page-read fetch; tenants without a
	// refinement keep the classic path.
	anyPrec := e.hasPrecision()
	shardBytes := resize(&e.shardBytes, len(e.gpus))
	shardBlocks := resize(&e.shardBlocks, len(e.gpus))
	cpuWork := resize(&e.cpuWork, b)
	missByTenant := resize(&e.missByTenant, len(e.slots))
	var sqBytes []int64
	var sqBlocks []int
	var nvmeBytes int64
	var nvmeClusters int
	if anyPrec {
		sqBytes = resize(&e.sqBytes, len(e.gpus))
		sqBlocks = resize(&e.sqBlocks, len(e.gpus))
	}
	for i, req := range batch {
		s := &e.slots[e.slot(req)]
		prec := s.Plan.Prec
		perShard, cpuClusters := s.Plan.RouteInto(&e.route, degradeProbes(s.W.Probes(req.Query), req.Degrade))
		var gain float64
		for g, resident := range perShard {
			if len(resident) == 0 {
				continue
			}
			if prec == nil {
				shardBytes[g] += s.scanBytes(req.Query, resident)
				shardBlocks[g] += len(resident) * s.blockScale
				continue
			}
			for j, c := range resident {
				bb := s.scanBytes(req.Query, resident[j:j+1])
				// A brownout-stamped ForcePQ request scans SQ8-upgraded
				// clusters through their base PQ codec: cheaper bytes, no
				// recall gain — the ladder's precision-fallback rung.
				if prec.IsSQ(c) && !req.ForcePQ {
					sqBytes[g] += int64(float64(bb) * prec.SQRatio)
					sqBlocks[g] += s.blockScale
					gain += float64(bb) * prec.Delta(c)
				} else {
					shardBytes[g] += bb
					shardBlocks[g] += s.blockScale
				}
			}
		}
		if prec != nil {
			for j, c := range cpuClusters {
				if prec.IsNVMe(c) {
					nvmeBytes += s.scanBytes(req.Query, cpuClusters[j:j+1])
					nvmeClusters++
				}
			}
		}
		cpuWork[i] = s.scanBytes(req.Query, cpuClusters)
		missByTenant[e.slot(req)] += cpuWork[i]
		full := s.scanBytesFull(req.Query)
		req.HitRate = servedHitRate(full, cpuWork[i])
		if prec != nil {
			if full > 0 {
				e.recallSum += gain / float64(full)
			}
			e.recallN++
		}
	}

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

	// CPU cold scan: per-tenant miss work priced with the owning
	// tenant's model, summed (the CPU serializes); query completion
	// follows the byte-proportional prefix in batch order, as on the
	// single-tenant engine.
	var missTotal int64
	var cpuTotal des.Time
	for t, miss := range missByTenant {
		if miss > 0 {
			cpuTotal += des.Time(e.slots[t].CPUModel.LUTTime(miss, perTenant[t]))
			missTotal += miss
		}
	}
	cpuTotal = e.slowAt(cpuTotal)
	if anyPrec && nvmeClusters > 0 {
		// NVMe-demoted cold clusters are fetched into DRAM ahead of the
		// shared fast-scan; the fetch extends the batch total and is
		// attributed byte-proportionally like the scan itself.
		cpuTotal += e.slowAt(des.Time(costmodel.NVMeScanTime(e.cfg.NVMe, nvmeBytes, nvmeClusters)))
	}
	cpuDone := resize(&e.cpuDone, b)
	scanOrder := resize(&e.scanOrder, b)
	for i := range scanOrder {
		scanOrder[i] = i
	}
	// Scan in tenant-priority order, stable within a tier, so a high-
	// tier query's prefix excludes lower-tier miss work queued behind
	// it. Insertion sort: stable (same output as any stable sort),
	// allocation-free, and batches are at most MaxBatch long.
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
		at := batchEnd + des.Time(mergeCost)
		sim.At(at, func() {
			now := sim.Now()
			for _, req := range batch {
				req.SearchDone = now
				e.cfg.Forward(req)
			}
			e.releaseBatch(batch)
		})
	}
	sim.At(batchEnd, e.doneFn)
}
