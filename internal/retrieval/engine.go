// Package retrieval implements the runtime retrieval engines compared
// in the paper's evaluation (§V, §VI). There are two:
//
//	Hybrid   — VectorLiteRAG's distributed pipeline (§IV-B): CPU coarse
//	           quantization, mapping-table routing with probe pruning,
//	           GPU shard kernels for hot clusters beside the CPU scan of
//	           cold misses, and a dynamic dispatcher that promotes
//	           early-finishing queries. Single-tenant serving is its
//	           N = 1 case (NewHybrid), multi-tenant serving the general
//	           one (NewMultiTenant), and the GPU baselines — ALL-GPU,
//	           DED-GPU and HedraRAG — a configuration of it (NewSharded):
//	           IndexIVFShards semantics, where every shard launches
//	           thread blocks for the full nprobe, resident or not, and
//	           no dispatcher.
//	CPUOnly  — vanilla Faiss-CPU IVF fast scan; the whole batch
//	           completes together.
//
// Both use on-demand dynamic batching (§VI-B): a new batch is formed
// from everything queued the moment the previous search completes, so
// batch size adapts to the arrival rate.
package retrieval

import (
	"time"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/workload"
)

// mergeCost is the fixed result merge/re-rank cost added to every
// query's completion (top-k heap merge across CPU and GPU partials).
const mergeCost = 200 * time.Microsecond

// MaxBatch caps dynamic batch size: the bound the paper's HedraRAG
// comparison also uses (§VI-D).
const MaxBatch = 64

// Engine is a retrieval stage: requests go in, and Forward fires for
// each request when its search results are merged. Engines record each
// request's served work-weighted hit rate on Request.HitRate at routing
// time (zero for the CPU-only engine), which is the observation stream
// the adaptive monitor consumes.
type Engine interface {
	Submit(req *workload.Request)
	Name() string
	// AvgBatch reports the mean batch size formed so far (Fig. 14).
	AvgBatch() float64
}

// HotSwapper is the hot-swap hook of the adaptive index update
// (§IV-B3): an engine whose split plan can be replaced while serving.
// While a shard is marked refreshing its clusters divert to the CPU
// path, and SetPlan atomically installs the freshly built plan once its
// shards have loaded. It acts on tenant 0 of the Hybrid engine; the
// serving layer enables it for single-tenant vLiteRAG only.
type HotSwapper interface {
	Engine
	Plan() *splitter.Plan
	SetPlan(*splitter.Plan)
	SetShardRefreshing(shard int, on bool)
}

// LiveCost prices scan work against a live (mutating) corpus overlay:
// the frozen Workload tables plus per-cluster deltas for raw pending
// appends, encoded appends, and unpurged tombstones (see
// internal/ingest.Store). Delta is cluster c's delta in logical scan
// bytes; an engine sums the deltas of each routed cluster list in probe
// order, beside that list's frozen bytes, and adds the sum truncated to
// whole bytes. ScanBytesAll is the live cost of a query's full probe
// set. A nil LiveCost keeps engines on the frozen Workload path,
// bit-identical to a build without streaming ingest.
type LiveCost interface {
	Delta(c int) float64
	ScanBytesAll(q dataset.QueryID) int64
}

// Config carries what every engine needs.
type Config struct {
	Sim      *des.Sim
	W        *dataset.Workload
	CPUModel costmodel.SearchModel
	Forward  func(*workload.Request)
	// Live, when set, overlays streaming-ingest scan costs on W's frozen
	// tables; nil means the corpus is frozen.
	Live LiveCost
	// NVMe is the node's SSD model, consulted only when a plan carries
	// a precision refinement with NVMe-demoted clusters; the zero value
	// is fine otherwise.
	NVMe hw.NVMe
	// Prices is the single-tenant engines' TenantSlot.Prices: the price
	// table of the plan they are built with, shared by every replica of a
	// run; nil makes each engine build its own.
	Prices *PriceTable
}

// RecallReporter is implemented by engines that serve mixed-precision
// plans: RecallGain reports the mean modeled per-query recall gain
// (recall points) realized by SQ8-upgraded clusters over the requests
// served so far. Engines serving a plan without a precision refinement
// report 0.
type RecallReporter interface {
	RecallGain() float64
}

// batcher implements the shared dynamic-batching queue: subclass
// engines provide run(batch) and call done() when the search pipeline
// can accept the next batch.
//
// Batch slices cycle through a small free list instead of being
// allocated per batch: runBatch implementations snapshot a batch's
// requests into the completion events' recycled groups (takeGroup) and
// return the slice with releaseBatch at once. Engines also pre-bind
// their completion callbacks (doneFn, and the forward-one and
// forward-group hooks) so the per-batch and per-request events schedule
// through des.Sim without closure allocations.
type batcher struct {
	cfg     Config
	queue   []*workload.Request
	busy    bool
	batches int
	total   int
	run     func([]*workload.Request)
	// doneFn / forwardOne / forwardGroup are pre-bound callbacks, for
	// allocation-free scheduling.
	doneFn       func()
	forwardOne   func(any)
	forwardGroup func(any)
	freeGroups   []*fwdGroup
	// freeBatches is the batch-slice free list.
	freeBatches [][]*workload.Request
	// Degraded-bandwidth episode (fault injection): while slowUntil is
	// ahead of the clock, every service interval stretches by
	// slowFactor. Inactive episodes skip the multiply entirely, so
	// fault-free runs stay bit-identical.
	slowFactor float64
	slowUntil  des.Time
}

// SetSlowdown installs a degraded PCIe/HBM bandwidth episode: service
// times stretch by factor until the given virtual instant. A factor
// <= 1 clears it.
func (b *batcher) SetSlowdown(factor float64, until des.Time) {
	b.slowFactor, b.slowUntil = factor, until
}

// slowAt stretches one service interval while a bandwidth episode is
// active; otherwise it returns d untouched.
func (b *batcher) slowAt(d des.Time) des.Time {
	if b.slowFactor > 1 && b.cfg.Sim.Now() < b.slowUntil {
		return des.Time(float64(d) * b.slowFactor)
	}
	return d
}

// Slowdowner is implemented by every engine built on the shared
// batcher; the fault layer uses it to deliver bandwidth episodes
// without knowing the concrete engine.
type Slowdowner interface {
	SetSlowdown(factor float64, until des.Time)
}

// degradeProbes sheds the trailing fraction of a query's probe list —
// the graceful-degradation knob the resilient router stamps on
// requests under capacity loss (reduced nprobe ⇒ less scan work, lower
// recall). At least one probe always survives; a zero fraction returns
// the slice untouched.
func degradeProbes(probes []int, degrade float64) []int {
	if degrade <= 0 || len(probes) == 0 {
		return probes
	}
	keep := int(float64(len(probes))*(1-degrade) + 0.5)
	if keep < 1 {
		keep = 1
	}
	if keep > len(probes) {
		keep = len(probes)
	}
	return probes[:keep]
}

// init finishes construction shared by every engine.
func (b *batcher) init(run func([]*workload.Request)) {
	b.run = run
	b.doneFn = b.done
	b.forwardOne = b.forwardOneReq
	b.forwardGroup = b.forwardGroupReqs
}

// forwardOneReq completes one promoted query (dispatcher path); bound
// once as forwardOne so per-request completion events schedule
// allocation-free.
func (b *batcher) forwardOneReq(a any) {
	req := a.(*workload.Request)
	req.SearchDone = b.cfg.Sim.Now()
	b.cfg.Forward(req)
}

// forwardAll completes the given queries at the current instant, in
// order.
func (b *batcher) forwardAll(reqs []*workload.Request) {
	now := b.cfg.Sim.Now()
	for _, req := range reqs {
		req.SearchDone = now
		b.cfg.Forward(req)
	}
}

// fwdGroup carries the requests of one coalesced completion event;
// the slices recycle through a free list.
type fwdGroup struct {
	reqs []*workload.Request
}

// forwardGroupReqs completes a run of queries whose promotion instants
// coincide (e.g. a GPU-bound batch where the shard kernels dominate
// every query's CPU prefix): one event forwards them in batch order.
// The members' per-query events would have carried consecutive
// sequence numbers — nothing else is scheduled between them — so
// folding them into one event provably preserves the global fire
// order.
func (b *batcher) forwardGroupReqs(a any) {
	g := a.(*fwdGroup)
	b.forwardAll(g.reqs)
	clear(g.reqs)
	g.reqs = g.reqs[:0]
	b.freeGroups = append(b.freeGroups, g)
}

// dispatchCoalesced schedules the dispatcher-mode completion events
// for a batch: query i promotes at max(cpuDone[i], gpuReady)+mergeCost,
// and runs of *consecutive* queries promoting at the same instant share
// one coalesced event (order-preserving, see forwardGroupReqs). The
// batch slice is fully consumed — events hold only requests or group
// snapshots — so it is released before returning.
func (b *batcher) dispatchCoalesced(batch []*workload.Request, cpuDone []des.Time, gpuReady des.Time) {
	sim := b.cfg.Sim
	n := len(batch)
	for i := 0; i < n; {
		at := cpuDone[i]
		if gpuReady > at {
			at = gpuReady
		}
		at += des.Time(mergeCost)
		j := i + 1
		for j < n {
			aj := cpuDone[j]
			if gpuReady > aj {
				aj = gpuReady
			}
			if aj+des.Time(mergeCost) != at {
				break
			}
			j++
		}
		if j == i+1 {
			sim.AtArg(at, b.forwardOne, batch[i])
		} else {
			sim.AtArg(at, b.forwardGroup, b.takeGroup(batch[i:j]))
		}
		i = j
	}
	b.releaseBatch(batch)
}

// takeGroup snapshots a sub-batch into a recycled group descriptor.
func (b *batcher) takeGroup(reqs []*workload.Request) *fwdGroup {
	var g *fwdGroup
	if k := len(b.freeGroups); k > 0 {
		g = b.freeGroups[k-1]
		b.freeGroups[k-1] = nil
		b.freeGroups = b.freeGroups[:k-1]
	} else {
		g = &fwdGroup{}
	}
	g.reqs = append(g.reqs[:0], reqs...)
	return g
}

func (b *batcher) Submit(req *workload.Request) {
	b.queue = append(b.queue, req)
	b.kick()
}

// takeBatch returns a zero-length batch slice with capacity >= n from
// the free list.
func (b *batcher) takeBatch(n int) []*workload.Request {
	if k := len(b.freeBatches); k > 0 {
		s := b.freeBatches[k-1]
		b.freeBatches[k-1] = nil
		b.freeBatches = b.freeBatches[:k-1]
		if cap(s) >= n {
			return s[:0]
		}
	}
	return make([]*workload.Request, 0, n)
}

// releaseBatch returns a batch slice to the free list once every
// request in it has been forwarded. Entries are cleared so the free
// list does not retain requests (pooled ones are recycled).
func (b *batcher) releaseBatch(batch []*workload.Request) {
	clear(batch[:cap(batch)])
	b.freeBatches = append(b.freeBatches, batch[:0])
}

func (b *batcher) kick() {
	if b.busy || len(b.queue) == 0 {
		return
	}
	n := min(len(b.queue), MaxBatch)
	batch := append(b.takeBatch(n), b.queue[:n]...)
	b.queue = append(b.queue[:0], b.queue[n:]...)
	b.busy = true
	b.batches++
	b.total += n
	now := b.cfg.Sim.Now()
	for _, req := range batch {
		req.SearchStart = now
	}
	b.run(batch)
}

// done releases the engine for the next batch.
func (b *batcher) done() {
	b.busy = false
	b.kick()
}

func (b *batcher) AvgBatch() float64 {
	if b.batches == 0 {
		return 0
	}
	return float64(b.total) / float64(b.batches)
}

// resize returns (*buf)[:n] zeroed, growing the backing array only when
// capacity is exceeded — the reuse primitive for per-batch work areas.
func resize[T ~int | ~int64](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

// servedHitRate converts a query's total scan work and its CPU-path
// miss work into the served work-weighted hit rate, clamped to [0,1]
// against the independent truncation of the two byte sums.
func servedHitRate(total, miss int64) float64 {
	if total <= 0 {
		return 0
	}
	return min(max(1-float64(miss)/float64(total), 0), 1)
}

// recallShare converts a query's served recall gain into its share per
// byte of total scan work, zero when the query scans nothing.
func recallShare(gain float64, total int64) float64 {
	if total <= 0 {
		return 0
	}
	return gain / float64(total)
}

// CPUOnly is the Faiss-CPU fast-scan baseline. It forwards the batch and
// frees the pipeline in one event after CQ, LUT and the merge, so unlike
// a zero-coverage Hybrid its busy period includes the merge.
type CPUOnly struct {
	batcher
	slot TenantSlot
	// finish is the batch's one completion event, pre-bound: forward the
	// group, then free the pipeline.
	finish func(any)
}

// NewCPUOnly constructs the CPU-only engine.
func NewCPUOnly(cfg Config) *CPUOnly {
	e := &CPUOnly{batcher: batcher{cfg: cfg}, slot: cfg.slot(nil)}
	e.init(e.runBatch)
	e.finish = func(g any) {
		e.forwardGroupReqs(g)
		e.done()
	}
	return e
}

// Name implements Engine.
func (e *CPUOnly) Name() string { return "CPU-Only" }

func (e *CPUOnly) runBatch(batch []*workload.Request) {
	b := len(batch)
	var total int64
	for _, req := range batch {
		req.HitRate = 0 // nothing is GPU-resident
		total += e.slot.scanBytes(degradeProbes(e.slot.W.Probes(req.Query), req.Degrade))
	}
	sim := e.cfg.Sim
	t := e.slowAt(des.Time(e.cfg.CPUModel.CQTime(b) + e.cfg.CPUModel.LUTTime(total, b)))
	sim.AtArg(sim.Now()+t+des.Time(mergeCost), e.finish, e.takeGroup(batch))
	e.releaseBatch(batch)
}
