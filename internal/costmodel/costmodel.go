// Package costmodel converts logical search work (bytes of PQ codes
// scanned, clusters probed, batch sizes) into virtual time on the
// modeled hardware. It is the timing half of the two-scale design
// (see ARCHITECTURE.md): the physical index supplies *what* is scanned, this
// package decides *how long* it takes at paper scale. It also prices
// the update path: the stages of one rebuild cycle (Fig. 9) and the
// live-ingest operations.
//
// Structure of the CPU model (paper §IV-A1): IVF search latency is
// dominated by coarse quantization (CQ) and LUT operations. Both are
// piecewise-linear in batch size because a single query can only use a
// bounded number of threads (ThreadsPerQuery); batches first fill the
// machine (flat region), then queue on it (linear region). That is
// exactly the single-to-multi-threaded step behaviour in Fig. 8 (left).
//
// Calibration anchors (each cited at the constant definition):
//   - CPU fast-scan on a ~40 GB / 128M-vector index: ~0.1–0.2 s per
//     small batch (Fig. 4 left, Fig. 8 left).
//   - GPU IVF search ~10x faster than CPU fast scan (Fig. 4 left).
//   - Standard IVF (no fast scan) ~5x slower than fast scan (Fig. 3 left).
//   - LUT build + scan dominate search time (Fig. 3 right).
package costmodel

import (
	"math"
	"time"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/hw"
)

// FastScanSpeedup is how much faster SIMD fast-scan LUT operations are
// than the standard IVF scan loop (Fig. 3 left: IVF-FS completes in
// ~1/5 of standard IVF time at equal configuration).
const FastScanSpeedup = 5.0

// LUTBuildFraction is the share of LUT-stage time spent constructing
// tables (vs scanning them) for fast-scan indexes (Fig. 3 right shows
// the two at the same order of magnitude, build somewhat smaller).
const LUTBuildFraction = 0.35

// SQStreamEfficiency is the fraction of raw HBM bandwidth an SQ8
// streaming scan kernel sustains. Unlike the PQ kernel — whose
// LUT-gather inner loop is bound far below DRAM speed, hence the
// separate calibrated GPU.ScanBWBytes — the SQ8 distance kernel reads
// codes coalesced with no table gathers, the access pattern that
// approaches peak memory bandwidth on modern GPUs; 0.5 leaves room for
// the multiply-accumulate and top-k maintenance.
const SQStreamEfficiency = 0.5

// SQBlockCostFraction discounts the per-thread-block scheduling cost
// for SQ8 scans: the PQ BlockCost includes staging the per-query LUT
// into shared memory for every block, which the SQ8 kernel does not do
// (it only loads the per-dim min/max vectors once per query).
const SQBlockCostFraction = 0.25

// cqThreadsPerQuery bounds intra-query parallelism of coarse
// quantization (graph-traversal-style search parallelizes worse than
// LUT scans).
const cqThreadsPerQuery = 2

// cqUnitSeconds scales CQ work: per-query CQ time at full intra-query
// parallelism is cqUnitSeconds * sqrt(nlist) * dim / cqThreadsPerQuery.
// Anchored to ≈25 ms CQ at batch 1 for ORCAS-1K (nlist=131072,
// dim=1024) on the 64-core Xeon (Fig. 8 left breakdown):
// 1.35e-7 * sqrt(131072) * 1024 / 2 ≈ 25 ms.
const cqUnitSeconds = 1.35e-7

// SearchModel prices CPU-side IVF search for one dataset on one CPU.
type SearchModel struct {
	CPU      hw.CPU
	Spec     dataset.Spec
	FastScan bool // false models the standard IVF scan loop (Fig. 3)
}

// NewSearchModel returns the fast-scan CPU model the system uses by
// default (the paper adopts fast scan for its CPU tier, §II-B).
func NewSearchModel(cpu hw.CPU, spec dataset.Spec) SearchModel {
	return SearchModel{CPU: cpu, Spec: spec, FastScan: true}
}

// effectiveThreads returns the cores usable by a batch of b queries in
// a stage whose per-query parallelism is tpq.
func (m SearchModel) effectiveThreads(b, tpq int) int {
	if b < 1 {
		b = 1
	}
	p := b * tpq
	if p > m.CPU.Cores {
		p = m.CPU.Cores
	}
	return p
}

// CQTime returns coarse quantization latency for a batch of b queries.
func (m SearchModel) CQTime(b int) time.Duration {
	if b < 1 {
		b = 1
	}
	work := cqUnitSeconds * math.Sqrt(float64(m.Spec.NList)) * float64(m.Spec.Dim) // seconds at 1 thread
	p := m.effectiveThreads(b, cqThreadsPerQuery)
	sec := float64(b) * work / float64(p)
	return dur(sec)
}

// LUTTime returns the LUT stage latency (table construction + scan) for
// a batch of b queries that together scan totalBytes of PQ codes on the
// CPU tier.
func (m SearchModel) LUTTime(totalBytes int64, b int) time.Duration {
	if totalBytes <= 0 {
		return 0
	}
	p := m.effectiveThreads(b, m.CPU.ThreadsPerQuery)
	rate := float64(p) * m.CPU.ScanBWPerCore
	if rate > m.CPU.MemBWBytes {
		rate = m.CPU.MemBWBytes
	}
	sec := float64(totalBytes) / rate
	if !m.FastScan {
		sec *= FastScanSpeedup
	}
	return dur(sec)
}

// QueryScanBytes returns the average logical bytes one query scans when
// nothing is cached (IndexBytes * nprobe/nlist).
func (m SearchModel) QueryScanBytes() int64 {
	return int64(float64(m.Spec.IndexBytes()) * m.Spec.ScanShare())
}

// SearchTime returns full CPU-only search latency for a batch of b
// average queries: CQ plus the LUT stage over b average scan loads.
func (m SearchModel) SearchTime(b int) time.Duration {
	return m.CQTime(b) + m.LUTTime(int64(b)*m.QueryScanBytes(), b)
}

// Breakdown splits a batch's search time into the three stages of the
// paper's Fig. 2/3: coarse quantization, LUT construction, LUT scan.
type Breakdown struct {
	CQ, LUTBuild, LUTScan time.Duration
}

// Total returns the sum of the stages.
func (br Breakdown) Total() time.Duration { return br.CQ + br.LUTBuild + br.LUTScan }

// SearchBreakdown prices a batch of b average queries stage by stage.
func (m SearchModel) SearchBreakdown(b int) Breakdown {
	lut := m.LUTTime(int64(b)*m.QueryScanBytes(), b)
	build := time.Duration(float64(lut) * LUTBuildFraction)
	return Breakdown{CQ: m.CQTime(b), LUTBuild: build, LUTScan: lut - build}
}

// GPUScanModel prices IVF scan kernels on one GPU.
type GPUScanModel struct {
	GPU hw.GPU
}

// ShardScanTime returns the time for one shard kernel that scans
// totalBytes of resident PQ codes across `blocks` query-cluster thread
// blocks. Block count matters independently of bytes: each launched
// block costs scheduling bandwidth and shared memory even when its
// cluster is not resident (paper §IV-B1) — which is exactly why the
// router's probe pruning helps.
func (g GPUScanModel) ShardScanTime(totalBytes int64, blocks int) time.Duration {
	if totalBytes <= 0 && blocks <= 0 {
		return 0
	}
	sec := g.GPU.KernelLaunch +
		float64(blocks)*g.GPU.BlockCost +
		float64(totalBytes)/g.GPU.ScanBWBytes
	return dur(sec)
}

// ShardScanTimeSQ prices the SQ8 counterpart of ShardScanTime: the
// same launch and per-block scheduling structure, but blocks are
// cheaper (no LUT staging, see SQBlockCostFraction) and bytes stream
// at SQStreamEfficiency of raw HBM bandwidth instead of the
// gather-bound PQ scan rate. totalBytes is bytes of SQ8 codes, which
// run ~4x the PQ bytes for the same vectors.
func (g GPUScanModel) ShardScanTimeSQ(totalBytes int64, blocks int) time.Duration {
	if totalBytes <= 0 && blocks <= 0 {
		return 0
	}
	sec := g.GPU.KernelLaunch +
		float64(blocks)*g.GPU.BlockCost*SQBlockCostFraction +
		float64(totalBytes)/(SQStreamEfficiency*g.GPU.MemBWBytes)
	return dur(sec)
}

// NVMeScanTime prices fetching cold PQ clusters from the SSD tier so
// the CPU can scan them: each cluster is one sequential read paying
// the page-read latency once (subsequent pages of the same cluster
// stream behind it), and the total bytes — rounded up to page
// granularity per cluster — stream at the drive's sequential rate.
// This is *additive* to the CPU LUT time for those bytes: the codes
// must land in DRAM before the fast-scan kernel can touch them.
func NVMeScanTime(n hw.NVMe, totalBytes int64, clusters int) time.Duration {
	if totalBytes <= 0 || clusters <= 0 || n.ReadBWBytes <= 0 {
		return 0
	}
	pages := (totalBytes + n.PageBytes - 1) / n.PageBytes
	if pages < int64(clusters) {
		pages = int64(clusters) // at least one page read per cluster
	}
	sec := float64(clusters)*n.PageLatency + float64(pages*n.PageBytes)/n.ReadBWBytes
	return dur(sec)
}

// ShardLoadTime returns host-to-device transfer time for loading a
// shard of the given size (Fig. 9 "Loading" stage).
func ShardLoadTime(g hw.GPU, bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return dur(float64(bytes) / g.LoadBWBytes)
}

// SplitTime returns the CPU-side time to materialize shard layouts
// (grouping hot clusters, rewriting mapping tables): a memory-bound
// pass over the shard bytes (Fig. 9 "Splitting" stage).
func SplitTime(c hw.CPU, bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	// Read + write pass at half the machine bandwidth.
	return dur(float64(2*bytes) / (c.MemBWBytes / 2))
}

// ProfilingTime prices the profiling stage of an update cycle (Fig. 9
// "Profiling"): replaying queries through coarse quantization in large
// batches on the host.
func ProfilingTime(c hw.CPU, spec dataset.Spec, queries int) time.Duration {
	const profBatch = 64
	batches := (queries + profBatch - 1) / profBatch
	return time.Duration(batches) * NewSearchModel(c, spec).CQTime(profBatch)
}

// AlgorithmTime prices the latency-bounded partitioning stage (Fig. 9
// "Algorithm"): each bisection step evaluates the hit-rate integral and
// the perf model, dominated by the first-order-statistic quadrature
// (~50 ms wall per step in the original system, which converges in
// under a minute).
func AlgorithmTime(iters int) time.Duration {
	return 2*time.Second + time.Duration(iters)*100*time.Millisecond
}

// InsertTime prices applying one live insert at logical scale: routing
// the vector through coarse quantization (one single-query CQ pass, the
// same centroid scan a query pays) plus the append-buffer write.
func InsertTime(c hw.CPU, spec dataset.Spec) time.Duration {
	return NewSearchModel(c, spec).CQTime(1) + time.Millisecond
}

// DeleteTime prices applying one live delete: an ID lookup plus a
// tombstone bit set, constant host work independent of scale.
func DeleteTime() time.Duration { return time.Millisecond }

// ReencodeTime prices folding pending raw vectors into PQ codes: the
// encoder streams each raw vector against the per-subspace codebooks,
// whose distance computations cost several passes' worth of memory
// traffic over the raw bytes rather than one. logicalVectors is the
// pending count at paper scale.
func ReencodeTime(c hw.CPU, spec dataset.Spec, logicalVectors int64) time.Duration {
	const base = 5 * time.Millisecond // scheduling + list splice
	if logicalVectors <= 0 {
		return base
	}
	const encodePasses = 8
	raw := logicalVectors * int64(spec.Dim) * 4
	return base + SplitTime(c, raw*encodePasses)
}

// CompactionTime prices one cheap-compaction cycle: re-encode the
// pending buffers plus an incremental rewrite that drops purged
// tombstoned codes from the affected lists, the per-cluster maintenance
// action that substitutes for a full re-partition while skew stays low.
func CompactionTime(c hw.CPU, spec dataset.Spec, pendingLogical, purgedLogical int64) time.Duration {
	return ReencodeTime(c, spec, pendingLogical) + SplitTime(c, purgedLogical*int64(spec.CodeBytes))
}

func dur(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}
