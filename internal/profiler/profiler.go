// Package profiler implements the offline profiling stage of
// VectorLiteRAG's hybrid index construction (paper §IV-A1, Fig. 7
// left): it replays calibration queries from a training set to collect
// (1) per-cluster access frequencies, (2) CPU search latency across
// batch sizes, and (3) the bare LLM throughput. These three
// measurements feed the hit-rate estimator, the piecewise-linear
// performance model, and the latency-bounded partitioning algorithm.
package profiler

import (
	"fmt"
	"time"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/ivf"
	"vectorliterag/internal/rng"
)

// AccessProfile is the query–cluster access characterization.
type AccessProfile struct {
	W       *dataset.Workload
	Queries []dataset.QueryID // the training sample that was replayed
	Counts  []int64           // per-cluster access counts
	// HotOrder lists clusters hottest-first by access count — the order
	// in which the splitter promotes clusters to the GPU tier.
	HotOrder []int
}

// CalibrationQueries is the size of the calibration sample an offline
// decision profiles and an online rebuild re-profiles.
const CalibrationQueries = 4000

// CollectAccess replays n training queries through coarse quantization
// and tallies cluster accesses. The paper reports that sampling ~0.5 %
// of the query stream suffices to capture the distribution (§IV-B3);
// the same holds here (see tests).
func CollectAccess(w *dataset.Workload, n int, seed uint64) (*AccessProfile, error) {
	if n <= 0 {
		return nil, fmt.Errorf("profiler: need a positive sample size, got %d", n)
	}
	r := rng.New(seed)
	queries := w.SampleMany(r, n)
	counts := w.AccessCounts(queries)
	return &AccessProfile{
		W:        w,
		Queries:  queries,
		Counts:   counts,
		HotOrder: ivf.HotClusters(counts),
	}, nil
}

// HotMask returns the membership mask of the top-k hottest clusters.
func (p *AccessProfile) HotMask(k int) []bool {
	if k < 0 {
		k = 0
	}
	if k > len(p.HotOrder) {
		k = len(p.HotOrder)
	}
	mask := make([]bool, len(p.Counts))
	for _, c := range p.HotOrder[:k] {
		mask[c] = true
	}
	return mask
}

// LatencySample is one profiled (batch size, stage latency) point.
type LatencySample struct {
	Batch  int
	CQ     time.Duration
	LUT    time.Duration
	Search time.Duration // CQ + LUT
}

// ProfileLatency measures CPU search latency at the given batch sizes.
// In the original system this times real Faiss runs; here the
// measurement substrate is the calibrated cost model, queried exactly
// as a wall-clock profiler would.
func ProfileLatency(m costmodel.SearchModel, batches []int) []LatencySample {
	out := make([]LatencySample, 0, len(batches))
	for _, b := range batches {
		cq := m.CQTime(b)
		lut := m.LUTTime(int64(b)*m.QueryScanBytes(), b)
		out = append(out, LatencySample{Batch: b, CQ: cq, LUT: lut, Search: cq + lut})
	}
	return out
}

// DefaultBatches is the profiling sweep used by index construction.
func DefaultBatches() []int { return []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64} }
