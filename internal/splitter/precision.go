package splitter

import "vectorliterag/internal/dataset"

// Precision is the per-cluster (tier, codec) refinement layered on a
// Plan by the joint placement x precision optimization: the hottest
// GPU-resident clusters upgraded from PQ to SQ8 codes (more HBM, a
// faster gather-free scan kernel, and a recall gain), and the coldest
// CPU-resident clusters demoted to the modeled NVMe tier (PQ codes
// fetched at page-read latency before the CPU scan). A nil Precision
// on a Plan preserves the classic all-PQ, two-tier placement bit for
// bit everywhere it is consumed.
type Precision struct {
	// SQ marks clusters stored as SQ8 on their GPU shard; only hot
	// (GPU-resident) clusters are ever marked.
	SQ []bool
	// NVMe marks clusters whose PQ codes live on the SSD tier; only
	// cold (CPU-path) clusters are ever marked.
	NVMe []bool
	// Deltas is the per-cluster modeled recall gain (recall points)
	// realized when an SQ-marked cluster is scanned; the engines
	// aggregate it work-weighted into the served recall gain.
	Deltas []float64
	// SQRatio is SQ8 bytes per PQ byte for this corpus
	// (Spec.Dim / Spec.CodeBytes, ~4x).
	SQRatio float64

	SQClusters   int
	NVMeClusters int
	// SQExtraBytes is the additional HBM the SQ upgrades consume beyond
	// the clusters' PQ footprint (already folded into Plan.ShardBytes by
	// AttachPrecision).
	SQExtraBytes int64
	// NVMeBytes is the logical PQ bytes demoted to the SSD tier.
	NVMeBytes int64
	// RecallGain is the planning-time, work-share-weighted estimate of
	// the mean per-query recall gain.
	RecallGain float64
}

// SQRatio is SQ8 bytes per PQ byte for a corpus geometry: SQ8 stores
// Dim bytes per vector against PQ's CodeBytes.
func SQRatio(spec dataset.Spec) float64 {
	return float64(spec.Dim) / float64(spec.CodeBytes)
}

// SQUpgradeBytes is the price of one PQ→SQ8 upgrade: the HBM a cluster
// of pqBytes PQ codes takes beyond its PQ footprint at the given ratio.
// The greedy pick, the joint allocator, the materialized refinement and
// the shard accounting all charge this.
func SQUpgradeBytes(pqBytes int64, ratio float64) int64 {
	return int64(float64(pqBytes) * (ratio - 1))
}

// IsSQ reports whether cluster c is stored as SQ8. Safe on nil.
func (p *Precision) IsSQ(c int) bool {
	return p != nil && c >= 0 && c < len(p.SQ) && p.SQ[c]
}

// IsNVMe reports whether cluster c's codes live on the NVMe tier.
// Safe on nil.
func (p *Precision) IsNVMe(c int) bool {
	return p != nil && c >= 0 && c < len(p.NVMe) && p.NVMe[c]
}

// Delta returns cluster c's modeled recall gain when scanned as SQ8.
func (p *Precision) Delta(c int) float64 {
	if p == nil || c < 0 || c >= len(p.Deltas) {
		return 0
	}
	return p.Deltas[c]
}

// AttachPrecision installs the refinement on the plan and folds the SQ
// upgrades' extra bytes into the hosting shards' resident-byte
// accounting — the same ShardBytes the GPU states (and therefore the
// LLM KV pool) see, so upgraded codes are paid for in memory, not just
// in speed. A nil prec detaches, restoring nothing (callers detaching
// must rebuild the plan).
func (pl *Plan) AttachPrecision(prec *Precision) {
	pl.Prec = prec
	if prec == nil {
		return
	}
	for _, c := range pl.HotClusters {
		if !prec.IsSQ(c) {
			continue
		}
		if loc, ok := pl.Mapping[c]; ok {
			pl.ShardBytes[loc.Shard] += SQUpgradeBytes(pl.W.ClusterBytes(c), prec.SQRatio)
		}
	}
}
