package profiler

import "fmt"

// MaxSQRecallGain caps the modeled per-cluster recall gain (in recall
// points) of storing a cluster as SQ8 instead of PQ. SQ8 keeps one
// byte per dimension where the PQ configuration spends one byte per
// Dim/M dimensions, so its reconstruction error is a fraction of PQ's;
// published IVF comparisons put the recall gap between SQ8 and
// byte-per-4-dims PQ at mid-single-digit recall points on recall@10,
// which is where this cap sits.
const MaxSQRecallGain = 0.05

// SQRecallDeltas estimates, per physical cluster, the recall gain (in
// recall points, 0..MaxSQRecallGain) from storing that cluster's
// vectors as SQ8 codes instead of PQ codes.
//
// The estimate reads the workload's codec distortion
// (dataset.Workload.Distortion, measured once per corpus): a cluster's
// delta scales with how much of the PQ distortion SQ8 removes, relative
// to the corpus-mean PQ distortion — clusters the PQ codebooks already
// represent well have little recall to win back, while clusters far
// from the codebook centers (where PQ's subspace centroids are
// stretched) gain the most.
func SQRecallDeltas(p *AccessProfile) ([]float64, error) {
	d, err := p.W.Distortion()
	if err != nil {
		return nil, fmt.Errorf("profiler: %w", err)
	}
	deltas := make([]float64, len(d.PQ))
	for c := range deltas {
		if d.PQ[c] <= 0 {
			continue
		}
		rel := (d.PQ[c] - d.SQ[c]) / d.MeanPQ
		if rel < 0 {
			rel = 0
		}
		if rel > 1 {
			rel = 1
		}
		deltas[c] = MaxSQRecallGain * rel
	}
	return deltas, nil
}

// RecallDeltasByRank reorders per-cluster deltas into the profile's
// hot order — deltas[r] is then the recall gain of upgrading the r-th
// hottest cluster, the layout the multi-tenant allocator's precision
// pass consumes (tenant.PrecisionOptions.RecallDelta).
func (p *AccessProfile) RecallDeltasByRank(deltas []float64) []float64 {
	out := make([]float64, len(p.HotOrder))
	for r, c := range p.HotOrder {
		if c < len(deltas) {
			out[r] = deltas[c]
		}
	}
	return out
}
