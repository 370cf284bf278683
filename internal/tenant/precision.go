package tenant

import "vectorliterag/internal/splitter"

// Precision extension of the joint allocator: after the placement
// greedy converges, leftover HBM budget upgrades each tenant's hottest
// placed clusters from PQ codes to SQ8 — the (tier, codec) half of the
// placement × precision decision. SQ8 stores Dim bytes per vector
// against PQ's CodeBytes (~4x), scans as a gather-free streaming
// kernel on the GPU, and recovers most of the quantization recall PQ
// gives up; the allocator spends bytes on it only where the
// tier-weighted marginal recall per byte is highest.
//
// The upgrade pass runs strictly after placement converged, so it can
// only consume budget no placement step wanted: modeled attainment is
// never lower than the placement-only allocation at equal budget (the
// property test pins this).

// PrecisionOptions parameterizes the codec-upgrade pass.
type PrecisionOptions struct {
	// SQBytesRatio is SQ8 bytes per vector over PQ bytes per vector
	// (Spec.Dim / Spec.CodeBytes at logical scale; ~4x for the paper's
	// datasets). An upgrade costs splitter.SQUpgradeBytes of its PQ
	// bytes. Values ≤ 1 disable the pass.
	SQBytesRatio float64
	// RecallDelta[i][r] is tenant i's estimated recall gain (SQ8 minus
	// PQ, in recall points) for its rank-r hottest cluster, as measured
	// by the profiler. Deltas are clamped at zero: SQ8 never loses
	// recall to PQ under this model.
	RecallDelta [][]float64
}

// upgradePrecision spends the budget the placement rounds left over on
// PQ→SQ8 upgrades, hottest-first within each tenant, ordered across
// tenants by Tier.Weight() × recall delta per extra
// byte. Ties break toward the higher tier, then the lower tenant
// index, then the hotter rank, so the result is deterministic.
// It mutates res in place and returns the total recall gain bought
// (rate-weighted across tenants, in recall points).
func upgradePrecision(in Inputs, res *Result, ks []int) float64 {
	po := in.Precision
	if po == nil || po.SQBytesRatio <= 1 {
		return 0
	}
	// next[i] is the hottest not-yet-upgraded rank of tenant i;
	// upgrades proceed in rank order because recall deltas are
	// attributed per hot rank and hotter clusters are probed more.
	next := make([]int, len(in.Tenants))
	var totalGain float64
	for {
		best, bestScore := -1, 0.0
		var bestBytes int64
		for i, t := range in.Tenants {
			r := next[i]
			if r >= ks[i] || r >= len(po.RecallDelta[i]) {
				continue
			}
			step := splitter.SQUpgradeBytes(t.PrefixBytes[r+1]-t.PrefixBytes[r], po.SQBytesRatio)
			if step <= 0 || res.UsedBytes+step > res.BudgetBytes {
				continue
			}
			delta := po.RecallDelta[i][r]
			if delta <= 0 {
				// A zero-delta cluster buys nothing; skip past it so a
				// colder-but-improvable cluster behind it stays reachable.
				next[i]++
				continue
			}
			score := float64(t.Tier.Weight()) * delta / float64(max(step, 1))
			if best < 0 || score > bestScore+1e-15 ||
				(score > bestScore-1e-15 && t.Tier.Priority() < in.Tenants[best].Tier.Priority()) {
				best, bestScore, bestBytes = i, score, step
			}
		}
		if best < 0 {
			break
		}
		r := next[best]
		t := in.Tenants[best]
		res.UsedBytes += bestBytes
		res.Allocations[best].SQClusters++
		res.Allocations[best].SQBytes += bestBytes
		res.Allocations[best].Bytes += bestBytes
		res.Allocations[best].RecallGain += po.RecallDelta[best][r]
		totalGain += po.RecallDelta[best][r] * t.Rate / res.AggregateRate
		next[best]++
	}
	return totalGain
}
