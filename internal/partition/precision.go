package partition

import (
	"fmt"
	"sort"

	"vectorliterag/internal/profiler"
	"vectorliterag/internal/splitter"
)

// PrecisionInputs parameterizes the (tier, codec) refinement that runs
// after Algorithm 1 has fixed the placement point: which hot clusters
// to upgrade from PQ to SQ8 within a bounded HBM budget, and which
// cold clusters to demote to the NVMe tier.
type PrecisionInputs struct {
	Prof *profiler.AccessProfile
	Plan *splitter.Plan
	// RecallDeltas is the per-cluster recall gain of an SQ8 upgrade
	// (profiler.SQRecallDeltas).
	RecallDeltas []float64
	// SQRatio is SQ8 bytes per PQ byte (Spec.Dim / Spec.CodeBytes).
	SQRatio float64
	// SQBudgetBytes bounds the extra HBM the upgrades may consume.
	SQBudgetBytes int64
	// NVMeColdShare demotes the coldest CPU-resident clusters carrying
	// at most this share of profiled accesses (0 disables demotion).
	NVMeColdShare float64
}

// AssignPrecision is the greedy marginal-benefit loop of the joint
// placement x precision optimization. Placement (Algorithm 1) has
// already decided *where* each cluster lives; this pass decides *how*
// it is stored there:
//
//   - SQ upgrades: hot clusters ranked by marginal recall per extra
//     HBM byte (access-weighted recall delta over the SQ8-PQ size
//     difference), taken greedily until the budget is exhausted. The
//     upgrade never evicts a placed cluster — it only spends bytes the
//     placement loop left to the KV pool — so the modeled attainment
//     of the placement decision is never reduced by construction (the
//     Eq. 1 proxy prices only the CPU miss path, which upgrades do not
//     touch); what an upgrade buys at serve time is a faster streaming
//     kernel and the recall delta.
//   - NVMe demotion: walking the hot order from the coldest end, cold
//     clusters are demoted while their cumulative access share stays
//     within NVMeColdShare — the clusters whose page-read latency is
//     amortized over the fewest queries.
//
// Ties break toward lower cluster IDs, so the assignment is
// deterministic for a fixed profile.
func AssignPrecision(in PrecisionInputs) (*splitter.Precision, error) {
	if err := in.check(); err != nil {
		return nil, err
	}
	return MaterializePrecision(in, pickSQ(in))
}

func (in PrecisionInputs) check() error {
	if in.Prof == nil || in.Plan == nil {
		return fmt.Errorf("partition: missing precision inputs")
	}
	if in.SQRatio <= 1 {
		return fmt.Errorf("partition: SQRatio %v must exceed 1 (SQ8 codes are larger than PQ)", in.SQRatio)
	}
	if in.NVMeColdShare < 0 || in.NVMeColdShare >= 1 {
		return fmt.Errorf("partition: NVMeColdShare %v outside [0,1)", in.NVMeColdShare)
	}
	return nil
}

// pickSQ is AssignPrecision's greedy SQ8 pick: placed clusters with a
// positive delta, by access-weighted recall delta per extra byte, taken
// while SQBudgetBytes lasts.
func pickSQ(in PrecisionInputs) []int {
	type cand struct {
		c     int
		score float64
		extra int64
	}
	cands := make([]cand, 0, len(in.Plan.HotClusters))
	for _, c := range in.Plan.HotClusters {
		if c >= len(in.RecallDeltas) || in.RecallDeltas[c] <= 0 || in.Prof.Counts[c] == 0 {
			continue
		}
		extra := splitter.SQUpgradeBytes(in.Prof.W.ClusterBytes(c), in.SQRatio)
		if extra <= 0 {
			continue
		}
		cands = append(cands, cand{
			c:     c,
			score: in.RecallDeltas[c] * float64(in.Prof.Counts[c]) / float64(extra),
			extra: extra,
		})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		return cands[a].c < cands[b].c
	})
	var sq []int
	budget := in.SQBudgetBytes
	for _, cd := range cands {
		if cd.extra > budget {
			continue // a smaller, lower-ranked cluster may still fit
		}
		budget -= cd.extra
		sq = append(sq, cd.c)
	}
	return sq
}

// MaterializePrecision is the one step every precision path ends in: it
// builds the refinement of in.Plan for a chosen SQ8 set — marks the set
// (each upgrade priced by splitter.SQUpgradeBytes), demotes the NVMe
// suffix, and estimates the recall gain. Algorithm 1's path hands it
// the greedy pick; a lineup hands it the clusters the joint allocator
// upgraded. SQBudgetBytes is not read: the set is already chosen.
func MaterializePrecision(in PrecisionInputs, sq []int) (*splitter.Precision, error) {
	if err := in.check(); err != nil {
		return nil, err
	}
	nlist := len(in.Prof.Counts)
	prec := &splitter.Precision{
		SQ:      make([]bool, nlist),
		NVMe:    make([]bool, nlist),
		Deltas:  append([]float64(nil), in.RecallDeltas...),
		SQRatio: in.SQRatio,
	}
	for _, c := range sq {
		prec.SQ[c] = true
		prec.SQClusters++
		prec.SQExtraBytes += splitter.SQUpgradeBytes(in.Prof.W.ClusterBytes(c), in.SQRatio)
	}

	// NVMe demotion: coldest-first suffix of the hot order (everything
	// past the placement cut is cold by construction).
	if in.NVMeColdShare > 0 {
		var total int64
		for _, cnt := range in.Prof.Counts {
			total += cnt
		}
		var cum int64
		for i := len(in.Prof.HotOrder) - 1; i >= 0; i-- {
			c := in.Prof.HotOrder[i]
			if in.Plan.IsHot(c) {
				break
			}
			cum += in.Prof.Counts[c]
			if total > 0 && float64(cum) > in.NVMeColdShare*float64(total) {
				break
			}
			prec.NVMe[c] = true
			prec.NVMeClusters++
			prec.NVMeBytes += in.Prof.W.ClusterBytes(c)
		}
	}

	// Planning estimate of the mean per-query recall gain: the
	// work-share-weighted average delta over the corpus (the runtime
	// weights each probed SQ cluster by its byte share of the query's
	// scan; weighting by accesses x bytes is the profile-level analog).
	var gain, work float64
	for c := 0; c < nlist; c++ {
		w := float64(in.Prof.Counts[c]) * float64(in.Prof.W.ClusterBytes(c))
		work += w
		if prec.SQ[c] {
			gain += w * in.RecallDeltas[c]
		}
	}
	if work > 0 {
		prec.RecallGain = gain / work
	}
	return prec, nil
}
