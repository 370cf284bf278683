package pq

import "vectorliterag/internal/vecmath"

// SQ8 scan kernel for the mixed-precision hot tier: clusters stored as
// SQ8 are scanned straight from their byte codes (no per-query LUT
// build), which on a real GPU is a gather-free streaming kernel running
// near DRAM bandwidth. It keeps the PQ kernel's contract: candidate
// distances accumulate in dimension order exactly as
// ScalarQuantizer.Distance does, pushes happen in list order, and early
// abandonment only skips candidates a full evaluation would have
// rejected, so the collector's final contents are bit-identical to a
// naive full scan (the fuzz target pins this).

// distanceSQAbandon accumulates the asymmetric SQ distance for one
// code but gives up as soon as the partial sum reaches bound: per-dim
// terms are squares, so partial sums are monotone and a prefix ≥ bound
// proves a collector whose k-th best is bound would reject the
// candidate. Checks happen every eight dimensions to keep branches off
// the accumulate path. Accumulation order and rounding match Distance
// exactly.
func (q *ScalarQuantizer) distanceSQAbandon(query []float32, code []byte, bound float32) (float32, bool) {
	var sum float32
	n := q.Dim
	d := 0
	for ; d+8 <= n; d += 8 {
		for k := d; k < d+8; k++ {
			t := float32(code[k]) / 255
			rec := q.min[k] + float32(t*(q.max[k]-q.min[k]))
			diff := query[k] - rec
			sum += float32(diff * diff)
		}
		if sum >= bound {
			return sum, false
		}
	}
	for ; d < n; d++ {
		t := float32(code[d]) / 255
		rec := q.min[d] + float32(t*(q.max[d]-q.min[d]))
		diff := query[d] - rec
		sum += float32(diff * diff)
	}
	return sum, sum < bound
}

// ScanSQIDs is ScanSQIDsMasked with no tombstones.
func (q *ScalarQuantizer) ScanSQIDs(query []float32, codes []byte, ids []int32, top *vecmath.TopK) {
	q.ScanSQIDsMasked(query, codes, ids, nil, top)
}

// ScanSQIDsMasked scans the SQ8 codes of one inverted list, pushing
// candidate i under ids[i] and skipping the positions ScanCodesIDsMasked's
// tombstone bitmap marks deleted (nil masks nothing): a fill phase while
// the collector is short, then early abandonment of each live candidate
// against the collector's k-th best. The collector ends bit-identical
// to a naive masked full evaluation.
func (q *ScalarQuantizer) ScanSQIDsMasked(query []float32, codes []byte, ids []int32, dead []uint64, top *vecmath.TopK) {
	masked := len(dead) > 0
	cs := q.Dim
	n := len(codes) / cs
	i := 0
	for ; i < n; i++ {
		if masked && dead[uint(i)>>6]&(1<<(uint(i)&63)) != 0 {
			continue
		}
		if _, full := top.Worst(); full {
			break
		}
		top.Push(int(ids[i]), q.Distance(query, codes[i*cs:(i+1)*cs]))
	}
	for ; i < n; i++ {
		if masked && dead[uint(i)>>6]&(1<<(uint(i)&63)) != 0 {
			continue
		}
		bound, _ := top.Worst()
		if d, ok := q.distanceSQAbandon(query, codes[i*cs:(i+1)*cs], bound); ok {
			top.Push(int(ids[i]), d)
		}
	}
}
