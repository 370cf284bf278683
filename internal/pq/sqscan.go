package pq

import "vectorliterag/internal/vecmath"

// SQ8 scan kernels for the mixed-precision hot tier: clusters stored as
// SQ8 are scanned straight from their byte codes (no per-query LUT
// build), which on a real GPU is a gather-free streaming kernel running
// near DRAM bandwidth. They keep the PQ kernels' contract: candidate
// distances accumulate in dimension order exactly as
// ScalarQuantizer.Distance does, pushes happen in list order, and early
// abandonment only skips candidates a full evaluation would have
// rejected, so the collector's final contents are bit-identical to a
// naive full scan (the fuzz targets pin this).

// distanceSQAbandon accumulates the asymmetric SQ distance for one
// code but gives up as soon as the partial sum reaches bound: per-dim
// terms are squares, so partial sums are monotone and a prefix ≥ bound
// proves a collector whose k-th best is bound would reject the
// candidate. Checks happen every eight dimensions to keep branches off
// the accumulate path. Accumulation order matches Distance exactly.
func (q *ScalarQuantizer) distanceSQAbandon(query []float32, code []byte, bound float32) (float32, bool) {
	var sum float32
	n := q.Dim
	d := 0
	for ; d+8 <= n; d += 8 {
		for k := d; k < d+8; k++ {
			t := float32(code[k]) / 255
			rec := q.min[k] + t*(q.max[k]-q.min[k])
			diff := query[k] - rec
			sum += diff * diff
		}
		if sum >= bound {
			return sum, false
		}
	}
	for ; d < n; d++ {
		t := float32(code[d]) / 255
		rec := q.min[d] + t*(q.max[d]-q.min[d])
		diff := query[d] - rec
		sum += diff * diff
	}
	return sum, sum < bound
}

// ScanSQIDs scans the SQ8 codes of one inverted list, pushing
// candidate i under ids[i]: a fill phase while the collector is short,
// then early abandonment against the collector's k-th best. The abandon
// bound is read once per group of four candidates; it only shrinks as
// pushes land, so abandoning against the slightly stale bound is
// conservative and the collector's contents stay bit-identical to a
// full evaluation.
func (q *ScalarQuantizer) ScanSQIDs(query []float32, codes []byte, ids []int32, top *vecmath.TopK) {
	cs := q.Dim
	n := len(codes) / cs
	i := 0
	for ; i < n; i++ {
		if _, full := top.Worst(); full {
			break
		}
		top.Push(int(ids[i]), q.Distance(query, codes[i*cs:(i+1)*cs]))
	}
	for ; i+4 <= n; i += 4 {
		bound, _ := top.Worst()
		if d, ok := q.distanceSQAbandon(query, codes[i*cs:(i+1)*cs], bound); ok {
			top.Push(int(ids[i]), d)
		}
		if d, ok := q.distanceSQAbandon(query, codes[(i+1)*cs:(i+2)*cs], bound); ok {
			top.Push(int(ids[i+1]), d)
		}
		if d, ok := q.distanceSQAbandon(query, codes[(i+2)*cs:(i+3)*cs], bound); ok {
			top.Push(int(ids[i+2]), d)
		}
		if d, ok := q.distanceSQAbandon(query, codes[(i+3)*cs:(i+4)*cs], bound); ok {
			top.Push(int(ids[i+3]), d)
		}
	}
	for ; i < n; i++ {
		bound, _ := top.Worst()
		if d, ok := q.distanceSQAbandon(query, codes[i*cs:(i+1)*cs], bound); ok {
			top.Push(int(ids[i]), d)
		}
	}
}

// ScanSQIDsMasked is ScanSQIDs under ScanCodesIDsMasked's tombstone
// bitmap contract: masked list positions are skipped unevaluated, the
// collector ends bit-identical to a naive masked full evaluation, and
// the steady phase skips the unroll as the PQ masked scan does.
func (q *ScalarQuantizer) ScanSQIDsMasked(query []float32, codes []byte, ids []int32, dead []uint64, top *vecmath.TopK) {
	if len(dead) == 0 {
		q.ScanSQIDs(query, codes, ids, top)
		return
	}
	cs := q.Dim
	n := len(codes) / cs
	i := 0
	for ; i < n; i++ {
		if dead[uint(i)>>6]&(1<<(uint(i)&63)) != 0 {
			continue
		}
		if _, full := top.Worst(); full {
			break
		}
		top.Push(int(ids[i]), q.Distance(query, codes[i*cs:(i+1)*cs]))
	}
	for ; i < n; i++ {
		if dead[uint(i)>>6]&(1<<(uint(i)&63)) != 0 {
			continue
		}
		bound, _ := top.Worst()
		if d, ok := q.distanceSQAbandon(query, codes[i*cs:(i+1)*cs], bound); ok {
			top.Push(int(ids[i]), d)
		}
	}
}
