// Package pq implements product quantization (Jégou et al., TPAMI 2010),
// the compression scheme the paper layers on IVF (§II-A/B): each vector
// is split into M sub-vectors, each sub-vector is quantized to one of
// 2^nbits codewords trained by k-means, and search-time distances are
// computed by asymmetric distance computation (ADC) — a lookup table of
// query-to-codeword partial distances built once per query, then scanned
// per candidate code.
//
// The LUT build + scan stages are exactly what the paper's Figure 3
// identifies as the dominant cost of IVF search and what VectorLiteRAG
// offloads to GPUs.
package pq

import (
	"fmt"

	"vectorliterag/internal/kmeans"
	"vectorliterag/internal/parallel"
	"vectorliterag/internal/vecmath"
)

// Quantizer is a trained product quantizer.
type Quantizer struct {
	Dim    int // full vector dimensionality
	M      int // number of subspaces
	K      int // codewords per subspace (typically 256 for 8-bit codes)
	subDim int
	// codebooks[m] is a K x subDim row-major matrix.
	codebooks [][]float32
	// cbNorms[m][j] = ||codebooks[m][j]||^2, precomputed at training time
	// so Encode and BuildLUT run the norm-decomposed kernels
	// (d = |x|^2 - 2<x,c> + |c|^2) without re-deriving codeword norms.
	cbNorms [][]float32
}

// Config controls training.
type Config struct {
	Dim   int
	M     int // must divide Dim
	K     int // codewords per subspace, at most 256; default 256
	Iters int
	Seed  uint64
	// Workers sizes the training worker pool (subspaces train
	// concurrently); non-positive means one per P (GOMAXPROCS). Each subspace
	// trains from its own seed, so results are identical for any value.
	Workers int
}

// Train learns the per-subspace codebooks from the row-major training
// matrix.
func Train(data []float32, cfg Config) (*Quantizer, error) {
	q, _, err := TrainEncode(data, cfg)
	return q, err
}

// Validate reports why cfg cannot train on the row-major matrix data,
// or nil when TrainEncode will succeed on it. A K of 0 is the default
// 256. A caller that trains later calls it when it commits to cfg.
func (cfg Config) Validate(data []float32) error {
	k := cfg.K
	if k == 0 {
		k = lutStride
	}
	if cfg.Dim <= 0 || cfg.M <= 0 {
		return fmt.Errorf("pq: non-positive dim %d or M %d", cfg.Dim, cfg.M)
	}
	if k < 0 || k > lutStride {
		return fmt.Errorf("pq: K=%d codewords outside [1, %d]: a code is one byte per subspace", k, lutStride)
	}
	if cfg.Dim%cfg.M != 0 {
		return fmt.Errorf("pq: M=%d does not divide dim=%d", cfg.M, cfg.Dim)
	}
	if len(data) == 0 || len(data)%cfg.Dim != 0 {
		return fmt.Errorf("pq: bad training matrix length %d for dim %d", len(data), cfg.Dim)
	}
	if n := len(data) / cfg.Dim; n < k {
		return fmt.Errorf("pq: %d training vectors < K=%d codewords", n, k)
	}
	return nil
}

// TrainEncode is Train that also returns the code of every training
// vector (row-major, CodeSize bytes each). A subspace's final k-means
// assignment is the argmin Encode takes against the trained codebook —
// the same scores over the same codeword norms — so the codes are
// Encode's, bit for bit, without a second pass over the data.
func TrainEncode(data []float32, cfg Config) (*Quantizer, []byte, error) {
	if err := cfg.Validate(data); err != nil {
		return nil, nil, err
	}
	if cfg.K == 0 {
		cfg.K = lutStride
	}
	n := len(data) / cfg.Dim
	subDim := cfg.Dim / cfg.M
	q := &Quantizer{Dim: cfg.Dim, M: cfg.M, K: cfg.K, subDim: subDim, codebooks: make([][]float32, cfg.M)}
	// Subspaces are independent trainings with their own seeds, so they
	// run concurrently; each goroutine extracts its own sub-matrix. The
	// outer fan-out already saturates the pool, so the inner trainings
	// stay single-threaded (worker count never changes results).
	innerWorkers := cfg.Workers
	if cfg.M > 1 {
		innerWorkers = 1
	}
	errs := make([]error, cfg.M)
	assign := make([][]int, cfg.M)
	parallel.ForEach(cfg.M, cfg.Workers, func(m int) {
		sub := make([]float32, n*subDim)
		for i := 0; i < n; i++ {
			copy(sub[i*subDim:(i+1)*subDim], data[i*cfg.Dim+m*subDim:i*cfg.Dim+(m+1)*subDim])
		}
		res, err := kmeans.Train(sub, kmeans.Config{K: cfg.K, Dim: subDim, MaxIters: cfg.Iters, Seed: cfg.Seed + uint64(m), Workers: innerWorkers})
		if err != nil {
			errs[m] = fmt.Errorf("pq: subspace %d: %w", m, err)
			return
		}
		q.codebooks[m], assign[m] = res.Centroids, res.Assignments
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	q.cbNorms = make([][]float32, cfg.M)
	for m := range q.codebooks {
		q.cbNorms[m] = vecmath.RowNorms(q.codebooks[m], subDim, nil)
	}
	codes := make([]byte, n*cfg.M)
	for m, a := range assign {
		for i, j := range a {
			codes[i*cfg.M+m] = byte(j)
		}
	}
	return q, codes, nil
}

// CodeSize returns the number of bytes in one encoded vector (one byte
// per subspace, which is why Train rejects K > 256).
func (q *Quantizer) CodeSize() int { return q.M }

// Encode quantizes vector v (length Dim) into dst (length M). It
// returns dst for convenience; if dst is nil a new slice is allocated.
func (q *Quantizer) Encode(v []float32, dst []byte) []byte {
	if len(v) != q.Dim {
		panic(fmt.Sprintf("pq: encode vector of dim %d with quantizer dim %d", len(v), q.Dim))
	}
	if dst == nil {
		dst = make([]byte, q.M)
	}
	for m := 0; m < q.M; m++ {
		idx, _, _ := vecmath.ArgminNormScore(v[m*q.subDim:(m+1)*q.subDim], q.codebooks[m], q.cbNorms[m], q.subDim)
		dst[m] = byte(idx)
	}
	return dst
}

// Decode reconstructs the approximate vector for a code.
func (q *Quantizer) Decode(code []byte) []float32 {
	out := make([]float32, q.Dim)
	for m := 0; m < q.M; m++ {
		cw := q.codebooks[m][int(code[m])*q.subDim : (int(code[m])+1)*q.subDim]
		copy(out[m*q.subDim:(m+1)*q.subDim], cw)
	}
	return out
}

// LUT is a per-query lookup table of partial squared distances:
// entry (m, j) = ||q_m - codebook[m][j]||^2 at tab[m*lutStride + j].
// Scanning a code then costs M lookups and adds — the ADC inner loop.
//
// Rows are padded to a fixed 256-entry stride (the largest possible K
// for byte codes): a row sliced with constant bounds has a length the
// compiler knows exactly, so indexing it with a code byte needs no
// bounds check in the scan loops. Entries past K-1 are never addressed
// by valid codes and hold whatever the reused buffer held.
type LUT struct {
	M, K int
	tab  []float32
}

// lutStride is the padded row length (max codewords addressable by a
// byte code).
const lutStride = 256

// BuildLUT computes the lookup table for query v.
func (q *Quantizer) BuildLUT(v []float32) *LUT {
	t := &LUT{}
	q.BuildLUTInto(v, t)
	return t
}

// BuildLUTInto fills t with the lookup table for query v, reusing t's
// backing buffer when it is large enough — the steady-state path of the
// search scratch. Entries are computed with the norm decomposition
// (|q_m|^2 - 2<q_m,c> + |c|^2 with precomputed codeword norms), which
// replaces the subtract-square inner loop by a dot product.
func (q *Quantizer) BuildLUTInto(v []float32, t *LUT) {
	if len(v) != q.Dim {
		panic(fmt.Sprintf("pq: LUT for vector of dim %d with quantizer dim %d", len(v), q.Dim))
	}
	t.M, t.K = q.M, q.K
	if cap(t.tab) < q.M*lutStride {
		t.tab = make([]float32, q.M*lutStride)
	} else {
		t.tab = t.tab[:q.M*lutStride]
	}
	sd := q.subDim
	for m := 0; m < q.M; m++ {
		qSub := v[m*sd : (m+1)*sd]
		qn := vecmath.Norm2(qSub)
		cb := q.codebooks[m]
		// Slicing norms and row to exactly K entries lets the compiler
		// drop the bounds checks inside the j < K fill loops.
		norms := q.cbNorms[m][:q.K]
		row := t.tab[m*lutStride : m*lutStride+q.K]
		switch sd {
		case 4:
			// The dominant configuration (e.g. dim 32, M 8): the dot
			// product is written out so the per-entry loop carries no
			// inner-loop control flow, and the codebook is walked with a
			// running offset against a length-pinned slice so the prove
			// pass can drop the element bounds checks. Accumulation
			// order matches the generic path exactly.
			cb4 := cb[: q.K*4 : q.K*4]
			q0, q1, q2, q3 := qSub[0], qSub[1], qSub[2], qSub[3]
			jj := 0
			for j := range row {
				dot := q0 * cb4[jj]
				dot += q1 * cb4[jj+1]
				dot += q2 * cb4[jj+2]
				dot += q3 * cb4[jj+3]
				jj += 4
				e := qn - 2*dot + norms[j]
				if e < 0 {
					e = 0
				}
				row[j] = e
			}
		default:
			// The products land in the LUT row itself, four codewords per
			// step, and are turned into entries in place.
			vecmath.DotRows(qSub, cb[:q.K*sd], sd, row)
			for j, dot := range row {
				e := qn - 2*dot + norms[j]
				if e < 0 {
					e = 0
				}
				row[j] = e
			}
		}
	}
}

// Distance accumulates the approximate squared distance for one code.
func (t *LUT) Distance(code []byte) float32 {
	var sum float32
	for m := 0; m < t.M; m++ {
		sum += t.tab[m*lutStride+int(code[m])]
	}
	return sum
}

// distanceAbandon accumulates the distance for one code but gives up as
// soon as the partial sum reaches bound: LUT entries are non-negative,
// so the partial sums are monotone and a prefix ≥ bound proves the full
// distance would be rejected by a collector whose k-th best is bound.
// It reports the (possibly partial) sum and whether the scan survived.
// Checks happen every four subspaces to keep branches off the critical
// accumulate path.
func (t *LUT) distanceAbandon(code []byte, bound float32) (float32, bool) {
	var sum float32
	m := 0
	for ; m+4 <= t.M; m += 4 {
		sum += t.tab[m*lutStride+int(code[m])]
		sum += t.tab[(m+1)*lutStride+int(code[m+1])]
		sum += t.tab[(m+2)*lutStride+int(code[m+2])]
		sum += t.tab[(m+3)*lutStride+int(code[m+3])]
		if sum >= bound {
			return sum, false
		}
	}
	for ; m < t.M; m++ {
		sum += t.tab[m*lutStride+int(code[m])]
	}
	return sum, sum < bound
}

// ScanCodesIDs computes ADC distances for one inverted list's codes
// (CodeSize bytes each) and pushes candidate i under ids[i]. It is the
// loop fast-scan implementations vectorize with SIMD shuffles; here a
// fill phase pushes until the collector is full, then a 4-way unrolled
// loop abandons candidates early against the k-th best, read once per
// group (it only shrinks, so a stale bound is conservative), and M=8
// takes the inlined scanIDs8. The collector ends bit-identical to a
// full evaluation in list order.
func (t *LUT) ScanCodesIDs(codes []byte, ids []int32, top *vecmath.TopK) {
	if t.M == 8 {
		t.scanIDs8(codes, ids, top)
		return
	}
	cs := t.M
	n := len(codes) / cs
	i := 0
	for ; i < n; i++ {
		if _, full := top.Worst(); full {
			break
		}
		top.Push(int(ids[i]), t.Distance(codes[i*cs:(i+1)*cs]))
	}
	for ; i+4 <= n; i += 4 {
		bound, _ := top.Worst()
		if d, ok := t.distanceAbandon(codes[i*cs:(i+1)*cs], bound); ok {
			top.Push(int(ids[i]), d)
		}
		if d, ok := t.distanceAbandon(codes[(i+1)*cs:(i+2)*cs], bound); ok {
			top.Push(int(ids[i+1]), d)
		}
		if d, ok := t.distanceAbandon(codes[(i+2)*cs:(i+3)*cs], bound); ok {
			top.Push(int(ids[i+2]), d)
		}
		if d, ok := t.distanceAbandon(codes[(i+3)*cs:(i+4)*cs], bound); ok {
			top.Push(int(ids[i+3]), d)
		}
	}
	for ; i < n; i++ {
		bound, _ := top.Worst()
		if d, ok := t.distanceAbandon(codes[i*cs:(i+1)*cs], bound); ok {
			top.Push(int(ids[i]), d)
		}
	}
}

// ScanCodesIDsMasked is ScanCodesIDs with a positional tombstone
// bitmap: bit i of dead (dead[i/64]>>(i%64)&1) marks list position i
// deleted, and masked positions are skipped unevaluated. An empty
// bitmap falls through to the unmasked scan; a non-empty one covers at
// least ceil(n/64) words. The collector ends bit-identical to a naive
// masked full evaluation, and nothing is allocated. The generic steady
// phase skips the unroll (the mask test already breaks the straight
// line); the M=8 path keeps its hoisted rows and midpoint abandon.
func (t *LUT) ScanCodesIDsMasked(codes []byte, ids []int32, dead []uint64, top *vecmath.TopK) {
	if len(dead) == 0 {
		t.ScanCodesIDs(codes, ids, top)
		return
	}
	if t.M == 8 {
		t.scanIDs8Masked(codes, ids, dead, top)
		return
	}
	cs := t.M
	n := len(codes) / cs
	i := 0
	for ; i < n; i++ {
		if dead[uint(i)>>6]&(1<<(uint(i)&63)) != 0 {
			continue
		}
		if _, full := top.Worst(); full {
			break
		}
		top.Push(int(ids[i]), t.Distance(codes[i*cs:(i+1)*cs]))
	}
	for ; i < n; i++ {
		if dead[uint(i)>>6]&(1<<(uint(i)&63)) != 0 {
			continue
		}
		bound, _ := top.Worst()
		if d, ok := t.distanceAbandon(codes[i*cs:(i+1)*cs], bound); ok {
			top.Push(int(ids[i]), d)
		}
	}
}

// scanIDs8Masked is scanIDs8 with the positional tombstone test folded
// into both phases. Accumulation order and abandon decisions over the
// surviving candidates are identical to the unmasked fast path, so a
// masked scan matches a naive masked full evaluation bit for bit.
func (t *LUT) scanIDs8Masked(codes []byte, ids []int32, dead []uint64, top *vecmath.TopK) {
	tab := t.tab[:8*lutStride]
	t0, t1, t2, t3 := tab[0:256], tab[256:512], tab[512:768], tab[768:1024]
	t4, t5, t6, t7 := tab[1024:1280], tab[1280:1536], tab[1536:1792], tab[1792:2048]
	n := len(codes) / 8
	i := 0
	for ; i < n; i++ {
		if dead[uint(i)>>6]&(1<<(uint(i)&63)) != 0 {
			continue
		}
		if _, full := top.Worst(); full {
			break
		}
		c := codes[i*8 : i*8+8 : i*8+8]
		d := t0[c[0]] + t1[c[1]] + t2[c[2]] + t3[c[3]]
		d = d + t4[c[4]] + t5[c[5]] + t6[c[6]] + t7[c[7]]
		top.Push(int(ids[i]), d)
	}
	if i >= n {
		return
	}
	bound, _ := top.Worst()
	for ; i < n; i++ {
		if dead[uint(i)>>6]&(1<<(uint(i)&63)) != 0 {
			continue
		}
		c := codes[i*8 : i*8+8 : i*8+8]
		d := t0[c[0]] + t1[c[1]] + t2[c[2]] + t3[c[3]]
		if d >= bound {
			continue
		}
		d = d + t4[c[4]] + t5[c[5]] + t6[c[6]] + t7[c[7]]
		if d < bound {
			top.Push(int(ids[i]), d)
			bound, _ = top.Worst()
		}
	}
}

// scanIDs8 is ScanCodesIDs specialized to the dominant M=8 code size:
// the eight LUT rows are hoisted into locals (no m*K multiply, no inner
// loop) and the early-abandon check sits inline at the subspace
// midpoint. Accumulation order and abandon decisions are identical to
// the generic path, so the collector's contents match bit for bit.
func (t *LUT) scanIDs8(codes []byte, ids []int32, top *vecmath.TopK) {
	// Constant slice bounds give each row a compiler-known length of
	// 256, so indexing with a code byte is provably in bounds.
	tab := t.tab[:8*lutStride]
	t0, t1, t2, t3 := tab[0:256], tab[256:512], tab[512:768], tab[768:1024]
	t4, t5, t6, t7 := tab[1024:1280], tab[1280:1536], tab[1536:1792], tab[1792:2048]
	n := len(codes) / 8
	i := 0
	for ; i < n; i++ {
		if _, full := top.Worst(); full {
			break
		}
		c := codes[i*8 : i*8+8 : i*8+8]
		d := t0[c[0]] + t1[c[1]] + t2[c[2]] + t3[c[3]]
		d = d + t4[c[4]] + t5[c[5]] + t6[c[6]] + t7[c[7]]
		top.Push(int(ids[i]), d)
	}
	if i >= n {
		return
	}
	// The bound is the current k-th best; a candidate below it always
	// displaces the root, so re-reading after each push keeps it exact
	// without a load per candidate.
	bound, _ := top.Worst()
	for ; i < n; i++ {
		c := codes[i*8 : i*8+8 : i*8+8]
		d := t0[c[0]] + t1[c[1]] + t2[c[2]] + t3[c[3]]
		if d >= bound {
			continue
		}
		d = d + t4[c[4]] + t5[c[5]] + t6[c[6]] + t7[c[7]]
		if d < bound {
			top.Push(int(ids[i]), d)
			bound, _ = top.Worst()
		}
	}
}
