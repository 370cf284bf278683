// Package vecmath implements the dense float32 vector primitives used by
// the k-means trainer, product quantizer, and IVF index: squared-L2 and
// inner-product distances, argmin scans, and top-k selection.
//
// Everything operates on flat []float32 slices; matrices are row-major
// with an explicit dimension, matching how the index stores vectors.
//
// The query-time kernels are allocation-free: TopK is a hand-rolled
// bounded max-heap (no container/heap interface{} boxing) that can be
// Reset and drained into a caller-owned slice, and the argmin scans come
// in a norm-decomposed variant (d = |x|^2 - 2<x,c> + |c|^2 with
// precomputed row norms) that turns the subtract-square inner loop into
// a plain dot product.
//
// Every one-vector-against-many-rows loop runs on DotRows (or its
// subtract-square twin SquaredL2Rows): several rows advance together,
// each on its own sequential accumulator, so the result of every row is
// the bits Dot would return while the add chains overlap. On amd64 with
// AVX, DotRows runs eight rows to a YMM register in assembly
// (dotrows_amd64.s), one row per lane; elsewhere, and for what the
// kernel leaves, four rows advance in Go.
//
// Every product is rounded to float32 before it is added — an explicit
// float32(x*y) conversion, which the Go spec forbids fusing into a
// multiply-add — so the bits are the same on arm64, where Go would
// otherwise emit FMA, as on amd64, where it never does.
package vecmath

import "math"

// SquaredL2 returns the squared Euclidean distance between a and b.
// The slices must have equal length. Pinning b's length to a's lets the
// compiler drop the bounds check in the loop; the 4-way unroll keeps a
// single sequential accumulator, so rounding is identical to the
// one-term-per-iteration fold: each square rounded, then added.
func SquaredL2(a, b []float32) float32 {
	b = b[:len(a)]
	var sum float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		sum += float32(d0 * d0)
		d1 := a[i+1] - b[i+1]
		sum += float32(d1 * d1)
		d2 := a[i+2] - b[i+2]
		sum += float32(d2 * d2)
		d3 := a[i+3] - b[i+3]
		sum += float32(d3 * d3)
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		sum += float32(d * d)
	}
	return sum
}

// Dot returns the inner product of a and b. The loop is 4-way unrolled
// with a single sequential accumulator: identical rounding to the
// one-term-per-iteration fold (each product rounded, then added), just
// less loop overhead.
func Dot(a, b []float32) float32 {
	b = b[:len(a)]
	var sum float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		sum += float32(a[i] * b[i])
		sum += float32(a[i+1] * b[i+1])
		sum += float32(a[i+2] * b[i+2])
		sum += float32(a[i+3] * b[i+3])
	}
	for ; i < len(a); i++ {
		sum += float32(a[i] * b[i])
	}
	return sum
}

// Norm2 returns the squared L2 norm of v.
func Norm2(v []float32) float32 {
	return Dot(v, v)
}

// DotRows writes out[i] = Dot(q, row i) for every row of the row-major
// matrix rows (dim columns): len(q) must be dim and len(out) the row
// count. Dot's single accumulator makes a product one chain of dependent
// adds; here several rows advance together, each on its own sequential
// accumulator doing Dot's sequence (sum += float32(q[j] * row[j]), j
// ascending: a rounded product, then a rounded add), so every output is
// bit-for-bit Dot's and the chains overlap in the pipeline. On amd64
// with AVX and dim a multiple of four, the leading multiple of eight
// rows goes to the assembly kernel, each row one lane of a YMM
// accumulator (VMULPS then VADDPS, no FMA); the rest advance four rows
// at a time in Go, and remainder rows go through Dot. It panics on a
// non-positive dim or mismatched lengths.
func DotRows(q, rows []float32, dim int, out []float32) {
	if dim <= 0 || len(q) != dim || len(rows) != len(out)*dim {
		panic("vecmath: DotRows on non-positive dim or mismatched lengths")
	}
	i := dotRowsKernel(q, rows, dim, out)
	for ; i+4 <= len(out); i += 4 {
		// Re-slicing each row to len(q) lets the compiler drop the bounds
		// checks in the j loop.
		blk := rows[i*dim : (i+4)*dim]
		r0 := blk[:dim][:len(q)]
		r1 := blk[dim : 2*dim][:len(q)]
		r2 := blk[2*dim : 3*dim][:len(q)]
		r3 := blk[3*dim : 4*dim][:len(q)]
		var s0, s1, s2, s3 float32
		for j, x := range q {
			s0 += float32(x * r0[j])
			s1 += float32(x * r1[j])
			s2 += float32(x * r2[j])
			s3 += float32(x * r3[j])
		}
		o := out[i : i+4 : i+4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
	for ; i < len(out); i++ {
		out[i] = Dot(q, rows[i*dim:(i+1)*dim])
	}
}

// SquaredL2Rows is DotRows for the subtract-square distance: out[i] =
// SquaredL2(q, row i), bit for bit, four rows per step on one sequential
// accumulator each, in Go on every platform. (SquaredL2 is exactly symmetric in its arguments —
// a-b and b-a differ only in sign, which the square drops — so callers
// holding many vectors and one centre pass the centre as q.)
func SquaredL2Rows(q, rows []float32, dim int, out []float32) {
	if dim <= 0 || len(q) != dim || len(rows) != len(out)*dim {
		panic("vecmath: SquaredL2Rows on non-positive dim or mismatched lengths")
	}
	i := 0
	for ; i+4 <= len(out); i += 4 {
		blk := rows[i*dim : (i+4)*dim]
		r0 := blk[:dim][:len(q)]
		r1 := blk[dim : 2*dim][:len(q)]
		r2 := blk[2*dim : 3*dim][:len(q)]
		r3 := blk[3*dim : 4*dim][:len(q)]
		var s0, s1, s2, s3 float32
		for j, x := range q {
			d0 := x - r0[j]
			s0 += float32(d0 * d0)
			d1 := x - r1[j]
			s1 += float32(d1 * d1)
			d2 := x - r2[j]
			s2 += float32(d2 * d2)
			d3 := x - r3[j]
			s3 += float32(d3 * d3)
		}
		o := out[i : i+4 : i+4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
	for ; i < len(out); i++ {
		out[i] = SquaredL2(q, rows[i*dim:(i+1)*dim])
	}
}

// scoreBlock is how many rows the norm-score scans hand DotRows at a
// time: the products land in a stack array of this size, so the scans
// need no scratch of their own and allocate nothing.
const scoreBlock = 64

// dotBlock runs DotRows over the (at most scoreBlock) rows starting at
// row base and returns their products, which alias dots.
func dotBlock(q, rows []float32, dim, base int, dots *[scoreBlock]float32) []float32 {
	m := min(scoreBlock, len(rows)/dim-base)
	DotRows(q, rows[base*dim:(base+m)*dim], dim, dots[:m])
	return dots[:m]
}

// Add accumulates src into dst element-wise.
func Add(dst, src []float32) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// Scale multiplies every element of v by s.
func Scale(v []float32, s float32) {
	for i := range v {
		v[i] *= s
	}
}

// RowNorms fills dst with the squared L2 norm of each row of the
// row-major matrix rows and returns it. A nil dst allocates; otherwise
// len(dst) must equal the row count so steady-state callers can reuse
// one buffer across invocations.
func RowNorms(rows []float32, dim int, dst []float32) []float32 {
	n := len(rows) / dim
	if dst == nil {
		dst = make([]float32, n)
	}
	for i := 0; i < n; i++ {
		dst[i] = Norm2(rows[i*dim : (i+1)*dim])
	}
	return dst
}

// ArgminL2 returns the row index in the row-major matrix rows (each of
// length dim) closest to q in squared L2, together with that distance.
// It panics if rows is empty or not a multiple of dim. This is the
// exact (subtract-square) reference scan; hot paths with reusable norm
// tables use ArgminNormScore instead.
func ArgminL2(q []float32, rows []float32, dim int) (int, float32) {
	if len(rows) == 0 || len(rows)%dim != 0 {
		panic("vecmath: ArgminL2 on empty or ragged matrix")
	}
	best := -1
	bestD := float32(0)
	for i := 0; i*dim < len(rows); i++ {
		d := SquaredL2(q, rows[i*dim:(i+1)*dim])
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// ArgminNormScore returns the row index minimizing the norm-decomposed
// L2 score |c|^2 - 2<q,c> over the row-major matrix, together with that
// score and the second-best score: the smallest score of any other row
// (+Inf for a one-row matrix; NaN scores are passed over). The query's
// own norm is a rank-invariant constant and is omitted; the true squared
// distance of the winner is qnorm + score (clamped at zero against
// rounding). norms must hold RowNorms(rows). It panics if rows is empty
// or not a multiple of dim. Ties go to the lowest index; a NaN score
// never wins unless it is row 0's.
func ArgminNormScore(q, rows, norms []float32, dim int) (best int, score, second float32) {
	if dim <= 0 || len(rows) == 0 || len(rows)%dim != 0 {
		panic("vecmath: ArgminNormScore on empty or ragged matrix")
	}
	best = -1
	score, second = float32(math.Inf(1)), float32(math.Inf(1))
	var dots [scoreBlock]float32
	for base := 0; base*dim < len(rows); base += scoreBlock {
		for j, dot := range dotBlock(q, rows, dim, base, &dots) {
			s := norms[base+j] - 2*dot
			if best < 0 || s < score {
				best, score, second = base+j, s, score
			} else if s < second {
				second = s
			}
		}
	}
	return best, score, second
}

// Neighbor is one search result: an item index and its distance to the
// query. Smaller distance means more similar under L2.
type Neighbor struct {
	Index int
	Dist  float32
}

// TopK maintains the k smallest-distance neighbors seen so far using a
// bounded max-heap. The heap is hand-rolled over []Neighbor — no
// container/heap interface{} boxing — so pushes never allocate once the
// backing array reaches capacity k. The zero value is not usable;
// construct with NewTopK or call Reset.
//
// The sift rules replicate container/heap's exactly (right child
// preferred only when strictly greater, sift stops on equality), so
// result ordering — including ties — is bit-identical to the previous
// container/heap implementation.
type TopK struct {
	k int
	h []Neighbor
}

// NewTopK returns a collector for the k nearest neighbors.
func NewTopK(k int) *TopK {
	t := &TopK{}
	t.Reset(k)
	return t
}

// Reset empties the collector and re-arms it for k neighbors, keeping
// the backing array so steady-state reuse performs no allocations.
func (t *TopK) Reset(k int) {
	if k <= 0 {
		panic("vecmath: TopK with non-positive k")
	}
	t.k = k
	if cap(t.h) < k {
		t.h = make([]Neighbor, 0, k)
	} else {
		t.h = t.h[:0]
	}
}

// Push offers a candidate. It is kept only if it beats the current k-th
// best (or the collector is not yet full).
func (t *TopK) Push(index int, dist float32) {
	if len(t.h) < t.k {
		t.h = append(t.h, Neighbor{Index: index, Dist: dist})
		t.up(len(t.h) - 1)
		return
	}
	if dist < t.h[0].Dist {
		t.h[0] = Neighbor{Index: index, Dist: dist}
		t.down(0, len(t.h))
	}
}

func (t *TopK) up(j int) {
	h := t.h
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].Dist > h[i].Dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (t *TopK) down(i0, n int) {
	h := t.h
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].Dist > h[j1].Dist {
			j = j2
		}
		if !(h[j].Dist > h[i].Dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Worst returns the current k-th best distance, or +Inf semantics via
// ok=false when fewer than k candidates have been pushed. Scan loops
// use it as the early-abandon bound.
func (t *TopK) Worst() (float32, bool) {
	if len(t.h) < t.k {
		return 0, false
	}
	return t.h[0].Dist, true
}

// Len reports how many neighbors are currently held (≤ k).
func (t *TopK) Len() int { return len(t.h) }

// AppendSorted drains the collector, appending its neighbors to dst in
// ascending distance order, and returns the extended slice. With a dst
// of sufficient capacity the drain performs no allocations; the
// collector is empty afterwards (the backing array is retained for the
// next Reset/Push cycle).
func (t *TopK) AppendSorted(dst []Neighbor) []Neighbor {
	// In-place heapsort: repeatedly swap the max to the end and re-sift,
	// which performs the identical swap sequence to container/heap.Pop
	// drains and leaves h ascending.
	h := t.h
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		t.down(0, end)
	}
	dst = append(dst, h...)
	t.h = h[:0]
	return dst
}

// BruteForceTopK scans the whole row-major matrix and returns the k
// nearest rows to q in ascending distance order. It is the ground truth
// used to validate the approximate index in tests and to compute
// recall, so it keeps the exact subtract-square distance; repeated
// callers amortize the scan with BruteForcer.
func BruteForceTopK(q []float32, rows []float32, dim, k int) []Neighbor {
	t := NewTopK(k)
	for i := 0; i*dim < len(rows); i++ {
		t.Push(i, SquaredL2(q, rows[i*dim:(i+1)*dim]))
	}
	return t.AppendSorted(make([]Neighbor, 0, t.Len()))
}

// BruteForcer answers exact top-k queries over a fixed matrix using the
// norm decomposition: row norms are computed once at construction, so
// each query costs one dot product per row instead of a subtract-square
// scan. Not safe for concurrent use; create one per worker.
type BruteForcer struct {
	rows  []float32
	norms []float32
	dim   int
	top   TopK
}

// NewBruteForcer precomputes row norms for the row-major matrix.
func NewBruteForcer(rows []float32, dim int) *BruteForcer {
	return NewBruteForcerNorms(rows, RowNorms(rows, dim, nil), dim)
}

// NewBruteForcerNorms is NewBruteForcer for a caller that already holds
// the norms (norms[i] = Norm2(row i)) — a growing buffer that derives
// each row's norm once, as the row is appended, instead of all of them
// again after every append.
func NewBruteForcerNorms(rows, norms []float32, dim int) *BruteForcer {
	return &BruteForcer{rows: rows, norms: norms, dim: dim}
}

// Clone returns a BruteForcer sharing this one's (immutable) matrix and
// precomputed norms but with its own query scratch — the way to hand
// each worker of a parallel loop its own forcer without recomputing
// norms.
func (b *BruteForcer) Clone() *BruteForcer {
	return &BruteForcer{rows: b.rows, norms: b.norms, dim: b.dim}
}

// ScanMaskedInto pushes every live row into an external collector
// under ids[i], skipping rows whose positional bit is set in dead
// (bit i of dead[i/64]; an empty bitmap masks nothing). This is the
// append-buffer scan of a live cluster: distances are reconstructed as
// the true squared L2 (qnorm + norm score, clamped at zero), so they
// merge into the same TopK as the PQ scan's approximate squared
// distances. The scan allocates nothing.
func (b *BruteForcer) ScanMaskedInto(top *TopK, q []float32, ids []int32, dead []uint64) {
	qn := Norm2(q)
	masked := len(dead) > 0
	var dots [scoreBlock]float32
	for base := 0; base*b.dim < len(b.rows); base += scoreBlock {
		for j, dot := range dotBlock(q, b.rows, b.dim, base, &dots) {
			i := base + j
			if masked && dead[uint(i)>>6]&(1<<(uint(i)&63)) != 0 {
				continue
			}
			d := qn + b.norms[i] - 2*dot
			if d < 0 {
				d = 0
			}
			top.Push(int(ids[i]), d)
		}
	}
}

// AppendTopK appends the k nearest rows to q (ascending distance) to
// dst and returns it. Neighbor distances are reconstructed as
// qnorm + score, clamped at zero; with a dst of sufficient capacity the
// query performs no allocations.
func (b *BruteForcer) AppendTopK(dst []Neighbor, q []float32, k int) []Neighbor {
	b.top.Reset(k)
	var dots [scoreBlock]float32
	for base := 0; base*b.dim < len(b.rows); base += scoreBlock {
		for j, dot := range dotBlock(q, b.rows, b.dim, base, &dots) {
			b.top.Push(base+j, b.norms[base+j]-2*dot)
		}
	}
	base := len(dst)
	dst = b.top.AppendSorted(dst)
	qn := Norm2(q)
	for i := base; i < len(dst); i++ {
		d := qn + dst[i].Dist
		if d < 0 {
			d = 0
		}
		dst[i].Dist = d
	}
	return dst
}
