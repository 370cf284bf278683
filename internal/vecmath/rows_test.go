package vecmath

import (
	"math"
	"testing"

	"vectorliterag/internal/rng"
)

// specials are the float32 values a rounding or ordering slip shows on:
// signed zeros, denormals, the largest finite value, infinities, NaN.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), -math.Float32frombits(0x007fffff),
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// fillMixed fills dst with Gaussian values, every eighth one (on
// average) replaced by a special when withSpecials is set.
func fillMixed(r *rng.Rand, dst []float32, withSpecials bool) {
	for i := range dst {
		dst[i] = float32(r.NormFloat64())
		if withSpecials && r.Intn(8) == 0 {
			dst[i] = specials[r.Intn(len(specials))]
		}
	}
}

// sameBits is math.Float32bits equality, with every NaN equal to every
// other. Which NaN comes out of NaN+NaN (a propagated 0x7fc00000 against
// the 0xffc00000 of Inf*0, say) is the first operand's on amd64, and
// which operand of a commutative add is first is the register
// allocator's choice: Dot and the four-row loop do return differently
// signed NaNs for the same row. Nothing downstream can see it — a NaN
// score loses every comparison whatever its payload.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (math.IsNaN(float64(a)) && math.IsNaN(float64(b)))
}

// rowsShapes is dims 1–67 × row counts 0–9, 128, 131: every remainder
// of the four-row step and of Dot's own four-term unroll.
func rowsShapes(f func(dim, n int)) {
	for dim := 1; dim <= 67; dim++ {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 128, 131} {
			f(dim, n)
		}
	}
}

// TestDotRowsMatchesDot: every output of the blocked kernel is the bits
// Dot returns for that row, with and without special values in both
// operands.
func TestDotRowsMatchesDot(t *testing.T) {
	r := rng.New(31)
	for _, withSpecials := range []bool{false, true} {
		rowsShapes(func(dim, n int) {
			q := make([]float32, dim)
			rows := make([]float32, n*dim)
			fillMixed(r, q, withSpecials)
			fillMixed(r, rows, withSpecials)
			out := make([]float32, n)
			DotRows(q, rows, dim, out)
			for i, got := range out {
				if want := Dot(q, rows[i*dim:(i+1)*dim]); !sameBits(got, want) {
					t.Fatalf("dim %d rows %d row %d: DotRows %x (%v), Dot %x (%v)", dim, n, i,
						math.Float32bits(got), got, math.Float32bits(want), want)
				}
			}
		})
	}
}

// TestSquaredL2RowsMatchesSquaredL2 is the same contract for the
// subtract-square twin, in both argument orders (the k-means++ seeder
// passes the centre where SquaredL2 used to take the data row).
func TestSquaredL2RowsMatchesSquaredL2(t *testing.T) {
	r := rng.New(32)
	for _, withSpecials := range []bool{false, true} {
		rowsShapes(func(dim, n int) {
			q := make([]float32, dim)
			rows := make([]float32, n*dim)
			fillMixed(r, q, withSpecials)
			fillMixed(r, rows, withSpecials)
			out := make([]float32, n)
			SquaredL2Rows(q, rows, dim, out)
			for i, got := range out {
				row := rows[i*dim : (i+1)*dim]
				if want, swapped := SquaredL2(q, row), SquaredL2(row, q); !sameBits(got, want) || !sameBits(got, swapped) {
					t.Fatalf("dim %d rows %d row %d: SquaredL2Rows %v, SquaredL2 %v / %v", dim, n, i, got, want, swapped)
				}
			}
		})
	}
}

func TestRowsKernelsPanicOnBadShape(t *testing.T) {
	for name, f := range map[string]func(){
		"DotRows zero dim":         func() { DotRows(nil, nil, 0, nil) },
		"DotRows negative dim":     func() { DotRows(nil, nil, -1, nil) },
		"DotRows short query":      func() { DotRows([]float32{1}, []float32{1, 2}, 2, make([]float32, 1)) },
		"DotRows ragged rows":      func() { DotRows([]float32{1, 2}, []float32{1, 2, 3}, 2, make([]float32, 1)) },
		"DotRows short out":        func() { DotRows([]float32{1, 2}, []float32{1, 2, 3, 4}, 2, make([]float32, 1)) },
		"SquaredL2Rows zero dim":   func() { SquaredL2Rows(nil, nil, 0, nil) },
		"SquaredL2Rows short out":  func() { SquaredL2Rows([]float32{1}, []float32{1, 2}, 1, make([]float32, 1)) },
		"ArgminNormScore zero dim": func() { ArgminNormScore(nil, []float32{1}, []float32{1}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// naiveArgminNormScore is ArgminNormScore as it was before the blocked
// kernel: one Dot per row, strict less-than, lowest index wins a tie —
// plus the second-best score, the minimum over every other row's
// non-NaN score (+Inf when there is none).
func naiveArgminNormScore(q, rows, norms []float32, dim int) (int, float32, float32) {
	n := len(rows) / dim
	scores := make([]float32, n)
	best := -1
	for i := range scores {
		scores[i] = norms[i] - 2*Dot(q, rows[i*dim:(i+1)*dim])
		if best < 0 || scores[i] < scores[best] {
			best = i
		}
	}
	second := float32(math.Inf(1))
	for i, s := range scores {
		if i != best && s < second {
			second = s
		}
	}
	return best, scores[best], second
}

// TestArgminNormScoreMatchesNaive: same (index, score bits, second-best
// bits) as the per-row Dot loop — across block boundaries, with exact
// ties (duplicated rows: the lowest index must win, and the second-best
// equals the best) and with NaN scores (which never displace a winner,
// and stay the answer only from row 0).
func TestArgminNormScoreMatchesNaive(t *testing.T) {
	r := rng.New(33)
	check := func(label string, q, rows, norms []float32, dim int) {
		t.Helper()
		wi, ws, w2 := naiveArgminNormScore(q, rows, norms, dim)
		gi, gs, g2 := ArgminNormScore(q, rows, norms, dim)
		if gi != wi || !sameBits(gs, ws) || !sameBits(g2, w2) {
			t.Fatalf("%s: got (%d, %x, %x), naive (%d, %x, %x)", label,
				gi, math.Float32bits(gs), math.Float32bits(g2), wi, math.Float32bits(ws), math.Float32bits(w2))
		}
	}
	for _, dim := range []int{1, 4, 8, 13, 64} {
		for _, n := range []int{1, 3, 4, 63, 64, 65, 128, 131, 200} {
			q := make([]float32, dim)
			rows := make([]float32, n*dim)
			fillMixed(r, q, false)
			fillMixed(r, rows, false)
			norms := RowNorms(rows, dim, nil)
			check("gaussian", q, rows, norms, dim)

			// Exact ties: the winner's row copied over a later row in
			// another block and over an earlier one.
			win, _, _ := naiveArgminNormScore(q, rows, norms, dim)
			for _, dup := range []int{n - 1, 0, n / 2} {
				copy(rows[dup*dim:(dup+1)*dim], rows[win*dim:(win+1)*dim])
				norms[dup] = norms[win]
			}
			check("ties", q, rows, norms, dim)

			// NaN scores: a NaN row in the middle, then in row 0.
			rows[(n/2)*dim] = float32(math.NaN())
			check("nan mid", q, rows, norms, dim)
			rows[0] = float32(math.NaN())
			check("nan first", q, rows, norms, dim)
			norms[n-1] = float32(math.Inf(-1))
			check("-inf norm", q, rows, norms, dim)
		}
	}
	// All rows identical: index 0.
	rows := make([]float32, 130*4)
	for i := range rows {
		rows[i] = float32(i%4) + 1
	}
	if i, _, _ := ArgminNormScore(rows[:4], rows, RowNorms(rows, 4, nil), 4); i != 0 {
		t.Fatalf("all rows tied: winner %d, want 0", i)
	}
}

// TestArgminNormScoreNoAllocs: the blocked scans keep their products in
// a stack array.
func TestArgminNormScoreNoAllocs(t *testing.T) {
	r := rng.New(34)
	const dim, n = 8, 200
	rows := make([]float32, n*dim)
	fillMixed(r, rows, false)
	norms := RowNorms(rows, dim, nil)
	bf := NewBruteForcer(rows, dim)
	ids := make([]int32, n)
	dead := []uint64{1 << 3, 0, 1, 0}
	top := NewTopK(5)
	q := rows[:dim]
	if allocs := testing.AllocsPerRun(50, func() {
		ArgminNormScore(q, rows, norms, dim)
		top.Reset(5)
		bf.ScanMaskedInto(top, q, ids, dead)
	}); allocs != 0 {
		t.Fatalf("ArgminNormScore + ScanMaskedInto allocate %.1f objects per call", allocs)
	}
}

// TestScanMaskedIntoMatchesNaive pins the append-buffer scan to the
// per-row formula: every live row pushed once, in row order, with the
// distance qnorm + norm - 2*Dot clamped at zero; masked rows skipped.
func TestScanMaskedIntoMatchesNaive(t *testing.T) {
	r := rng.New(35)
	for _, n := range []int{1, 5, 64, 70, 131} {
		const dim = 12
		rows := make([]float32, n*dim)
		fillMixed(r, rows, false)
		q := make([]float32, dim)
		fillMixed(r, q, false)
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(1000 + i)
		}
		dead := make([]uint64, (n+63)/64)
		for i := 0; i < n; i += 3 {
			dead[i>>6] |= 1 << (uint(i) & 63)
		}
		bf := NewBruteForcer(rows, dim)
		for _, mask := range [][]uint64{nil, dead} {
			want := NewTopK(n)
			qn := Norm2(q)
			for i := 0; i < n; i++ {
				if len(mask) > 0 && mask[i>>6]&(1<<(uint(i)&63)) != 0 {
					continue
				}
				d := qn + Norm2(rows[i*dim:(i+1)*dim]) - 2*Dot(q, rows[i*dim:(i+1)*dim])
				if d < 0 {
					d = 0
				}
				want.Push(int(ids[i]), d)
			}
			got := NewTopK(n)
			bf.ScanMaskedInto(got, q, ids, mask)
			w, g := want.Sorted(), got.Sorted()
			if len(w) != len(g) {
				t.Fatalf("n %d: %d rows pushed, want %d", n, len(g), len(w))
			}
			for i := range w {
				if g[i].Index != w[i].Index || !sameBits(g[i].Dist, w[i].Dist) {
					t.Fatalf("n %d rank %d: got %+v want %+v", n, i, g[i], w[i])
				}
			}
		}
	}
}
