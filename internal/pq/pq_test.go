package pq

import (
	"math"
	"testing"

	"vectorliterag/internal/rng"
	"vectorliterag/internal/vecmath"
)

func randomMatrix(r *rng.Rand, n, dim int) []float32 {
	m := make([]float32, n*dim)
	for i := range m {
		m[i] = float32(r.NormFloat64())
	}
	return m
}

// positional returns the IDs 0..n-1, so a scan pushes each candidate
// under its position in the code block.
func positional(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

func trainSmall(t *testing.T, r *rng.Rand, n, dim, m, k int) (*Quantizer, []float32) {
	t.Helper()
	data := randomMatrix(r, n, dim)
	q, err := Train(data, Config{Dim: dim, M: m, K: k, Iters: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return q, data
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train([]float32{1, 2, 3, 4}, Config{Dim: 4, M: 3, K: 2}); err == nil {
		t.Fatal("M not dividing dim accepted")
	}
	if _, err := Train(nil, Config{Dim: 4, M: 2, K: 2}); err == nil {
		t.Fatal("empty training data accepted")
	}
	if _, err := Train([]float32{1, 2, 3, 4}, Config{Dim: 4, M: 2, K: 16}); err == nil {
		t.Fatal("fewer vectors than codewords accepted")
	}
	// A code is one byte per subspace and a LUT row 256 entries: K=257
	// used to train, then truncate codeword indices in Encode and spill
	// LUT entries into the next subspace's row.
	r := rng.New(1)
	big := randomMatrix(r, 300, 4)
	for _, k := range []int{257, 512, -1} {
		if _, err := Train(big, Config{Dim: 4, M: 2, K: k, Iters: 1}); err == nil {
			t.Fatalf("K=%d accepted", k)
		}
	}
	if q, err := Train(big, Config{Dim: 4, M: 2, K: 256, Iters: 1}); err != nil || q.K != 256 {
		t.Fatalf("K=256 rejected: %v", err)
	}
}

func TestEncodeDecodeReducesError(t *testing.T) {
	r := rng.New(1)
	q, data := trainSmall(t, r, 600, 8, 4, 32)
	// Reconstruction error must be far below the raw signal energy.
	var errSum, sigSum float64
	for i := 0; i < 100; i++ {
		v := data[i*8 : (i+1)*8]
		rec := q.Decode(q.Encode(v, nil))
		errSum += float64(vecmath.SquaredL2(v, rec))
		sigSum += float64(vecmath.Norm2(v))
	}
	if ratio := errSum / sigSum; ratio > 0.5 {
		t.Fatalf("reconstruction error ratio %v too high", ratio)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	r := rng.New(2)
	q, data := trainSmall(t, r, 400, 8, 2, 16)
	v := data[:8]
	a := q.Encode(v, nil)
	b := q.Encode(v, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("encode not deterministic")
		}
	}
}

func TestLUTDistanceMatchesDecodedDistance(t *testing.T) {
	// ADC invariant: LUT-accumulated distance == distance from query to
	// the decoded (reconstructed) vector, because subspaces are
	// orthogonal partitions of the coordinates.
	r := rng.New(3)
	q, data := trainSmall(t, r, 500, 8, 4, 16)
	query := randomMatrix(r, 1, 8)
	lut := q.BuildLUT(query)
	for i := 0; i < 50; i++ {
		v := data[i*8 : (i+1)*8]
		code := q.Encode(v, nil)
		adc := float64(lut.Distance(code))
		exact := float64(vecmath.SquaredL2(query, q.Decode(code)))
		if math.Abs(adc-exact) > 1e-3 {
			t.Fatalf("vector %d: ADC %v != decoded distance %v", i, adc, exact)
		}
	}
}

func TestScanCodesFindsNearest(t *testing.T) {
	r := rng.New(4)
	q, data := trainSmall(t, r, 800, 8, 4, 32)
	n := 200
	codes := make([]byte, 0, n*q.CodeSize())
	for i := 0; i < n; i++ {
		codes = append(codes, q.Encode(data[i*8:(i+1)*8], nil)...)
	}
	// Query very close to vector 17.
	query := append([]float32(nil), data[17*8:18*8]...)
	lut := q.BuildLUT(query)
	top := vecmath.NewTopK(5)
	lut.ScanCodesIDs(codes, positional(n), top)
	res := top.Sorted()
	found := false
	for _, nb := range res {
		if nb.Index == 17 {
			found = true
		}
	}
	if !found {
		t.Fatalf("self vector not in top-5 under ADC: %+v", res)
	}
}

func TestCodeSize(t *testing.T) {
	r := rng.New(6)
	q, _ := trainSmall(t, r, 400, 8, 4, 16)
	if q.CodeSize() != 4 {
		t.Fatalf("CodeSize = %d, want 4", q.CodeSize())
	}
}

func TestEncodePanicsOnWrongDim(t *testing.T) {
	r := rng.New(7)
	q, _ := trainSmall(t, r, 400, 8, 2, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("Encode with wrong dim did not panic")
		}
	}()
	q.Encode(make([]float32, 5), nil)
}

func TestPQRecallOnClusteredData(t *testing.T) {
	// On clustered data (the realistic case), top-10 ADC search must
	// recall a majority of the true top-10.
	r := rng.New(8)
	const dim, nCenters, perCenter = 16, 8, 100
	centers := randomMatrix(r, nCenters, dim)
	for i := range centers {
		centers[i] *= 5
	}
	n := nCenters * perCenter
	data := make([]float32, n*dim)
	for c := 0; c < nCenters; c++ {
		for i := 0; i < perCenter; i++ {
			row := (c*perCenter + i) * dim
			for d := 0; d < dim; d++ {
				data[row+d] = centers[c*dim+d] + float32(r.NormFloat64())*0.5
			}
		}
	}
	q, err := Train(data, Config{Dim: dim, M: 8, K: 64, Iters: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	codes := make([]byte, 0, n*q.CodeSize())
	for i := 0; i < n; i++ {
		codes = append(codes, q.Encode(data[i*dim:(i+1)*dim], nil)...)
	}
	ids := positional(n)
	recallSum := 0.0
	const queries = 20
	for qi := 0; qi < queries; qi++ {
		query := make([]float32, dim)
		base := r.Intn(n) * dim
		for d := 0; d < dim; d++ {
			query[d] = data[base+d] + float32(r.NormFloat64())*0.1
		}
		truth := vecmath.BruteForceTopK(query, data, dim, 10)
		lut := q.BuildLUT(query)
		top := vecmath.NewTopK(10)
		lut.ScanCodesIDs(codes, ids, top)
		got := top.Sorted()
		gotSet := map[int]bool{}
		for _, nb := range got {
			gotSet[nb.Index] = true
		}
		hit := 0
		for _, nb := range truth {
			if gotSet[nb.Index] {
				hit++
			}
		}
		recallSum += float64(hit) / 10
	}
	if recall := recallSum / queries; recall < 0.6 {
		t.Fatalf("PQ top-10 recall %v too low", recall)
	}
}

// referenceScan is the pre-optimization scan semantics: every code's
// full distance pushed in index order, no unrolling, no abandonment.
func referenceScan(lut *LUT, codes []byte, ids []int32, top *vecmath.TopK) {
	cs := lut.M
	for i := 0; i*cs < len(codes); i++ {
		top.Push(int(ids[i]), lut.Distance(codes[i*cs:(i+1)*cs]))
	}
}

// TestScanCodesIDsMatchesReference asserts that early abandonment and
// the unrolled/specialized loops never change the selected top-k: for
// both the generic path and the M=8 fast path, across k values and
// pre-seeded collector states, results are bit-identical to pushing
// every full distance.
func TestScanCodesIDsMatchesReference(t *testing.T) {
	r := rng.New(11)
	for _, m := range []int{4, 8, 16} {
		q, data := trainSmall(t, r, 600, 16, m, 32)
		n := 300
		codes := make([]byte, 0, n*q.CodeSize())
		ids := make([]int32, n)
		for i := 0; i < n; i++ {
			codes = append(codes, q.Encode(data[(i%600)*16:(i%600)*16+16], nil)...)
			ids[i] = int32(1000 + i)
		}
		query := randomMatrix(r, 1, 16)
		lut := q.BuildLUT(query)
		for _, k := range []int{1, 3, 25, 299, 400} {
			got := vecmath.NewTopK(k)
			want := vecmath.NewTopK(k)
			// Pre-seed both collectors identically so the scan starts
			// from a partially full heap, as multi-cluster search does.
			for i := 0; i < 5; i++ {
				d := float32(r.Float64() * 50)
				got.Push(i, d)
				want.Push(i, d)
			}
			lut.ScanCodesIDs(codes, ids, got)
			referenceScan(lut, codes, ids, want)
			g, w := got.Sorted(), want.Sorted()
			if len(g) != len(w) {
				t.Fatalf("M=%d k=%d: lengths differ %d vs %d", m, k, len(g), len(w))
			}
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("M=%d k=%d rank %d: %+v vs reference %+v", m, k, i, g[i], w[i])
				}
			}
		}
	}
}

// TestBuildLUTIntoReusesBuffer pins buffer reuse and value stability
// across rebuilds on one scratch LUT.
func TestBuildLUTIntoReusesBuffer(t *testing.T) {
	r := rng.New(13)
	q, data := trainSmall(t, r, 400, 8, 4, 16)
	var lut LUT
	q.BuildLUTInto(data[:8], &lut)
	first := q.BuildLUT(data[:8])
	code := q.Encode(data[8:16], nil)
	if lut.Distance(code) != first.Distance(code) {
		t.Fatal("BuildLUTInto differs from BuildLUT")
	}
	// Rebuild for a second query on the same struct: values must match a
	// fresh table, with no stale-entry leakage.
	q.BuildLUTInto(data[16:24], &lut)
	fresh := q.BuildLUT(data[16:24])
	if lut.Distance(code) != fresh.Distance(code) {
		t.Fatal("reused LUT differs from fresh LUT")
	}
	if allocs := testing.AllocsPerRun(50, func() {
		q.BuildLUTInto(data[:8], &lut)
	}); allocs != 0 {
		t.Fatalf("BuildLUTInto allocates %.1f objects on a warm LUT", allocs)
	}
}

// TestBuildLUTMatchesPerEntryFormula pins every LUT entry, bit for bit,
// to the per-codeword expression qn - 2*Dot(q_m, c) + |c|^2 clamped at
// zero, for the hand-unrolled sub-vector width 4, the generic arm on
// the blocked kernel (8), and widths and codebook sizes that leave
// remainder rows and remainder terms (3 with K=30, 5 with K=7).
func TestBuildLUTMatchesPerEntryFormula(t *testing.T) {
	r := rng.New(14)
	for _, tc := range []struct{ dim, m, k int }{{32, 8, 64}, {64, 8, 64}, {12, 4, 30}, {10, 2, 7}} {
		q, data := trainSmall(t, r, 300, tc.dim, tc.m, tc.k)
		sd := tc.dim / tc.m
		var lut LUT
		for trial := 0; trial < 5; trial++ {
			v := data[trial*tc.dim : (trial+1)*tc.dim]
			q.BuildLUTInto(v, &lut)
			for m := 0; m < tc.m; m++ {
				qSub := v[m*sd : (m+1)*sd]
				qn := vecmath.Norm2(qSub)
				for j := 0; j < tc.k; j++ {
					want := qn - 2*vecmath.Dot(qSub, q.codebooks[m][j*sd:(j+1)*sd]) + q.cbNorms[m][j]
					if want < 0 {
						want = 0
					}
					if got := lut.tab[m*lutStride+j]; math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("dim %d sd %d: entry (%d,%d) = %v, per-entry formula %v", tc.dim, sd, m, j, got, want)
					}
				}
			}
		}
	}
}
