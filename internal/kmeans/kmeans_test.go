package kmeans

import (
	"math"
	"testing"

	"vectorliterag/internal/rng"
	"vectorliterag/internal/vecmath"
)

// blob generates n points around each of the given centers with the
// given spread.
func blob(r *rng.Rand, centers [][]float32, nPer int, spread float64) []float32 {
	dim := len(centers[0])
	out := make([]float32, 0, len(centers)*nPer*dim)
	for _, c := range centers {
		for i := 0; i < nPer; i++ {
			for d := 0; d < dim; d++ {
				out = append(out, c[d]+float32(r.NormFloat64()*spread))
			}
		}
	}
	return out
}

func TestTrainRecoversWellSeparatedClusters(t *testing.T) {
	r := rng.New(1)
	centers := [][]float32{{0, 0}, {10, 10}, {-10, 10}}
	data := blob(r, centers, 100, 0.3)
	res, err := Train(data, Config{K: 3, Dim: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Every true center must be within 0.5 of some learned centroid.
	for _, c := range centers {
		idx, d := vecmath.ArgminL2(c, res.Centroids, 2)
		if math.Sqrt(float64(d)) > 0.5 {
			t.Fatalf("center %v not recovered; nearest centroid %d at dist %v", c, idx, math.Sqrt(float64(d)))
		}
	}
}

func TestAssignmentsConsistentWithCentroids(t *testing.T) {
	r := rng.New(2)
	data := blob(r, [][]float32{{0, 0}, {5, 5}}, 50, 0.5)
	res, err := Train(data, Config{K: 2, Dim: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data)/2; i++ {
		v := data[i*2 : (i+1)*2]
		want, _ := vecmath.ArgminL2(v, res.Centroids, 2)
		if res.Assignments[i] != want {
			t.Fatalf("vector %d assigned to %d but nearest centroid is %d", i, res.Assignments[i], want)
		}
	}
}

func TestInertiaDecreasesWithMoreClusters(t *testing.T) {
	r := rng.New(3)
	data := blob(r, [][]float32{{0, 0}, {8, 0}, {0, 8}, {8, 8}}, 60, 1.0)
	var prev float64 = math.Inf(1)
	for _, k := range []int{1, 2, 4} {
		res, err := Train(data, Config{K: k, Dim: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev {
			t.Fatalf("inertia rose from %v to %v at k=%d", prev, res.Inertia, k)
		}
		prev = res.Inertia
	}
}

func TestTrainDeterministic(t *testing.T) {
	r := rng.New(4)
	data := blob(r, [][]float32{{0, 0}, {5, 5}}, 40, 0.5)
	a, _ := Train(data, Config{K: 2, Dim: 2, Seed: 11})
	b, _ := Train(data, Config{K: 2, Dim: 2, Seed: 11})
	for i := range a.Centroids {
		if a.Centroids[i] != b.Centroids[i] {
			t.Fatal("same seed produced different centroids")
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train([]float32{1, 2, 3}, Config{K: 1, Dim: 2}); err == nil {
		t.Fatal("ragged data accepted")
	}
	if _, err := Train([]float32{1, 2}, Config{K: 2, Dim: 2}); err == nil {
		t.Fatal("fewer vectors than centroids accepted")
	}
	if _, err := Train([]float32{1, 2}, Config{K: 0, Dim: 2}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Train([]float32{1, 2}, Config{K: 1, Dim: 0}); err == nil {
		t.Fatal("dim=0 accepted")
	}
}

func TestNoEmptyClustersOnDuplicateData(t *testing.T) {
	// All-identical vectors force empty clusters; the re-seeding path
	// must still produce K centroids and valid assignments.
	data := make([]float32, 0, 20*2)
	for i := 0; i < 20; i++ {
		data = append(data, 1, 1)
	}
	res, err := Train(data, Config{K: 4, Dim: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 4*2 {
		t.Fatalf("expected 4 centroids, got %d floats", len(res.Centroids))
	}
	for _, a := range res.Assignments {
		if a < 0 || a >= 4 {
			t.Fatalf("invalid assignment %d", a)
		}
	}
}

// seedNaive is k-means++ with no bound: one SquaredL2(row, centre) per
// vector per pick.
func seedNaive(data []float32, n, dim, k int, r *rng.Rand) []float32 {
	centroids := make([]float32, k*dim)
	first := r.Intn(n)
	copy(centroids[:dim], data[first*dim:(first+1)*dim])
	d2 := make([]float64, n)
	for c := 1; c < k; c++ {
		prev := centroids[(c-1)*dim : c*dim]
		total := 0.0
		for i := range d2 {
			d := float64(vecmath.SquaredL2(data[i*dim:(i+1)*dim], prev))
			if c == 1 || d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		pick := n - 1
		if total <= 0 {
			pick = r.Intn(n)
		} else {
			target, cum := r.Float64()*total, 0.0
			for i, d := range d2 {
				if cum += d; cum >= target {
					pick = i
					break
				}
			}
		}
		copy(centroids[c*dim:(c+1)*dim], data[pick*dim:(pick+1)*dim])
	}
	return centroids
}

// trainNaive is Train with no bound: seedNaive, then Lloyd with a full
// ArgminNormScore scan of every vector in every pass. The pruned Train
// must match it bit for bit.
func trainNaive(data []float32, cfg Config) *Result {
	dim, k := cfg.Dim, cfg.K
	n := len(data) / dim
	iters := cfg.MaxIters
	if iters <= 0 {
		iters = 15
	}
	r := rng.New(cfg.Seed)
	centroids := seedNaive(data, n, dim, k, r)
	assign := make([]int, n)
	dists := make([]float32, n)
	counts := make([]int, k)
	dataNorms := vecmath.RowNorms(data, dim, nil)
	centNorms := make([]float32, k)
	assignAll := func() {
		vecmath.RowNorms(centroids, dim, centNorms)
		for i := 0; i < n; i++ {
			j, score, _ := vecmath.ArgminNormScore(data[i*dim:(i+1)*dim], centroids, centNorms, dim)
			assign[i] = j
			d := dataNorms[i] + score
			if d < 0 {
				d = 0
			}
			dists[i] = d
		}
	}
	for iter := 0; iter < iters; iter++ {
		assignAll()
		next := make([]float32, len(centroids))
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			vecmath.Add(next[c*dim:(c+1)*dim], data[i*dim:(i+1)*dim])
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				i := r.Intn(n)
				copy(next[c*dim:(c+1)*dim], data[i*dim:(i+1)*dim])
				continue
			}
			vecmath.Scale(next[c*dim:(c+1)*dim], 1/float32(counts[c]))
		}
		centroids = next
	}
	assignAll()
	inertia := 0.0
	for i := 0; i < n; i++ {
		inertia += float64(dists[i])
	}
	return &Result{Centroids: centroids, Assignments: assign, Inertia: inertia}
}

// TestSeedPlusPlusMatchesPerRowReference pins the pruned, blocked
// seeding pass to the per-row loop on the same generator state:
// identical picks, in order, for sizes that leave remainder rows and
// partial blocks, at any worker count.
func TestSeedPlusPlusMatchesPerRowReference(t *testing.T) {
	for _, tc := range []struct{ n, dim, k int }{{50, 3, 7}, {130, 8, 16}, {333, 64, 12}} {
		data := trainData(tc.n, tc.dim, uint64(tc.n))
		// Duplicated rows make zero distances and ties in the draw.
		copy(data[tc.dim:2*tc.dim], data[:tc.dim])
		want := seedNaive(data, tc.n, tc.dim, tc.k, rng.New(9))
		for _, workers := range []int{1, 3} {
			got, _, _ := seedPlusPlus(data, rowNorms64(data, tc.dim), tc.dim, tc.k, workers, rng.New(9), newMargin(tc.dim))
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n %d dim %d workers %d: seed centroid %d differs from the per-row reference", tc.n, tc.dim, workers, i/tc.dim)
				}
			}
		}
	}
}

// mixture returns centers x per rows of dim-d data: Gaussian blobs of
// unit spread around centres spread by 6, the shape the index trains on.
func mixture(centers, per, dim int, seed uint64) []float32 {
	r := rng.New(seed)
	cs := make([]float32, centers*dim)
	for i := range cs {
		cs[i] = float32(r.NormFloat64() * 6)
	}
	out := make([]float32, 0, centers*per*dim)
	for c := 0; c < centers; c++ {
		for i := 0; i < per; i++ {
			for d := 0; d < dim; d++ {
				out = append(out, cs[c*dim+d]+float32(r.NormFloat64()))
			}
		}
	}
	return out
}

// TestTrainMatchesNaive is the differential check of the pruned loops:
// centroids, assignments and inertia bit-equal to trainNaive at every
// worker count, on the build's two shapes, the degenerate K, exact
// ties, forced empty-cluster reseeds, extreme scales and non-finite
// entries. Where the data admits it the bounds must actually skip work,
// or the check would pass vacuously.
func TestTrainMatchesNaive(t *testing.T) {
	scaled := func(data []float32, s float32) []float32 {
		for i := range data {
			data[i] *= s
		}
		return data
	}
	// dup repeats each of the first rows of data over the whole matrix.
	dup := func(data []float32, dim, distinct int) []float32 {
		for i := distinct * dim; i < len(data); i++ {
			data[i] = data[i%(distinct*dim)]
		}
		return data
	}
	poke := func(data []float32, vals map[int]float32) []float32 {
		for i, v := range vals {
			data[i] = v
		}
		return data
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	identical := make([]float32, 64*8)
	for i := range identical {
		identical[i] = float32(i%8) - 3.5
	}
	for _, tc := range []struct {
		name     string
		data     []float32
		dim, k   int
		mustSkip bool
	}{
		{"coarse 128 x 64-d", mixture(32, 32, 64, 1), 64, 128, true},
		{"subspace 64 x 8-d", mixture(64, 32, 8, 2), 8, 64, true},
		{"gaussian subspace", trainData(2048, 8, 3), 8, 64, true},
		{"k=1", mixture(8, 40, 8, 4), 8, 1, true},
		{"k=n", mixture(5, 10, 4, 5), 4, 50, false},
		{"duplicate rows", dup(mixture(16, 32, 8, 6), 8, 48), 8, 32, true},
		{"all identical (reseeds)", identical, 8, 4, false},
		{"few distinct rows (reseeds)", dup(trainData(96, 8, 7), 8, 6), 8, 12, false},
		// At 1e18 a unit-spread 8-d row still leaves every score finite,
		// so the bounds run; the 64-d blobs could overflow a float32 score
		// and must always scan.
		{"scaled 1e18 8-d", scaled(trainData(1024, 8, 8), 1e18), 8, 64, true},
		{"scaled 1e18 64-d", scaled(mixture(16, 32, 64, 9), 1e18), 64, 64, false},
		{"scaled 1e-20 8-d", scaled(mixture(32, 32, 8, 10), 1e-20), 8, 64, true},
		{"scaled 1e-20 64-d", scaled(mixture(16, 32, 64, 11), 1e-20), 64, 64, true},
		// Deep in the float32 subnormals every product rounds to a few
		// ulps of 2⁻¹⁴⁹: only the margin's underflow term stops a skip
		// here (with E = 0, or without that term, this case fails).
		{"scaled 1e-23 8-d", scaled(mixture(32, 32, 8, 10), 1e-23), 8, 64, false},
		{"nan entry", poke(mixture(16, 32, 8, 12), map[int]float32{8*100 + 3: nan}), 8, 32, false},
		{"inf entries", poke(mixture(16, 32, 8, 13), map[int]float32{8*7 + 1: inf, 8*300 + 5: -inf}), 8, 32, false},
	} {
		cfg := Config{K: tc.k, Dim: tc.dim, MaxIters: 8, Seed: 21}
		want := trainNaive(tc.data, cfg)
		for _, workers := range []int{1, 2, 3, 8} {
			cfg.Workers = workers
			got, sk, err := train(tc.data, cfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for i := range want.Centroids {
				if math.Float32bits(got.Centroids[i]) != math.Float32bits(want.Centroids[i]) {
					t.Fatalf("%s, workers %d: centroid %d coordinate %d is %x, naive %x", tc.name, workers,
						i/tc.dim, i%tc.dim, math.Float32bits(got.Centroids[i]), math.Float32bits(want.Centroids[i]))
				}
			}
			for i := range want.Assignments {
				if got.Assignments[i] != want.Assignments[i] {
					t.Fatalf("%s, workers %d: vector %d assigned %d, naive %d", tc.name, workers, i, got.Assignments[i], want.Assignments[i])
				}
			}
			if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
				t.Fatalf("%s, workers %d: inertia %v, naive %v", tc.name, workers, got.Inertia, want.Inertia)
			}
			if workers == 1 {
				n := len(tc.data) / tc.dim
				t.Logf("%s: skipped %.2f of seeding and %.2f of Lloyd-pass distances", tc.name,
					float64(sk.seed)/float64(max(1, (tc.k-1)*n)), float64(sk.assign)/float64((cfg.MaxIters+1)*n))
			}
			// K = 1 has no pick after the first to skip.
			if tc.mustSkip && (sk.assign == 0 || tc.k > 1 && sk.seed == 0) {
				t.Fatalf("%s, workers %d: bounds skipped %d seeding and %d assignment distances", tc.name, workers, sk.seed, sk.assign)
			}
		}
	}
}

// TestFirstPassStartsFromSeeding: the first Lloyd pass starts from the
// seeding's nearest picks, so on a blob corpus the bound already vouches
// for most points before any centroid has moved (a pass that scanned
// every point would count zero), and the result stays the naive one.
func TestFirstPassStartsFromSeeding(t *testing.T) {
	data := mixture(32, 64, 32, 14)
	cfg := Config{K: 32, Dim: 32, MaxIters: 4, Seed: 3}
	want := trainNaive(data, cfg)
	for _, workers := range []int{1, 3} {
		cfg.Workers = workers
		got, sk, err := train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(len(data) / cfg.Dim)
		if sk.first <= n/2 || sk.first > sk.assign {
			t.Fatalf("workers %d: the first pass skipped %d of %d points (%d over all passes)", workers, sk.first, n, sk.assign)
		}
		for i := range want.Assignments {
			if got.Assignments[i] != want.Assignments[i] {
				t.Fatalf("workers %d: vector %d assigned %d, naive %d", workers, i, got.Assignments[i], want.Assignments[i])
			}
		}
		if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
			t.Fatalf("workers %d: inertia %v, naive %v", workers, got.Inertia, want.Inertia)
		}
	}
}
