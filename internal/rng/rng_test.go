package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(13)
	const buckets = 10
	const draws = 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Fatalf("bucket %d count %d deviates >5%% from %v", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(19)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestPoissonMeanSmall(t *testing.T) {
	testPoissonMean(t, 4.5)
}

func TestPoissonMeanLarge(t *testing.T) {
	testPoissonMean(t, 120)
}

func testPoissonMean(t *testing.T, mean float64) {
	t.Helper()
	r := New(23)
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(r.Poisson(mean))
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("Poisson(%v) sample mean = %v", mean, got)
	}
}

func TestPoissonZeroMean(t *testing.T) {
	r := New(1)
	if v := r.Poisson(0); v != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", v)
	}
}

func TestGammaMean(t *testing.T) {
	for _, shape := range []float64{0.5, 1, 2.5, 9} {
		r := New(29)
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += r.Gamma(shape)
		}
		got := sum / n
		if math.Abs(got-shape)/shape > 0.03 {
			t.Fatalf("Gamma(%v) sample mean = %v", shape, got)
		}
	}
}

func TestBetaMoments(t *testing.T) {
	alpha, beta := 2.0, 5.0
	r := New(31)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Beta(alpha, beta)
		if v < 0 || v > 1 {
			t.Fatalf("Beta draw out of range: %v", v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	wantMean := alpha / (alpha + beta)
	variance := sumSq/n - mean*mean
	wantVar := alpha * beta / ((alpha + beta) * (alpha + beta) * (alpha + beta + 1))
	if math.Abs(mean-wantMean) > 0.005 {
		t.Errorf("Beta mean = %v, want %v", mean, wantMean)
	}
	if math.Abs(variance-wantVar)/wantVar > 0.05 {
		t.Errorf("Beta variance = %v, want %v", variance, wantVar)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(37)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(41)
	z := NewZipf(1000, 1.2)
	const draws = 100000
	counts := make([]int, 1000)
	for i := 0; i < draws; i++ {
		counts[z.Draw(r)]++
	}
	// Rank 0 must dominate rank 99 roughly by (100)^1.2.
	if counts[0] < counts[99]*20 {
		t.Fatalf("Zipf skew too weak: rank0=%d rank99=%d", counts[0], counts[99])
	}
	// All draws in range is implied by the slice; check top-heavy mass.
	top := 0
	for i := 0; i < 100; i++ {
		top += counts[i]
	}
	if frac := float64(top) / draws; frac < 0.6 {
		t.Fatalf("top 10%% of Zipf(1.2) carries only %v of mass", frac)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := New(43)
	z := NewZipf(50, 0)
	counts := make([]int, 50)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Draw(r)]++
	}
	want := float64(draws) / 50
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.1 {
			t.Fatalf("Zipf(0) bucket %d = %d, want ~%v", i, c, want)
		}
	}
}

// TestZipfGuideMatchesFullSearch pins the guide table as a pure speed-up:
// for random draws and for every u within two ulps of a bucket edge j/n —
// where the rounding of u·n decides the bucket — the guided search
// returns what a binary search over the whole CDF returns, including on
// the uniform table, whose CDF entries sit on the edges themselves.
func TestZipfGuideMatchesFullSearch(t *testing.T) {
	full := func(cdf []float64, u float64) int {
		lo, hi := 0, len(cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	draws := 1 << 17
	if testing.Short() {
		draws = 1 << 13
	}
	for _, n := range []int{1, 2, 3, 50, 1000, 4096, 100000} {
		for _, s := range []float64{0, 0.9, 1.1} {
			z := NewZipf(n, s)
			check := func(u float64) {
				if got, want := z.index(u), full(z.cdf, u); got != want {
					t.Fatalf("n=%d s=%v u=%v (bits %x): guided %d, full search %d", n, s, u, math.Float64bits(u), got, want)
				}
			}
			r := New(uint64(n) + 7)
			for i := 0; i < draws; i++ {
				check(r.Float64())
			}
			for j := 0; j <= n; j++ {
				edge := float64(j) / float64(n)
				lo, hi := edge, edge
				for k := 0; k < 3; k++ {
					if lo >= 0 && lo < 1 {
						check(lo)
					}
					if hi < 1 {
						check(hi)
					}
					lo, hi = math.Nextafter(lo, -1), math.Nextafter(hi, 2)
				}
			}
			check(math.Nextafter(1, 0))
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	r := New(1)
	z := NewZipf(100000, 1.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Draw(r)
	}
}
