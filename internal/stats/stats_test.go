package stats

import (
	"math"
	"testing"
	"testing/quick"

	"vectorliterag/internal/rng"
)

func TestBetaMeanVariance(t *testing.T) {
	b := Beta{Alpha: 2, Beta: 5}
	if got, want := b.Mean(), 2.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	wantVar := 2.0 * 5.0 / (49.0 * 8.0)
	if got := b.Variance(); math.Abs(got-wantVar) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, wantVar)
	}
}

func TestNewBetaFromMomentsRoundTrip(t *testing.T) {
	for _, tc := range []struct{ mean, variance float64 }{
		{0.5, 0.02}, {0.2, 0.01}, {0.9, 0.005}, {0.05, 0.001},
	} {
		b, err := NewBetaFromMoments(tc.mean, tc.variance)
		if err != nil {
			t.Fatalf("NewBetaFromMoments(%v,%v): %v", tc.mean, tc.variance, err)
		}
		if math.Abs(b.Mean()-tc.mean) > 1e-9 {
			t.Errorf("mean round trip: got %v want %v", b.Mean(), tc.mean)
		}
		if math.Abs(b.Variance()-tc.variance) > 1e-9 {
			t.Errorf("variance round trip: got %v want %v", b.Variance(), tc.variance)
		}
	}
}

func TestNewBetaFromMomentsRejectsInfeasible(t *testing.T) {
	if _, err := NewBetaFromMoments(0.5, 0.3); err == nil {
		t.Fatal("variance >= mean(1-mean) accepted")
	}
	if _, err := NewBetaFromMoments(1.2, 0.01); err == nil {
		t.Fatal("mean outside (0,1) accepted")
	}
	if _, err := NewBetaFromMoments(0.5, 0); err == nil {
		t.Fatal("zero variance accepted")
	}
}

func TestBetaCDFUniform(t *testing.T) {
	// Beta(1,1) is uniform: CDF(x) = x.
	b := Beta{Alpha: 1, Beta: 1}
	for _, x := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		if got := b.CDF(x); math.Abs(got-x) > 1e-9 {
			t.Fatalf("uniform CDF(%v) = %v", x, got)
		}
	}
}

func TestBetaCDFSymmetry(t *testing.T) {
	// For Beta(a,a), CDF(0.5) = 0.5.
	for _, a := range []float64{0.5, 1, 2, 7} {
		b := Beta{Alpha: a, Beta: a}
		if got := b.CDF(0.5); math.Abs(got-0.5) > 1e-9 {
			t.Fatalf("Beta(%v,%v).CDF(0.5) = %v", a, a, got)
		}
	}
}

func TestBetaCDFMonotone(t *testing.T) {
	b := Beta{Alpha: 2.3, Beta: 4.1}
	prev := -1.0
	for x := 0.0; x <= 1.0; x += 0.01 {
		c := b.CDF(x)
		if c < prev-1e-12 {
			t.Fatalf("CDF decreased at %v", x)
		}
		prev = c
	}
	if math.Abs(b.CDF(1)-1) > 1e-9 {
		t.Fatal("CDF(1) != 1")
	}
}

func TestBetaCDFAgainstSampling(t *testing.T) {
	b := Beta{Alpha: 3, Beta: 2}
	r := rng.New(9)
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		if r.Beta(3, 2) <= 0.6 {
			count++
		}
	}
	empirical := float64(count) / n
	if got := b.CDF(0.6); math.Abs(got-empirical) > 0.01 {
		t.Fatalf("CDF(0.6) analytic %v vs sampled %v", got, empirical)
	}
}

func TestExpectedMinDecreasesWithBatch(t *testing.T) {
	// The first-order statistic must fall monotonically with batch size —
	// the core behaviour behind paper Fig. 10 (right).
	b := Beta{Alpha: 4, Beta: 2}
	prev := math.Inf(1)
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		m := b.ExpectedMin(n)
		if m >= prev {
			t.Fatalf("ExpectedMin(%d) = %v did not decrease (prev %v)", n, m, prev)
		}
		if m < 0 || m > 1 {
			t.Fatalf("ExpectedMin(%d) = %v out of [0,1]", n, m)
		}
		prev = m
	}
}

func TestExpectedMinN1IsMean(t *testing.T) {
	b := Beta{Alpha: 3, Beta: 4}
	if got := b.ExpectedMin(1); math.Abs(got-b.Mean()) > 1e-9 {
		t.Fatalf("ExpectedMin(1) = %v, want mean %v", got, b.Mean())
	}
}

func TestExpectedMinUniformClosedForm(t *testing.T) {
	// For Uniform(0,1), E[min of n] = 1/(n+1) exactly.
	b := Beta{Alpha: 1, Beta: 1}
	for _, n := range []int{2, 3, 5, 10} {
		want := 1.0 / float64(n+1)
		if got := b.ExpectedMin(n); math.Abs(got-want) > 1e-4 {
			t.Fatalf("uniform ExpectedMin(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestExpectedMinAgainstMonteCarlo(t *testing.T) {
	b := Beta{Alpha: 5, Beta: 3}
	r := rng.New(21)
	const trials = 20000
	const batch = 8
	sum := 0.0
	for i := 0; i < trials; i++ {
		minV := 1.0
		for j := 0; j < batch; j++ {
			v := r.Beta(5, 3)
			if v < minV {
				minV = v
			}
		}
		sum += minV
	}
	mc := sum / trials
	if got := b.ExpectedMin(batch); math.Abs(got-mc) > 0.01 {
		t.Fatalf("ExpectedMin analytic %v vs Monte Carlo %v", got, mc)
	}
}

// refExpectedMin is Beta.ExpectedMin as it stood before the
// x-independent terms of I_x(α, β) were hoisted out of the grid loop:
// the same Simpson grid, with ln B(α, β) and the continued-fraction
// switch point recomputed at every one of the 2 001 points. It is the
// reference the differential test below holds the shipped body to.
func refExpectedMin(b Beta, n int) float64 {
	if n <= 1 {
		return b.Mean()
	}
	const steps = 2000 // even
	h := 1.0 / steps
	f := func(x float64) float64 {
		surv := 1 - refRegIncBeta(b.Alpha, b.Beta, x)
		if surv <= 0 {
			return 0
		}
		return math.Pow(surv, float64(n))
	}
	sum := f(0) + f(1)
	for i := 1; i < steps; i++ {
		x := float64(i) * h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

func refRegIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lnFront := a*math.Log(x) + b*math.Log(1-x) - logBetaFn(a, b)
	front := math.Exp(lnFront)
	if x < (a+1)/(a+b+2) {
		return front * cf(a, b, x) / a
	}
	return 1 - front*cf(b, a, 1-x)/b
}

// TestExpectedMinBitIdenticalToReference: Algorithm 1's decisions, the
// goldens and the benchmark's sim_digest all hang on EtaMin's low bits,
// so ExpectedMin may get cheaper but may not move. The grid covers the
// estimator's whole moment range, alpha < 1 and beta < 1 included.
func TestExpectedMinBitIdenticalToReference(t *testing.T) {
	points, lowAlpha, lowBeta := 0, 0, 0
	for mi := 0; mi < 32; mi++ {
		mean := 0.02 + 0.96*float64(mi)/31 // 0.02 ... 0.98
		for _, frac := range []float64{0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 0.999} {
			b, err := NewBetaFromMoments(mean, frac*mean*(1-mean))
			if err != nil {
				t.Fatal(err)
			}
			if b.Alpha < 1 {
				lowAlpha++
			}
			if b.Beta < 1 {
				lowBeta++
			}
			for _, n := range []int{2, 3, 4, 7, 16, 64, 256} {
				got, want := b.ExpectedMin(n), refExpectedMin(b, n)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("Beta(%v, %v).ExpectedMin(%d) = %v (%#x), reference %v (%#x)",
						b.Alpha, b.Beta, n, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				points++
			}
		}
	}
	if lowAlpha == 0 || lowBeta == 0 {
		t.Fatalf("grid has %d alpha<1 and %d beta<1 distributions; want both", lowAlpha, lowBeta)
	}
	t.Logf("%d (mean, variance, n) points bit-equal", points)
}

// TestMinGridBitIdenticalAcrossWorkers: the grid's points are filled on
// a worker pool but folded in index order, so any worker count — and a
// grid reused integral after integral — gives the reference's bits. A
// batch size <= 1 is the mean, between integrals too.
func TestMinGridBitIdenticalAcrossWorkers(t *testing.T) {
	cases := []struct {
		alpha, beta float64
		n           int
	}{
		{0.3, 0.4, 2}, {0.5, 3, 8}, {4, 0.6, 16}, {0.9, 0.9, 64},
		{1, 1, 5}, {4.2, 1.7, 8}, {25, 2, 256}, {2, 40, 3},
		{0.3, 0.4, 1}, {4.2, 1.7, 15}, {4, 0.6, 1}, {2, 40, 2},
	}
	for _, workers := range []int{1, 2, 8} {
		g := NewMinGrid(workers)
		for _, c := range cases {
			b := Beta{Alpha: c.alpha, Beta: c.beta}
			got, want := g.ExpectedMin(b, c.n), refExpectedMin(b, c.n)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("workers %d: Beta(%v, %v) n=%d: %v (%#x), reference %v (%#x)",
					workers, c.alpha, c.beta, c.n, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestBetaCF2BitEqualToBetaCF: each lane of the interleaved fraction
// has betaCF's bits, whichever lane stops first, and the pair reports
// convergence exactly when both of betaCF's runs do. The lanes cover the
// grid points either side of the symmetric-form switch, the tiny clamps
// on d (initial: (a+b)x = a+1; in the loop: x = 3/(b+2) at a = 1) and
// on c (a = 0, b = -1, x = 1 makes the first term -1), and fractions
// that exhaust cfMaxIter.
func TestBetaCF2BitEqualToBetaCF(t *testing.T) {
	type lane struct{ a, b, x float64 }
	lanes := []lane{
		{1, 3, 0.5}, {1, 4, 0.5}, {0, -1, 1}, // the clamps
		{1e6, 1e6, 0.5}, {4e5, 6e5, 0.4}, // cfMaxIter runs out
		{2, 5, 1e-6}, {0.3, 0.4, 0.2}, // converge in a few steps
	}
	for _, b := range []Beta{{4.2, 1.7}, {0.3, 0.4}, {25, 2}, {2, 40}, {0.9, 0.9}} {
		f := newIncBeta(b.Alpha, b.Beta)
		i := int(f.split * minSteps) // x_i < split <= x_{i+1}
		for _, k := range []int{i, i + 1} {
			a, bb, x, _ := f.args(k)
			lanes = append(lanes, lane{a, bb, x})
		}
	}
	for _, l0 := range lanes {
		for _, l1 := range lanes {
			got0, got1, ok := betaCF2(l0.a, l0.b, l0.x, l1.a, l1.b, l1.x)
			want0, ok0 := betaCF(l0.a, l0.b, l0.x)
			want1, ok1 := betaCF(l1.a, l1.b, l1.x)
			if math.Float64bits(got0) != math.Float64bits(want0) || math.Float64bits(got1) != math.Float64bits(want1) || ok != (ok0 && ok1) {
				t.Errorf("betaCF2(%v, %v) = %v, %v, converged %v; betaCF gives %v, %v, converged %v, %v", l0, l1, got0, got1, ok, want0, want1, ok0, ok1)
			}
			if (l0 == lane{1e6, 1e6, 0.5}) && ok0 {
				t.Errorf("betaCF(%v) reports convergence; it runs out of steps", l0)
			}
		}
	}
}

// FuzzExpectedMin: over the estimator's moment range, alpha < 1 and
// beta < 1 included, a pass for n and then one for n-1 on the same
// grid have the reference's bits.
func FuzzExpectedMin(f *testing.F) {
	f.Add(0.5, 0.2, uint16(8))
	f.Add(0.02, 0.999, uint16(2)) // alpha and beta < 1
	f.Add(0.98, 0.9, uint16(64))  // beta < 1
	f.Add(0.3, 0.001, uint16(300))
	f.Fuzz(func(t *testing.T, mean, frac float64, n uint16) {
		if !(mean > 1e-9 && mean < 1-1e-9 && frac > 0 && frac < 1) {
			t.Skip()
		}
		b, err := NewBetaFromMoments(mean, frac*mean*(1-mean))
		if err != nil {
			t.Skip()
		}
		g := NewMinGrid(2)
		for _, n := range []int{int(n%512) + 1, int(n % 512)} {
			got := g.ExpectedMin(b, n)
			if want := refExpectedMin(b, n); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Beta(%v, %v) n=%d: %v (%#x), reference %v (%#x)",
					b.Alpha, b.Beta, n, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}

// checkMinBelow holds one comparison to its definition: the answer is
// want < eta, where want is the reference integral, the interval holds
// want, and an interval of one point is want's bits. It reports whether
// the comparison was decided by bounds, short of a full pass.
func checkMinBelow(t *testing.T, g *MinGrid, b Beta, n int, want, eta float64) (bounded bool) {
	t.Helper()
	cfs := g.CFs()
	below, lo, hi := g.MinBelow(b, n, eta)
	if below != (want < eta) || !(lo <= want && want <= hi) ||
		(lo == hi && math.Float64bits(lo) != math.Float64bits(want)) {
		t.Errorf("Beta(%v, %v) n=%d: MinBelow(%v) = %v in [%v, %v]; reference %v (%#x)",
			b.Alpha, b.Beta, n, eta, below, lo, hi, want, math.Float64bits(want))
	}
	return g.CFs()-cfs < minSteps-1
}

// TestMinBelowMatchesSimpson is the comparison's differential test: on
// random Betas — alpha and beta from 0.05 to 2 000, so both below 1 and
// near 10³ — and batch sizes 2 to 64, MinBelow answers simpson() < eta
// for eta at the integral, within minDelta/2, 1e-7 and 1e-3 of it either
// side, and drawn at random.
func TestMinBelowMatchesSimpson(t *testing.T) {
	r := rng.New(43)
	logUniform := func() float64 { return math.Exp(math.Log(0.05) + r.Float64()*math.Log(2000/0.05)) }
	betas := []Beta{{0.05, 0.05}, {0.3, 900}, {900, 0.3}, {1000, 1000}, {1200, 800}, {4.2, 1.7}}
	for len(betas) < 120 {
		betas = append(betas, Beta{logUniform(), logUniform()})
	}
	bounded, exact := 0, 0
	g := NewMinGrid(2)
	for i, b := range betas {
		for _, n := range []int{2, 3 + i%61, 64} {
			want := refExpectedMin(b, n)
			for _, eta := range []float64{want, want + minDelta/2, want - minDelta/2, want + 1e-7, want - 1e-7,
				want + 1e-3, want - 1e-3, r.Float64(), r.Float64()} {
				if checkMinBelow(t, g, b, n, want, eta) {
					bounded++
				} else {
					exact++
				}
			}
		}
	}
	t.Logf("%d comparisons decided by bounds, %d by a full pass", bounded, exact)
	if bounded < exact {
		t.Errorf("only %d of %d comparisons decided by bounds", bounded, bounded+exact)
	}
}

// TestMinBelowFallsBackWhenFractionStalls: a continued fraction that
// runs out of steps voids the accuracy the bounds rest on, so the
// comparison makes the full pass even where its bounds would clear eta
// at once. Beta(5.12e5, 4.88e5) stalls at the first-evaluated point
// 1024, at its mean; Beta(1e6, 1e6) at 1000, which the refinement
// reaches on its way to the step.
func TestMinBelowFallsBackWhenFractionStalls(t *testing.T) {
	for _, tc := range []struct {
		b     Beta
		stall int
		off   float64 // eta - E[min]
	}{
		{Beta{5.12e5, 4.88e5}, 1024, 0.3},
		{Beta{1e6, 1e6}, 1000, 1e-3},
	} {
		if a, b, x, _ := newIncBeta(tc.b.Alpha, tc.b.Beta).args(tc.stall); func() bool { _, ok := betaCF(a, b, x); return ok }() {
			t.Fatalf("%v: the fraction at grid point %d converges; the test needs one that stalls", tc.b, tc.stall)
		}
		g := NewMinGrid(1)
		want := refExpectedMin(tc.b, 8)
		if checkMinBelow(t, g, tc.b, 8, want, want+tc.off) {
			t.Errorf("%v: decided by bounds after %d fractions, past a stalled one", tc.b, g.CFs())
		}
	}
}

// FuzzMinBelow: over the estimator's moment range and batch sizes 2 to
// 64, a comparison at any offset from the integral answers as the
// reference does.
func FuzzMinBelow(f *testing.F) {
	f.Add(0.5, 0.2, uint8(8), 0.0)
	f.Add(0.02, 0.999, uint8(2), minDelta/2) // alpha and beta < 1
	f.Add(0.98, 0.9, uint8(62), -minDelta/2)
	f.Add(0.7, 0.001, uint8(30), 1e-7) // alpha, beta near 10³
	f.Add(0.4, 0.05, uint8(5), -1e-3)
	f.Fuzz(func(t *testing.T, mean, frac float64, n uint8, off float64) {
		if !(mean > 1e-9 && mean < 1-1e-9 && frac > 0 && frac < 1 && math.Abs(off) <= 1) {
			t.Skip()
		}
		b, err := NewBetaFromMoments(mean, frac*mean*(1-mean))
		if err != nil {
			t.Skip()
		}
		batch := 2 + int(n)%63
		want := refExpectedMin(b, batch)
		checkMinBelow(t, NewMinGrid(2), b, batch, want, want+off)
	})
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if got := Percentile(s, 0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Percentile(s, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(s, 1); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(s, 0.25); got != 2 {
		t.Fatalf("p25 = %v", got)
	}
}

// TestPercentileRejectsNaN: one NaN sample sorts to an arbitrary
// position (NaN compares false against everything) and silently
// corrupts every quantile, so Percentile and PercentileSorted must
// panic instead of returning poisoned numbers.
func TestPercentileRejectsNaN(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic on NaN input", name)
			}
		}()
		f()
	}
	nan := math.NaN()
	mustPanic("Percentile(mid NaN)", func() { Percentile([]float64{1, nan, 3}, 0.5) })
	mustPanic("Percentile(all NaN)", func() { Percentile([]float64{nan, nan}, 0.9) })
	// PercentileSorted must catch a NaN wherever the sort left it.
	mustPanic("PercentileSorted(leading NaN)", func() { PercentileSorted([]float64{nan, 1, 2}, 0.5) })
	mustPanic("PercentileSorted(trailing NaN)", func() { PercentileSorted([]float64{1, 2, nan}, 0) })
	// Infinities are ordered values, not poison: they must pass.
	if got := Percentile([]float64{1, 2, math.Inf(1)}, 0); got != 1 {
		t.Errorf("p0 with +Inf sample = %v, want 1", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	s := []float64{5, 1, 3}
	Percentile(s, 0.5)
	if s[0] != 5 || s[1] != 1 || s[2] != 3 {
		t.Fatalf("input mutated: %v", s)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 100})
	if s.N != 5 || s.Median != 3 || s.Max != 100 {
		t.Fatalf("bad summary %+v", s)
	}
	if s.Mean != 22 {
		t.Fatalf("mean = %v", s.Mean)
	}
}

func TestCDFPointsAndTopShare(t *testing.T) {
	// One item carries 90 of 100 total: top-25% share must be >= 0.9.
	w := []float64{90, 5, 3, 2}
	cdf := CDFPoints(w)
	if math.Abs(cdf[0]-0.9) > 1e-12 {
		t.Fatalf("cdf[0] = %v", cdf[0])
	}
	if math.Abs(cdf[3]-1.0) > 1e-12 {
		t.Fatalf("cdf[last] = %v", cdf[3])
	}
	if got := ShareOfTopFraction(w, 0.25); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("top-25%% share = %v", got)
	}
}

func TestShareOfTopFractionUniform(t *testing.T) {
	w := make([]float64, 100)
	for i := range w {
		w[i] = 1
	}
	if got := ShareOfTopFraction(w, 0.2); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("uniform top-20%% share = %v, want 0.2", got)
	}
}

func TestPiecewiseLinearInterpolation(t *testing.T) {
	p, err := NewPiecewiseLinear([]float64{1, 2, 4}, []float64{10, 20, 40})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Eval(1.5); got != 15 {
		t.Fatalf("Eval(1.5) = %v", got)
	}
	if got := p.Eval(3); got != 30 {
		t.Fatalf("Eval(3) = %v", got)
	}
}

func TestPiecewiseLinearClampAndExtrapolate(t *testing.T) {
	p, _ := NewPiecewiseLinear([]float64{1, 2}, []float64{10, 20})
	if got := p.Eval(0); got != 10 {
		t.Fatalf("clamp below = %v", got)
	}
	if got := p.Eval(4); got != 40 {
		t.Fatalf("extrapolate = %v", got)
	}
}

func TestPiecewiseLinearRejectsBadInput(t *testing.T) {
	if _, err := NewPiecewiseLinear([]float64{1}, []float64{2}); err == nil {
		t.Fatal("single knot accepted")
	}
	if _, err := NewPiecewiseLinear([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("duplicate knots accepted")
	}
	if _, err := NewPiecewiseLinear([]float64{1, 2}, []float64{2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestPiecewiseSortsKnots(t *testing.T) {
	p, err := NewPiecewiseLinear([]float64{4, 1, 2}, []float64{40, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Eval(1.5); got != 15 {
		t.Fatalf("Eval(1.5) after unsorted input = %v", got)
	}
}

func TestInverseMonotone(t *testing.T) {
	p, _ := NewPiecewiseLinear([]float64{1, 2, 4}, []float64{10, 20, 40})
	x, ok := p.InverseMonotone(25, 10)
	if !ok || math.Abs(x-2.5) > 1e-6 {
		t.Fatalf("InverseMonotone(25) = %v, %v", x, ok)
	}
	if _, ok := p.InverseMonotone(5, 10); ok {
		t.Fatal("value below minimum reported as found")
	}
}

func TestFitPiecewiseAveragesDuplicates(t *testing.T) {
	p, err := FitPiecewiseLinear([]float64{1, 1, 2}, []float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Eval(1); got != 15 {
		t.Fatalf("Eval(1) = %v, want averaged 15", got)
	}
}

func TestPiecewiseEvalWithinHullProperty(t *testing.T) {
	// Property: interpolation between knots never exceeds the knot
	// y-range of its segment.
	p, _ := NewPiecewiseLinear([]float64{0, 1, 2, 3}, []float64{0, 5, 2, 9})
	if err := quick.Check(func(u uint16) bool {
		x := float64(u%3000) / 1000
		y := p.Eval(x)
		return y >= -1e-9 && y <= 9+1e-9
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRegIncBetaEdges(t *testing.T) {
	if got := RegIncBeta(2, 3, 0); got != 0 {
		t.Fatalf("I_0 = %v", got)
	}
	if got := RegIncBeta(2, 3, 1); got != 1 {
		t.Fatalf("I_1 = %v", got)
	}
	// Known value: I_0.5(2,2) = 0.5.
	if got := RegIncBeta(2, 2, 0.5); math.Abs(got-0.5) > 1e-10 {
		t.Fatalf("I_0.5(2,2) = %v", got)
	}
}
