package hitrate

import (
	"math"
	"sync"
	"testing"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/stats"
)

func buildEstimator(t *testing.T, spec dataset.Spec) (*Estimator, *profiler.AccessProfile) {
	t.Helper()
	gc := dataset.GenConfig{NCenters: 64, PerCenter: 64, Dim: 16, PhysNList: 64, PhysNProbe: 8, Templates: 256, Seed: 2}
	w, err := dataset.Build(spec, gc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profiler.CollectAccess(w, 4000, 17)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	return e, p
}

func TestMeanCurveMonotone(t *testing.T) {
	e, _ := buildEstimator(t, dataset.Orcas1K)
	prev := -1.0
	for cov := 0.0; cov <= 1.0001; cov += 0.05 {
		m := e.MeanHitRate(cov)
		if m < prev-1e-12 {
			t.Fatalf("mean hit rate fell at coverage %v", cov)
		}
		prev = m
	}
	if got := e.MeanHitRate(0); got != 0 {
		t.Fatalf("mean at 0 coverage = %v", got)
	}
	if got := e.MeanHitRate(1); math.Abs(got-1) > 1e-9 {
		t.Fatalf("mean at full coverage = %v", got)
	}
}

func TestMeanMatchesEmpirical(t *testing.T) {
	// The incremental mean curve must agree with directly measured
	// work-weighted hit rates on fresh queries.
	e, p := buildEstimator(t, dataset.Orcas1K)
	r := rng.New(99)
	fresh := p.W.SampleMany(r, 3000)
	for _, cov := range []float64{0.1, 0.2, 0.4} {
		k := e.Clusters(cov)
		mask := p.HotMask(k)
		var mean float64
		for _, q := range fresh {
			mean += p.W.WorkHitRate(q, mask)
		}
		mean /= float64(len(fresh))
		if got := e.MeanHitRate(cov); math.Abs(got-mean) > 0.05 {
			t.Fatalf("coverage %v: modeled mean %v vs empirical %v", cov, got, mean)
		}
	}
}

func TestSkewMeansHighHitRateAtLowCoverage(t *testing.T) {
	// ORCAS-like skew: 20% coverage should cover most work (Fig. 6).
	e, _ := buildEstimator(t, dataset.Orcas1K)
	if got := e.MeanHitRate(0.2); got < 0.7 {
		t.Fatalf("ORCAS mean hit rate at 20%% coverage = %v, want > 0.7", got)
	}
	// Wiki-All should be noticeably lower at the same coverage.
	ew, _ := buildEstimator(t, dataset.WikiAll)
	if gw := ew.MeanHitRate(0.2); gw >= e.MeanHitRate(0.2) {
		t.Fatalf("Wiki-All hit rate %v >= ORCAS %v at 20%%", gw, e.MeanHitRate(0.2))
	}
}

func TestVarianceParabola(t *testing.T) {
	e, _ := buildEstimator(t, dataset.WikiAll)
	if e.Variance(0) != 0 || e.Variance(1) != 0 {
		t.Fatal("variance at eta=0/1 must vanish")
	}
	peak := e.Variance(0.5)
	if peak <= 0 {
		t.Fatal("variance peak not positive")
	}
	if e.Variance(0.25) >= peak || e.Variance(0.75) >= peak {
		t.Fatal("variance not peaked at 0.5")
	}
	if math.Abs(peak-4*e.SigmaMax2()*0.25) > 1e-12 {
		t.Fatal("peak must equal sigmaMax2")
	}
}

func TestVarianceModelTracksEmpirical(t *testing.T) {
	// Fig. 8 right: the parabolic approximation should track the
	// empirical variance within a factor ~2 across the mean range.
	e, p := buildEstimator(t, dataset.WikiAll)
	nlist := len(p.Counts)
	for _, frac := range []float64{0.15, 0.3, 0.5, 0.7} {
		k := int(frac * float64(nlist))
		if k == 0 {
			continue
		}
		mean := e.MeanHitRate(float64(k) / float64(nlist))
		if mean < 0.05 || mean > 0.95 {
			continue
		}
		emp := e.EmpiricalVariance(p, k)
		mod := e.Variance(mean)
		if emp <= 0 {
			continue
		}
		if mod/emp > 3.0 || emp/mod > 3.0 {
			t.Fatalf("coverage %v (mean %.2f): model var %.4g vs empirical %.4g", frac, mean, mod, emp)
		}
	}
}

// referenceEstimate is NewEstimator's offline half priced query by
// query: each profile query divides its clusters' bytes by its own
// probe-order total, and the variance at the half-mean coverage walks
// WorkHitRate per query. The estimator gathers build-time shares and
// per-template rates instead, and must land on the same bits.
func referenceEstimate(p *profiler.AccessProfile) (meanCurve []float64, sigmaMax2 float64) {
	nlist := len(p.Counts)
	contrib := make([]float64, nlist)
	for _, q := range p.Queries {
		probes := p.W.Probes(q)
		var total float64
		for _, c := range probes {
			total += float64(p.W.ClusterBytes(c))
		}
		if total == 0 {
			continue
		}
		for _, c := range probes {
			contrib[c] += float64(p.W.ClusterBytes(c)) / total
		}
	}
	nq := float64(len(p.Queries))
	meanCurve = make([]float64, nlist+1)
	for k := 1; k <= nlist; k++ {
		meanCurve[k] = meanCurve[k-1] + contrib[p.HotOrder[k-1]]/nq
	}
	if meanCurve[nlist] > 0 {
		scale := 1 / meanCurve[nlist]
		for k := range meanCurve {
			meanCurve[k] *= scale
		}
	}
	kHalf, best := 1, math.Inf(1)
	for k := 1; k < nlist; k++ {
		if d := math.Abs(meanCurve[k] - 0.5); d < best {
			best, kHalf = d, k
		}
	}
	mask := p.HotMask(kHalf)
	rates := make([]float64, len(p.Queries))
	for i, q := range p.Queries {
		rates[i] = p.W.WorkHitRate(q, mask)
	}
	sigmaMax2 = stats.Variance(rates)
	if sigmaMax2 <= 0 {
		sigmaMax2 = 1e-4
	}
	return meanCurve, sigmaMax2
}

// TestEstimatorMatchesPerQueryReference is the bit-identity proof of the
// estimator's shared per-template work, on all three dataset specs.
func TestEstimatorMatchesPerQueryReference(t *testing.T) {
	for _, spec := range []dataset.Spec{dataset.WikiAll, dataset.Orcas1K, dataset.Orcas2K} {
		e, p := buildEstimator(t, spec)
		curve, s2 := referenceEstimate(p)
		if len(e.meanCurve) != len(curve) {
			t.Fatalf("%s: mean curve has %d points, reference %d", spec.Name, len(e.meanCurve), len(curve))
		}
		for k := range curve {
			if math.Float64bits(e.meanCurve[k]) != math.Float64bits(curve[k]) {
				t.Fatalf("%s: meanCurve[%d] = %v, reference %v", spec.Name, k, e.meanCurve[k], curve[k])
			}
		}
		if math.Float64bits(e.SigmaMax2()) != math.Float64bits(s2) {
			t.Fatalf("%s: SigmaMax2 = %v, reference %v", spec.Name, e.SigmaMax2(), s2)
		}
	}
}

func TestMinHitRateDecreasesWithBatch(t *testing.T) {
	e, _ := buildEstimator(t, dataset.Orcas1K)
	const cov = 0.2
	prev := math.Inf(1)
	for _, b := range []int{1, 2, 4, 8, 16} {
		m := e.MinHitRate(cov, b)
		if m > prev+1e-9 {
			t.Fatalf("min hit rate rose with batch %d", b)
		}
		if m < 0 || m > 1 {
			t.Fatalf("min hit rate %v out of range", m)
		}
		prev = m
	}
}

func TestMinHitRateBelowMean(t *testing.T) {
	e, _ := buildEstimator(t, dataset.Orcas1K)
	cov := 0.2
	if e.MinHitRate(cov, 8) >= e.MeanHitRate(cov) {
		t.Fatal("batch-minimum not below mean")
	}
}

func TestMinHitRateMatchesMonteCarlo(t *testing.T) {
	// Validate Eq. 2 end to end: expected min of batch-8 Beta draws.
	e, _ := buildEstimator(t, dataset.WikiAll)
	cov := 0.3
	b, ok := e.BetaAt(cov)
	if !ok {
		t.Fatal("no Beta at coverage 0.3")
	}
	r := rng.New(5)
	const trials = 20000
	sum := 0.0
	for i := 0; i < trials; i++ {
		minV := 1.0
		for j := 0; j < 8; j++ {
			v := r.Beta(b.Alpha, b.Beta)
			if v < minV {
				minV = v
			}
		}
		sum += minV
	}
	mc := sum / trials
	if got := e.MinHitRate(cov, 8); math.Abs(got-mc) > 0.02 {
		t.Fatalf("MinHitRate %v vs Monte Carlo %v", got, mc)
	}
}

func TestCoverageForMinHitRateInverts(t *testing.T) {
	e, _ := buildEstimator(t, dataset.Orcas1K)
	for _, target := range []float64{0.3, 0.5, 0.7} {
		cov, ok := e.CoverageForMinHitRate(target, 6)
		if !ok {
			t.Fatalf("target %v reported infeasible", target)
		}
		if got := e.MinHitRate(cov, 6); got < target-0.02 {
			t.Fatalf("coverage %v gives min hit rate %v < target %v", cov, got, target)
		}
		// Minimality: slightly less coverage must miss the target.
		step := 2.0 / float64(e.nlist)
		if cov > step {
			if again := e.MinHitRate(cov-step, 6); again >= target+0.02 {
				t.Fatalf("coverage not minimal: %v-%v still gives %v", cov, step, again)
			}
		}
	}
}

func TestCoverageForMinHitRateEdges(t *testing.T) {
	e, _ := buildEstimator(t, dataset.WikiAll)
	if cov, ok := e.CoverageForMinHitRate(0, 4); !ok || cov != 0 {
		t.Fatalf("eta=0 => coverage 0, got %v,%v", cov, ok)
	}
	if _, ok := e.CoverageForMinHitRate(1.5, 4); ok {
		t.Fatal("eta>1 reported feasible")
	}
}

func TestBetaAtDegenerateCoverage(t *testing.T) {
	e, _ := buildEstimator(t, dataset.WikiAll)
	if _, ok := e.BetaAt(0); ok {
		t.Fatal("Beta at zero coverage should be degenerate")
	}
	if _, ok := e.BetaAt(1); ok {
		t.Fatal("Beta at full coverage should be degenerate")
	}
}

func TestBetaMomentsMatchEstimator(t *testing.T) {
	e, _ := buildEstimator(t, dataset.Orcas1K)
	cov := 0.25
	b, ok := e.BetaAt(cov)
	if !ok {
		t.Fatal("no beta")
	}
	if math.Abs(b.Mean()-e.MeanHitRate(cov)) > 1e-9 {
		t.Fatal("Beta mean mismatch")
	}
	wantVar := e.Variance(e.MeanHitRate(cov))
	if limit := b.Mean() * (1 - b.Mean()); wantVar >= limit {
		wantVar = limit * 0.999
	}
	if math.Abs(b.Variance()-wantVar)/wantVar > 1e-6 {
		t.Fatalf("Beta variance %v vs want %v", b.Variance(), wantVar)
	}
}

// TestClustersInvertsClusterFraction is the property the by-cluster-count
// table lookup rests on: the coverage k/n that CoverageForMinHitRate and
// the joint allocator hand back rounds to cluster count k again, so
// MinHitRate(k/n, b) and the bisect's probe of k read the same point.
func TestClustersInvertsClusterFraction(t *testing.T) {
	for _, n := range []int{48, 64, 100, 128, 1000} {
		e := &Estimator{nlist: n}
		for k := 0; k <= n; k++ {
			if got := e.Clusters(float64(k) / float64(n)); got != k {
				t.Fatalf("nlist %d: Clusters(%d/%d) = %d", n, k, n, got)
			}
		}
	}
}

// TestMinHitRateTableIsTransparent: an answer read back from the table,
// on an estimator that has served other points in between, has the bits
// of a fresh estimator's first (integrated) answer.
func TestMinHitRateTableIsTransparent(t *testing.T) {
	warm, p := buildEstimator(t, dataset.Orcas1K)
	r := rng.New(41)
	type probe struct {
		cov   float64
		batch int
		first float64
	}
	var probes []probe
	for i := 0; i < 24; i++ {
		pr := probe{cov: r.Float64(), batch: 1 + r.Intn(48)}
		pr.first = warm.MinHitRate(pr.cov, pr.batch)
		probes = append(probes, pr)
	}
	for _, pr := range probes {
		fresh, err := NewEstimator(p)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.MinHitRate(pr.cov, pr.batch)
		again := warm.MinHitRate(pr.cov, pr.batch)
		if math.Float64bits(pr.first) != math.Float64bits(want) || math.Float64bits(again) != math.Float64bits(want) {
			t.Errorf("MinHitRate(%v, %d): first %v, from table %v, fresh estimator %v", pr.cov, pr.batch, pr.first, again, want)
		}
	}
	if passes, points, _ := warm.Integrations(); passes != points || passes > len(probes) {
		t.Errorf("%d passes integrated %d distinct points over %d probes", passes, points, len(probes))
	}
}

// TestCoverageForMinHitRateMatchesLinearScan holds the bisect over
// cluster counts to its definition: the smallest k whose MinHitRate at
// coverage k/nlist reaches the target.
func TestCoverageForMinHitRateMatchesLinearScan(t *testing.T) {
	for _, spec := range []dataset.Spec{dataset.Orcas1K, dataset.WikiAll} {
		e, p := buildEstimator(t, spec)
		scan, err := NewEstimator(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 3, 8, 32} {
			for _, eta := range []float64{0.05, 0.3, 0.5, 0.62, 0.8, 0.95, 1} {
				want := scan.nlist
				for k := 0; k <= scan.nlist; k++ {
					if scan.MinHitRate(float64(k)/float64(scan.nlist), batch) >= eta {
						want = k
						break
					}
				}
				cov, ok := e.CoverageForMinHitRate(eta, batch)
				if !ok || cov != float64(want)/float64(e.nlist) {
					t.Errorf("%s: CoverageForMinHitRate(%v, %d) = %v, %v; linear scan says %d/%d",
						spec.Name, eta, batch, cov, ok, want, e.nlist)
				}
			}
		}
	}
}

// TestEstimatorSharedAcrossGoroutines hammers one estimator from eight
// goroutines over overlapping points (run it under -race): every
// goroutine reads the serial answer and no point is integrated twice.
func TestEstimatorSharedAcrossGoroutines(t *testing.T) {
	shared, p := buildEstimator(t, dataset.WikiAll)
	serial, err := NewEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	batches := []int{2, 5, 9}
	want := make([][]float64, len(batches))
	for i, b := range batches {
		for k := 0; k <= serial.nlist; k += 3 {
			want[i] = append(want[i], serial.MinHitRate(float64(k)/float64(serial.nlist), b))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range batches {
					i := (i + g) % len(batches)
					for j, w := range want[i] {
						cov := float64(3*j) / float64(shared.nlist)
						if got := shared.MinHitRate(cov, batches[i]); math.Float64bits(got) != math.Float64bits(w) {
							t.Errorf("goroutine %d: MinHitRate(%v, %d) = %v, serial %v", g, cov, batches[i], got, w)
						}
					}
					if _, ok := shared.CoverageForMinHitRate(0.4, batches[i]); !ok {
						t.Errorf("goroutine %d: target 0.4 infeasible at batch %d", g, batches[i])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if passes, points, _ := shared.Integrations(); passes != points {
		t.Errorf("%d passes integrated %d distinct points", passes, points)
	}
}

// TestWarmIntegralAllocatesNothing: once the estimator's grid exists, an
// Eq. 2 pass — grid points spread over every core, folded in order, the
// value stored — allocates nothing, as the serial loop before it did
// not.
func TestWarmIntegralAllocatesNothing(t *testing.T) {
	e, _ := buildEstimator(t, dataset.Orcas1K)
	clusters, batch := e.nlist/4, 16
	e.minHitRateAt(clusters, batch) // builds the grid
	passes := e.passes
	allocs := testing.AllocsPerRun(20, func() {
		e.mu.Lock()
		delete(e.minHit, point{clusters, batch})
		e.mu.Unlock()
		e.minHitRateAt(clusters, batch)
	})
	if e.passes-passes < 20 {
		t.Fatalf("%d passes in 21 runs; want one pass a run at a non-degenerate point", e.passes-passes)
	}
	if allocs != 0 {
		t.Fatalf("a warm pass allocated %v objects, want 0", allocs)
	}
}

// TestOnePointIntegratesOnePoint: Eq. 2 at (k, B) on a cold estimator
// makes one pass and stores that one exact value; (k, B−1) stays
// unknown until something asks for it.
func TestOnePointIntegratesOnePoint(t *testing.T) {
	e, _ := buildEstimator(t, dataset.Orcas1K)
	cov, batch := 0.25, 16
	e.MinHitRate(cov, batch)
	if passes, points, _ := e.Integrations(); passes != 1 || points != 1 {
		t.Errorf("MinHitRate(%v, %d) on a cold estimator: %d passes, %d exact table points; want 1 and 1", cov, batch, passes, points)
	}
	if v, ok := e.minHit[point{e.Clusters(cov), batch - 1}]; ok {
		t.Errorf("(k, B−1) holds %v without being asked for", v)
	}
}

// TestWarmComparisonAllocatesNothing: a bisection probe on a warm grid —
// a comparison that evaluates a few grid points and leaves a bound in
// the table — allocates nothing either.
func TestWarmComparisonAllocatesNothing(t *testing.T) {
	e, _ := buildEstimator(t, dataset.Orcas1K)
	clusters, batch := e.nlist/4, 16
	eta := e.minHitRateAt(clusters, batch) + 0.05 // builds the grid
	passes, cfs := e.passes, e.grid.CFs()
	allocs := testing.AllocsPerRun(20, func() {
		e.mu.Lock()
		delete(e.minHit, point{clusters, batch})
		e.mu.Unlock()
		if !e.minHitRateBelow(clusters, batch, eta) {
			t.Fatalf("Eq. 2 at (%d, %d) is not below %v", clusters, batch, eta)
		}
	})
	if e.passes != passes || e.grid.CFs() == cfs {
		t.Fatalf("%d passes and %d continued fractions for 21 comparisons; want bounds, not passes", e.passes-passes, e.grid.CFs()-cfs)
	}
	if allocs != 0 {
		t.Fatalf("a warm comparison allocated %v objects, want 0", allocs)
	}
}

// TestBatchOfOneIntegratesNothing: the minimum of one draw is the Beta's
// mean, so batch sizes <= 1 build no grid, make no pass and fill no
// table entry.
func TestBatchOfOneIntegratesNothing(t *testing.T) {
	e, _ := buildEstimator(t, dataset.Orcas1K)
	for _, batch := range []int{1, 0, -3} {
		for _, cov := range []float64{0.1, 0.5, 0.9} {
			b, ok := e.BetaAt(cov)
			if !ok {
				t.Fatalf("coverage %v is degenerate", cov)
			}
			if got := e.MinHitRate(cov, batch); math.Float64bits(got) != math.Float64bits(b.Mean()) {
				t.Errorf("MinHitRate(%v, %d) = %v, want the Beta mean %v", cov, batch, got, b.Mean())
			}
		}
	}
	if passes, points, _ := e.Integrations(); e.grid != nil || passes+points != 0 {
		t.Errorf("batch <= 1 built a grid (%v) or made %d passes, %d table points", e.grid != nil, passes, points)
	}
}
