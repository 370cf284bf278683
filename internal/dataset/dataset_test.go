package dataset

import (
	"math"
	"slices"
	"testing"

	"vectorliterag/internal/ivf"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/stats"
)

// smallGen keeps unit tests fast; calibration tests use DefaultGen.
func smallGen() GenConfig {
	return GenConfig{NCenters: 32, PerCenter: 64, Dim: 16, PhysNList: 32, PhysNProbe: 4, Templates: 128, Seed: 1}
}

func buildWorkload(t *testing.T, spec Spec, gc GenConfig) *Workload {
	t.Helper()
	w, err := Build(spec, gc)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSpecFootprints(t *testing.T) {
	// The logical footprints must match the paper's reported index sizes
	// (§V-A): 18 GB, 40 GB, 80 GB.
	for _, tc := range []struct {
		spec Spec
		gb   float64
	}{
		{WikiAll, 18}, {Orcas1K, 40}, {Orcas2K, 80},
	} {
		got := float64(tc.spec.IndexBytes()) / 1e9
		if math.Abs(got-tc.gb)/tc.gb > 0.05 {
			t.Errorf("%s footprint = %.1f GB, want ~%v GB", tc.spec.Name, got, tc.gb)
		}
	}
}

func TestScanShareMatchesPaper(t *testing.T) {
	// nprobe/nlist = 2048/131072 = 1.5625 %.
	for _, s := range []Spec{WikiAll, Orcas1K, Orcas2K} {
		if got := s.ScanShare(); math.Abs(got-0.015625) > 1e-9 {
			t.Errorf("%s scan share = %v", s.Name, got)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(WikiAll, GenConfig{}); err == nil {
		t.Fatal("zero GenConfig accepted")
	}
}

func TestProbesStableAndValid(t *testing.T) {
	w := buildWorkload(t, WikiAll, smallGen())
	for q := QueryID(0); int(q) < w.Templates(); q++ {
		probes := w.Probes(q)
		if len(probes) != w.Gen.PhysNProbe {
			t.Fatalf("template %d has %d probes", q, len(probes))
		}
		for _, c := range probes {
			if c < 0 || c >= w.Index.NList() {
				t.Fatalf("probe %d out of range", c)
			}
		}
	}
}

func TestSampleRespectsPopularity(t *testing.T) {
	w := buildWorkload(t, Orcas1K, smallGen())
	r := rng.New(5)
	counts := make([]int, w.Templates())
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[w.Sample(r)]++
	}
	if counts[0] <= counts[w.Templates()-1] {
		t.Fatal("template popularity not skewed")
	}
	// Empirical frequency of template 0 tracks the analytic probability.
	want := w.TemplateProbability(0)
	got := float64(counts[0]) / draws
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("template-0 frequency %v vs analytic %v", got, want)
	}
}

func TestScanBytesAverageMatchesPaperScale(t *testing.T) {
	// kappa calibration: popularity-weighted mean scan work must equal
	// IndexBytes * nprobe/nlist.
	for _, spec := range []Spec{WikiAll, Orcas1K} {
		w := buildWorkload(t, spec, smallGen())
		var mean float64
		for tpl := 0; tpl < w.Templates(); tpl++ {
			mean += float64(w.ScanBytesAll(QueryID(tpl))) * w.TemplateProbability(tpl)
		}
		want := float64(spec.IndexBytes()) * spec.ScanShare()
		if math.Abs(mean-want)/want > 0.02 {
			t.Errorf("%s mean scan bytes %.3g, want %.3g", spec.Name, mean, want)
		}
	}
}

func TestClusterBytesSumToIndexBytes(t *testing.T) {
	w := buildWorkload(t, Orcas2K, smallGen())
	var sum int64
	for c := 0; c < w.Index.NList(); c++ {
		sum += w.ClusterBytes(c)
	}
	diff := math.Abs(float64(sum - w.TotalIndexBytes()))
	if diff/float64(w.TotalIndexBytes()) > 0.001 {
		t.Fatalf("cluster bytes sum %d != index bytes %d", sum, w.TotalIndexBytes())
	}
}

func TestHitRateBounds(t *testing.T) {
	w := buildWorkload(t, WikiAll, smallGen())
	hot := make([]bool, w.Index.NList())
	if got := w.HitRate(0, hot); got != 0 {
		t.Fatalf("hit rate with empty hot set = %v", got)
	}
	for i := range hot {
		hot[i] = true
	}
	if got := w.HitRate(0, hot); got != 1 {
		t.Fatalf("hit rate with full hot set = %v", got)
	}
	if got := w.WorkHitRate(0, hot); got != 1 {
		t.Fatalf("work hit rate with full hot set = %v", got)
	}
}

func TestWorkHitRatePartial(t *testing.T) {
	w := buildWorkload(t, WikiAll, smallGen())
	probes := w.Probes(3)
	hot := make([]bool, w.Index.NList())
	hot[probes[0]] = true
	cnt := w.HitRate(3, hot)
	if want := 1.0 / float64(len(probes)); math.Abs(cnt-want) > 1e-9 {
		t.Fatalf("count hit rate = %v, want %v", cnt, want)
	}
	work := w.WorkHitRate(3, hot)
	if work <= 0 || work >= 1 {
		t.Fatalf("work hit rate = %v, want in (0,1)", work)
	}
}

// TestProbeSharesMatchDivision pins the build-time share table to the
// per-query division it replaces, bit for bit: each probe's cluster
// bytes over the query's total, summed in probe order.
func TestProbeSharesMatchDivision(t *testing.T) {
	w := buildWorkload(t, WikiAll, smallGen())
	for q := QueryID(0); int(q) < w.Templates(); q++ {
		probes, shares := w.Probes(q), w.ProbeShares(q)
		if len(shares) != len(probes) {
			t.Fatalf("template %d: %d shares for %d probes", q, len(shares), len(probes))
		}
		var total float64
		for _, c := range probes {
			total += float64(w.ClusterBytes(c))
		}
		for j, c := range probes {
			if want := float64(w.ClusterBytes(c)) / total; math.Float64bits(shares[j]) != math.Float64bits(want) {
				t.Fatalf("template %d probe %d: share %v, want %v", q, j, shares[j], want)
			}
		}
	}
}

func TestAccessCountsMatchProbes(t *testing.T) {
	w := buildWorkload(t, WikiAll, smallGen())
	queries := []QueryID{0, 0, 1}
	counts := w.AccessCounts(queries)
	var total int64
	for _, c := range counts {
		total += c
	}
	if want := int64(3 * w.Gen.PhysNProbe); total != want {
		t.Fatalf("total accesses %d, want %d", total, want)
	}
}

// TestAccessCountsMatchPerQueryCount checks the multiplicity tally
// against counting every query's probes one by one, on random samples
// of random sizes (empty, one query, many repeats, every template).
func TestAccessCountsMatchPerQueryCount(t *testing.T) {
	w := buildWorkload(t, Orcas1K, smallGen())
	r := rng.New(21)
	for trial := 0; trial < 40; trial++ {
		queries := w.SampleMany(r, []int{0, 1, 7, 300, 5000}[trial%5])
		if trial%7 == 6 {
			for q := range w.Templates() {
				queries = append(queries, QueryID(q))
			}
		}
		want := make([]int64, w.Index.NList())
		for _, q := range queries {
			for _, c := range w.Probes(q) {
				want[c]++
			}
		}
		if got := w.AccessCounts(queries); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d queries): counts %v, per-query count %v", trial, len(queries), got, want)
		}
	}
}

func TestQueryVectorNearTemplate(t *testing.T) {
	w := buildWorkload(t, Orcas1K, smallGen())
	r := rng.New(9)
	v := w.QueryVector(2, r)
	if len(v) != w.Gen.Dim {
		t.Fatalf("query vector dim %d", len(v))
	}
	// Probing the materialized vector should mostly agree with the
	// template's precomputed probes (ORCAS noise is small).
	probes := w.Index.Probe(v, w.Gen.PhysNProbe)
	tplProbes := map[int]bool{}
	for _, c := range w.Probes(2) {
		tplProbes[c] = true
	}
	overlap := 0
	for _, c := range probes {
		if tplProbes[c] {
			overlap++
		}
	}
	if overlap < w.Gen.PhysNProbe/2 {
		t.Fatalf("materialized query probes overlap only %d/%d with template", overlap, w.Gen.PhysNProbe)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := buildWorkload(t, WikiAll, smallGen())
	b := buildWorkload(t, WikiAll, smallGen())
	if a.Kappa() != b.Kappa() {
		t.Fatal("kappa differs across identical builds")
	}
	for q := QueryID(0); int(q) < a.Templates(); q++ {
		pa, pb := a.Probes(q), b.Probes(q)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatal("probe lists differ across identical builds")
			}
		}
	}
}

// TestSkewCalibration verifies the headline characterization the paper
// reports in Fig. 5: with the default realization, the top 20 % of
// clusters carry ≈59 % of accesses for Wiki-All and ≈93 % for ORCAS.
func TestSkewCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration uses the full default realization")
	}
	r := rng.New(123)
	for _, tc := range []struct {
		spec      Spec
		want, tol float64
	}{
		{WikiAll, 0.59, 0.08},
		{Orcas1K, 0.93, 0.05},
	} {
		w := buildWorkload(t, tc.spec, DefaultGen())
		queries := w.SampleMany(r, 20000)
		counts := w.AccessCounts(queries)
		weights := make([]float64, len(counts))
		for i, c := range counts {
			// Weight by distance computations: accesses x cluster size,
			// matching the paper's "share of total distance computations".
			weights[i] = float64(c) * float64(w.Index.ClusterSize(i))
		}
		got := stats.ShareOfTopFraction(weights, 0.20)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("%s top-20%% share = %.3f, want %.2f±%.2f", tc.spec.Name, got, tc.want, tc.tol)
		}
	}
}

// TestHotClustersCoverMostTraffic sanity-checks that caching the top
// 20 % hottest clusters yields a high average hit rate on ORCAS-like
// traffic, the property VectorLiteRAG exploits.
func TestHotClustersCoverMostTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("uses the full default realization")
	}
	w := buildWorkload(t, Orcas1K, DefaultGen())
	r := rng.New(7)
	queries := w.SampleMany(r, 10000)
	counts := w.AccessCounts(queries)
	hotIDs := ivf.HotClusters(counts)
	hot := make([]bool, w.Index.NList())
	for _, c := range hotIDs[:w.Index.NList()/5] {
		hot[c] = true
	}
	var mean float64
	test := w.SampleMany(r, 5000)
	for _, q := range test {
		mean += w.HitRate(q, hot)
	}
	mean /= float64(len(test))
	if mean < 0.7 {
		t.Fatalf("top-20%% cache mean hit rate %.3f too low for ORCAS-like skew", mean)
	}
}
