// Package dataset defines the evaluation workloads. Each workload has
// two coupled representations (the two-scale design, see ARCHITECTURE.md):
//
//   - a Spec: the *logical* paper-scale geometry (vector count,
//     dimensionality, PQ code bytes, cluster count, nprobe, index bytes)
//     that the cost model consumes to produce paper-scale latencies; and
//   - a Physical realization: a real, laptop-scale IVF-PQ index built
//     over a synthetic Gaussian-mixture corpus, which supplies genuine
//     cluster-access skew, per-query probe lists, and hit-rate
//     distributions.
//
// Queries are drawn from a fixed pool of templates with Zipf-distributed
// popularity plus Gaussian noise. This mirrors how the paper's two
// workloads differ: ORCAS preserves duplicate real-user queries (heavy
// re-hits of the same hot clusters → top 20 % of clusters carry ≈93 % of
// accesses, Fig. 5 right), while Wiki-All queries are more diffuse
// (≈59 %, Fig. 5 left). The Zipf exponent and noise level per Spec are
// calibrated against those two targets in the package tests.
package dataset

import (
	"fmt"
	"math"
	"sync"
	"time"

	"vectorliterag/internal/ivf"
	"vectorliterag/internal/parallel"
	"vectorliterag/internal/rng"
)

// Spec describes a logical, paper-scale vector database.
type Spec struct {
	Name      string
	NVectors  int64         // database size at paper scale
	Dim       int           // embedding dimensionality
	CodeBytes int           // PQ code bytes per vector
	NList     int           // logical IVF cluster count
	NProbe    int           // logical clusters probed per query
	SLOSearch time.Duration // retrieval-stage SLO (paper Table I)

	// Workload shape (calibrated; see package tests).
	SkewS      float64 // Zipf exponent over query templates
	QueryNoise float64 // query perturbation stddev, in units of blob spread
}

// IndexBytes returns the compressed index footprint at paper scale.
func (s Spec) IndexBytes() int64 { return s.NVectors * int64(s.CodeBytes) }

// ScanShare returns the average fraction of the database scanned per
// query at paper scale (nprobe/nlist).
func (s Spec) ScanShare() float64 { return float64(s.NProbe) / float64(s.NList) }

// The three evaluation datasets of the paper (§V-A). Sizes follow the
// reported footprints: Wiki-All 88M×768-d ≈ 18 GB, ORCAS-1K ≈ 40 GB,
// ORCAS-2K ≈ 80 GB; nlist=131072 and nprobe=2048 follow the Faiss
// configuration guidance cited in the paper.
var (
	WikiAll = Spec{
		Name: "Wiki-All", NVectors: 88_000_000, Dim: 768, CodeBytes: 204,
		NList: 131072, NProbe: 2048, SLOSearch: 150 * time.Millisecond,
		SkewS: 0.60, QueryNoise: 2.8,
	}
	Orcas1K = Spec{
		Name: "ORCAS 1K", NVectors: 156_000_000, Dim: 1024, CodeBytes: 256,
		NList: 131072, NProbe: 2048, SLOSearch: 200 * time.Millisecond,
		SkewS: 2.40, QueryNoise: 0.35,
	}
	Orcas2K = Spec{
		Name: "ORCAS 2K", NVectors: 156_000_000, Dim: 2048, CodeBytes: 512,
		NList: 131072, NProbe: 2048, SLOSearch: 300 * time.Millisecond,
		SkewS: 2.40, QueryNoise: 0.35,
	}
)

// GenConfig controls the physical realization.
type GenConfig struct {
	NCenters   int // Gaussian mixture components
	PerCenter  int // vectors per component
	Dim        int // physical dimensionality
	PhysNList  int // physical IVF clusters
	PhysNProbe int // physical probes per query
	Templates  int // query template pool size
	Seed       uint64
	// Workers sizes the index-training/probing worker pool; non-positive
	// means one per CPU core. The built workload is bit-identical for
	// any value.
	Workers int
}

// DefaultGen is the standard laptop-scale realization: ~32k vectors,
// 128 clusters, 16-probe queries (probe share 12.5 %, vs the paper's
// 1.56 % — the difference is normalized away by Workload.kappa; the
// wider probe improves per-query hit-rate resolution to 1/16 steps).
func DefaultGen() GenConfig {
	return GenConfig{
		NCenters: 128, PerCenter: 256, Dim: 32,
		PhysNList: 128, PhysNProbe: 16, Templates: 512, Seed: 1,
	}
}

// Workload couples a Spec with its physical realization.
type Workload struct {
	Spec Spec
	Gen  GenConfig

	Index *ivf.Index
	Data  []float32 // physical corpus, row-major; Index trains PQ on it at first use

	templates     []template
	pop           *rng.Zipf
	popRotation   int     // popularity drift offset (see SetPopularityRotation)
	clusterBytes  []int64 // logical storage bytes per physical cluster
	scanTotal     []int64 // per-template full-probe scan bytes (ScanBytesAll)
	kappa         float64 // probe-width normalizer (see Build)
	totalVectors  int
	blobSpread    float64
	centers       []float32
	popByTemplate []float64 // draw probability per template
	distortion    distortionSlot
}

type template struct {
	vec    []float32
	probes []int // physical cluster IDs, most similar first
}

// pqM is the physical index's PQ subspace count (code bytes per vector).
const pqM = 8

// validate rejects a GenConfig Build cannot realize, naming the field.
func (gc GenConfig) validate() error {
	if gc.NCenters <= 0 || gc.PerCenter <= 0 || gc.Dim <= 0 {
		return fmt.Errorf("dataset: bad generation config %+v", gc)
	}
	n := gc.NCenters * gc.PerCenter
	switch {
	case gc.Templates < 1:
		return fmt.Errorf("dataset: Templates = %d, want >= 1", gc.Templates)
	case gc.PhysNList < 1 || gc.PhysNList > n:
		return fmt.Errorf("dataset: PhysNList = %d, want in [1, %d] (the corpus size)", gc.PhysNList, n)
	case gc.PhysNProbe < 1 || gc.PhysNProbe > gc.PhysNList:
		return fmt.Errorf("dataset: PhysNProbe = %d, want in [1, PhysNList = %d]", gc.PhysNProbe, gc.PhysNList)
	case gc.Dim%pqM != 0:
		return fmt.Errorf("dataset: Dim = %d, want a multiple of the %d PQ subspaces", gc.Dim, pqM)
	}
	return nil
}

// Build generates the corpus, builds the physical index (its PQ
// codebooks train on first use), precomputes template probe lists, and
// derives the logical-scale calibration.
func Build(spec Spec, gc GenConfig) (*Workload, error) {
	if err := gc.validate(); err != nil {
		return nil, err
	}
	r := rng.New(gc.Seed ^ hashName(spec.Name))
	const spread = 1.0
	centers := make([]float32, gc.NCenters*gc.Dim)
	for i := range centers {
		centers[i] = float32(r.NormFloat64()) * 8
	}
	n := gc.NCenters * gc.PerCenter
	data := make([]float32, n*gc.Dim)
	for c := 0; c < gc.NCenters; c++ {
		for i := 0; i < gc.PerCenter; i++ {
			row := (c*gc.PerCenter + i) * gc.Dim
			for d := 0; d < gc.Dim; d++ {
				data[row+d] = centers[c*gc.Dim+d] + float32(r.NormFloat64()*spread)
			}
		}
	}
	ix, err := ivf.Build(data, ivf.BuildConfig{
		Dim: gc.Dim, NList: gc.PhysNList, PQM: pqM, PQK: 64, TrainIters: 8, Seed: gc.Seed + 11,
		Workers: gc.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	w := &Workload{
		Spec: spec, Gen: gc, Index: ix, Data: data,
		totalVectors: n, blobSpread: spread, centers: centers,
	}

	// Query templates: each anchored at a convex mixture of a "home"
	// center (reused round-robin, so template rank correlates with a
	// region's popularity) and a random secondary center. Mixing matters:
	// a query's nprobe nearest clusters then span both a popular core
	// and colder periphery, so per-query hit rates under a hot-cluster
	// cache are graded rather than all-or-nothing — matching the wide
	// violins of the paper's Fig. 6 and the moderate variance of Fig. 8
	// (right).
	tr := rng.New(gc.Seed + 77)
	w.templates = make([]template, gc.Templates)
	for t := 0; t < gc.Templates; t++ {
		c1 := t % gc.NCenters
		c2 := tr.Intn(gc.NCenters)
		a := float32(0.60 + 0.3*tr.Float64()) // majority weight on home
		vec := make([]float32, gc.Dim)
		for d := 0; d < gc.Dim; d++ {
			mix := a*centers[c1*gc.Dim+d] + (1-a)*centers[c2*gc.Dim+d]
			vec[d] = mix + float32(tr.NormFloat64()*spread*spec.QueryNoise)
		}
		w.templates[t] = template{vec: vec}
	}
	// Probe lists are pure functions of the template vectors, so they
	// compute concurrently after the sequential RNG draws above. Each
	// chunk reuses one search scratch across its templates; only the
	// retained per-template probe list is allocated.
	parallel.For(gc.Templates, gc.Workers, func(start, end int) {
		s := ix.NewSearchScratch()
		for t := start; t < end; t++ {
			probes := ix.ProbeInto(s, w.templates[t].vec, gc.PhysNProbe)
			own := make([]int, len(probes))
			copy(own, probes)
			w.templates[t].probes = own
		}
	})
	w.pop = rng.NewZipf(gc.Templates, spec.SkewS)

	// Logical storage bytes per physical cluster: proportional share of
	// the paper-scale index footprint.
	sizes := ix.ClusterSizes()
	w.clusterBytes = make([]int64, len(sizes))
	for c, sz := range sizes {
		w.clusterBytes[c] = int64(float64(sz) / float64(n) * float64(spec.IndexBytes()))
	}

	// kappa normalizes per-query scan work so that the popularity-weighted
	// average query scans IndexBytes*NProbe/NList logical bytes, matching
	// the paper-scale probe fraction despite the wider physical probes.
	w.popByTemplate = templateProbabilities(gc.Templates, spec.SkewS)
	var avgShare float64
	for t, tpl := range w.templates {
		share := 0.0
		for _, c := range tpl.probes {
			share += float64(sizes[c]) / float64(n)
		}
		avgShare += share * w.popByTemplate[t]
	}
	if avgShare <= 0 {
		return nil, fmt.Errorf("dataset: degenerate probe share")
	}
	w.kappa = spec.ScanShare() / avgShare

	// Each template's full-probe scan work is fixed at build time; the
	// engines read it per request per batch, so precompute it (same
	// accumulation order as ScanBytes, hence bit-identical).
	w.scanTotal = make([]int64, gc.Templates)
	for t, tpl := range w.templates {
		var b float64
		for _, c := range tpl.probes {
			b += float64(w.clusterBytes[c])
		}
		w.scanTotal[t] = int64(b * w.kappa)
	}
	return w, nil
}

func templateProbabilities(n int, s float64) []float64 {
	p := make([]float64, n)
	sum := 0.0
	for i := range p {
		p[i] = math.Pow(float64(i+1), -s)
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// QueryID identifies a drawn query by its template.
type QueryID int32

// Sample draws a query according to template popularity.
func (w *Workload) Sample(r *rng.Rand) QueryID {
	t := w.pop.Draw(r)
	if w.popRotation != 0 {
		t = (t + w.popRotation) % len(w.templates)
	}
	return QueryID(t)
}

// SetPopularityRotation rotates which templates are popular: after
// SetPopularityRotation(k), the template that used to be rank i draws
// with rank (i-k)'s probability. The distributional *shape* is
// unchanged, but the identity of the hot clusters shifts — the query
// drift of paper §IV-B3 that invalidates a previously built hot set.
func (w *Workload) SetPopularityRotation(k int) {
	n := len(w.templates)
	w.popRotation = ((k % n) + n) % n
}

// PopularityRotation reports the current drift offset.
func (w *Workload) PopularityRotation() int { return w.popRotation }

// Probes returns the physical cluster IDs probed by the query. The
// returned slice is shared; callers must not mutate it.
func (w *Workload) Probes(q QueryID) []int { return w.templates[q].probes }

// QueryVector materializes an embedding for the query (template plus
// fresh noise), for use in real-scan validation paths.
func (w *Workload) QueryVector(q QueryID, r *rng.Rand) []float32 {
	t := w.templates[q]
	out := make([]float32, len(t.vec))
	for d := range out {
		out[d] = t.vec[d] + float32(r.NormFloat64()*w.blobSpread*w.Spec.QueryNoise*0.25)
	}
	return out
}

// InsertVector materializes a fresh database vector for a streaming
// insert: a template is drawn from the current (possibly drift-rotated)
// query popularity distribution, and the vector lands at that template
// with the corpus-level Gaussian spread — live inserts concentrate in
// the regions queries currently hit, like new documents on a trending
// topic. The draw sequence (template, then Dim noise values) is a pure
// function of the supplied RNG.
func (w *Workload) InsertVector(r *rng.Rand) []float32 {
	tpl := w.templates[w.Sample(r)]
	out := make([]float32, len(tpl.vec))
	for d := range out {
		out[d] = tpl.vec[d] + float32(r.NormFloat64()*w.blobSpread)
	}
	return out
}

// Templates returns the number of query templates.
func (w *Workload) Templates() int { return len(w.templates) }

// TemplateProbability returns the draw probability of template t.
func (w *Workload) TemplateProbability(t int) float64 { return w.popByTemplate[t] }

// ClusterBytes returns the logical storage bytes of physical cluster c.
func (w *Workload) ClusterBytes(c int) int64 { return w.clusterBytes[c] }

// TotalIndexBytes returns the logical index footprint.
func (w *Workload) TotalIndexBytes() int64 { return w.Spec.IndexBytes() }

// ScanBytes returns the logical bytes of LUT-scan work the query incurs
// over the given subset of its probed clusters. An empty subset is zero
// work; use ScanBytesAll for the full probe set.
func (w *Workload) ScanBytes(q QueryID, clusters []int) int64 {
	var b float64
	for _, c := range clusters {
		b += float64(w.clusterBytes[c])
	}
	return int64(b * w.kappa)
}

// ScanBytesAll returns the logical bytes of LUT-scan work over the
// query's entire probe set (the uncached cost). Precomputed at build
// time — this sits on the per-request routing hot path.
func (w *Workload) ScanBytesAll(q QueryID) int64 {
	return w.scanTotal[q]
}

// Kappa exposes the probe-width normalizer (for tests and docs).
func (w *Workload) Kappa() float64 { return w.kappa }

// AccessCounts replays queries through coarse quantization and counts
// per-cluster accesses — the profiling measurement behind Fig. 5.
// Tallies are integers, so per-chunk partial counts sum exactly
// regardless of worker count.
func (w *Workload) AccessCounts(queries []QueryID) []int64 {
	nlist := w.Index.NList()
	counts := make([]int64, nlist)
	var mu sync.Mutex
	parallel.For(len(queries), w.Gen.Workers, func(start, end int) {
		part := make([]int64, nlist)
		for _, q := range queries[start:end] {
			for _, c := range w.templates[q].probes {
				part[c]++
			}
		}
		mu.Lock()
		for c, n := range part {
			counts[c] += n
		}
		mu.Unlock()
	})
	return counts
}

// SampleMany draws n queries.
func (w *Workload) SampleMany(r *rng.Rand, n int) []QueryID {
	out := make([]QueryID, n)
	for i := range out {
		out[i] = w.Sample(r)
	}
	return out
}

// HitRate returns the count-based hit rate of query q against a hot-set
// membership mask: the fraction of its probed clusters that are cached
// (paper Fig. 6 definition).
func (w *Workload) HitRate(q QueryID, hot []bool) float64 {
	probes := w.templates[q].probes
	if len(probes) == 0 {
		return 0
	}
	hit := 0
	for _, c := range probes {
		if hot[c] {
			hit++
		}
	}
	return float64(hit) / float64(len(probes))
}

// WorkHitRate returns the work-weighted hit rate: the fraction of the
// query's scan bytes that land in cached clusters. This is the quantity
// that actually reduces CPU LUT time in Eq. 1 and is what the runtime
// engines use.
func (w *Workload) WorkHitRate(q QueryID, hot []bool) float64 {
	probes := w.templates[q].probes
	var total, hit float64
	for _, c := range probes {
		b := float64(w.clusterBytes[c])
		total += b
		if hot[c] {
			hit += b
		}
	}
	if total == 0 {
		return 0
	}
	return hit / total
}
