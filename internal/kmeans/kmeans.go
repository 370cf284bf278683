// Package kmeans implements Lloyd's algorithm with k-means++ seeding.
// It trains both the IVF coarse quantizer (cluster centroids) and the
// per-subspace product-quantization codebooks, mirroring the role
// k-means plays in Faiss index construction (paper §II-A).
//
// The distance-dominated loops (assignment, seeding distance tables)
// run on a worker pool sized by Config.Workers; results are
// bit-identical for any worker count because every parallel section
// writes per-vector outputs and the order-sensitive floating-point
// reductions (centroid accumulation, inertia) are folded sequentially
// in index order (see internal/parallel).
package kmeans

import (
	"fmt"

	"vectorliterag/internal/parallel"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/vecmath"
)

// Config controls training.
type Config struct {
	K        int // number of centroids
	Dim      int // vector dimensionality
	MaxIters int // Lloyd iterations; default 15
	Seed     uint64
	// Workers sizes the assignment/seeding worker pool; non-positive
	// means one per CPU core. Results are identical for any value.
	Workers int
}

// Result holds trained centroids and final assignments.
type Result struct {
	Centroids   []float32 // K x Dim row-major
	Assignments []int     // len == number of training vectors
	Inertia     float64   // sum of squared distances to assigned centroid
}

// Train clusters the row-major training matrix into cfg.K centroids.
// It returns an error when the input is malformed or has fewer vectors
// than centroids.
func Train(data []float32, cfg Config) (*Result, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("kmeans: non-positive dim %d", cfg.Dim)
	}
	if len(data)%cfg.Dim != 0 {
		return nil, fmt.Errorf("kmeans: data length %d not a multiple of dim %d", len(data), cfg.Dim)
	}
	n := len(data) / cfg.Dim
	if cfg.K <= 0 {
		return nil, fmt.Errorf("kmeans: non-positive k %d", cfg.K)
	}
	if n < cfg.K {
		return nil, fmt.Errorf("kmeans: %d vectors < %d centroids", n, cfg.K)
	}
	iters := cfg.MaxIters
	if iters <= 0 {
		iters = 15
	}
	r := rng.New(cfg.Seed)

	centroids := seedPlusPlus(data, n, cfg.Dim, cfg.K, cfg.Workers, r)
	assign := make([]int, n)
	dists := make([]float32, n)
	counts := make([]int, cfg.K)
	inertia := 0.0

	// The assignment step is distance-dominated, so it runs the
	// norm-decomposed argmin: data-vector norms are computed once for the
	// whole training run, centroid norms once per iteration, and the
	// inner loop reduces to a dot product per (vector, centroid) pair.
	dataNorms := vecmath.RowNorms(data, cfg.Dim, nil)
	centNorms := make([]float32, cfg.K)

	// assignAll computes each vector's nearest centroid (and distance) on
	// the worker pool; per-vector writes keep it exact under parallelism.
	assignAll := func() {
		vecmath.RowNorms(centroids, cfg.Dim, centNorms)
		parallel.For(n, cfg.Workers, func(start, end int) {
			for i := start; i < end; i++ {
				v := data[i*cfg.Dim : (i+1)*cfg.Dim]
				j, score := vecmath.ArgminNormScore(v, centroids, centNorms, cfg.Dim)
				assign[i] = j
				d := dataNorms[i] + score
				if d < 0 {
					d = 0
				}
				dists[i] = d
			}
		})
	}

	for iter := 0; iter < iters; iter++ {
		// Assignment step (parallel).
		assignAll()
		// Update step: accumulate in index order so the float32 sums match
		// the single-threaded fold bit for bit.
		inertia = 0
		next := make([]float32, len(centroids))
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			inertia += float64(dists[i])
			vecmath.Add(next[c*cfg.Dim:(c+1)*cfg.Dim], data[i*cfg.Dim:(i+1)*cfg.Dim])
		}
		for c := 0; c < cfg.K; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster with a random training vector —
				// the standard fix that keeps all K centroids meaningful.
				i := r.Intn(n)
				copy(next[c*cfg.Dim:(c+1)*cfg.Dim], data[i*cfg.Dim:(i+1)*cfg.Dim])
				continue
			}
			vecmath.Scale(next[c*cfg.Dim:(c+1)*cfg.Dim], 1/float32(counts[c]))
		}
		centroids = next
	}
	// Final assignment against the last centroid update.
	assignAll()
	inertia = 0
	for i := 0; i < n; i++ {
		inertia += float64(dists[i])
	}
	return &Result{Centroids: centroids, Assignments: assign, Inertia: inertia}, nil
}

// seedPlusPlus picks K initial centroids with D^2 weighting
// (k-means++), which gives provably bounded inertia and — more
// importantly here — deterministic, well-spread clusters. The
// min-distance table updates run on the worker pool (per-element
// writes); the weighted draw scans the table sequentially, so the picks
// are worker-count independent.
func seedPlusPlus(data []float32, n, dim, k, workers int, r *rng.Rand) []float32 {
	centroids := make([]float32, k*dim)
	first := r.Intn(n)
	copy(centroids[:dim], data[first*dim:(first+1)*dim])

	// d2[i] is vector i's squared distance to its nearest pick so far:
	// pick 0 sets it, each later pick lowers it. dist is the float32
	// scratch the four-rows-at-a-time kernel writes a chunk's distances to
	// the newest pick into.
	d2 := make([]float64, n)
	dist := make([]float32, n)
	lower := func(c int) {
		cent := centroids[c*dim : (c+1)*dim]
		parallel.For(n, workers, func(start, end int) {
			vecmath.SquaredL2Rows(cent, data[start*dim:end*dim], dim, dist[start:end])
			for i := start; i < end; i++ {
				if v := float64(dist[i]); c == 0 || v < d2[i] {
					d2[i] = v
				}
			}
		})
	}
	lower(0)
	for c := 1; c < k; c++ {
		total := 0.0
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = r.Intn(n)
		} else {
			target := r.Float64() * total
			cum := 0.0
			pick = n - 1
			for i, d := range d2 {
				cum += d
				if cum >= target {
					pick = i
					break
				}
			}
		}
		copy(centroids[c*dim:(c+1)*dim], data[pick*dim:(pick+1)*dim])
		lower(c)
	}
	return centroids
}
