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
//
// Both loops skip work they can prove would change nothing (Hamerly's
// bound, made exact). A point keeps a float64 lower bound l on its
// distance to every centroid but its own (0 until its first scan; the
// first pass starts from the seeding's nearest pick): cut by the
// largest other-centroid move after each update, raised to 2·half[a] − u
// (half[a] is half the gap from its centroid to the nearest other). A
// pass recomputes only the assigned score s and scans all centroids only
// when l² − u² ≤ 2E, with u² = ‖x‖² + s + E. E = 2·(γ_{d+2}·(‖x‖ +
// max‖c‖)² + (d+1)·2⁻¹⁴⁸), γ_n = n·2⁻²⁴/(1 − n·2⁻²⁴), bounds the float32
// rounding (and subnormal underflow) of two norm-decomposed scores, so a
// skip proves every other score strictly larger: the scan would have
// returned the same index and score bits, ties and NaN/Inf (E = +Inf)
// always scan. k-means++ seeding skips a point's distance to a new pick c
// when (‖c − p‖ − √(d2 + E))² − d2 > 2E, p its nearest pick so far: the
// strict-less update cannot fire. Centroids, assignments and inertia are
// bit for bit those of the unpruned loops.
package kmeans

import (
	"fmt"
	"math"
	"sync/atomic"

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
	// means one per P (GOMAXPROCS). Results are identical for any value.
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
	res, _, err := train(data, cfg)
	return res, err
}

// skips counts the distance computations the bounds proved unnecessary:
// seed per (point, k-means++ pick) pair, assign per (point, Lloyd pass),
// first the first pass's share of assign.
type skips struct{ seed, assign, first int64 }

func train(data []float32, cfg Config) (*Result, skips, error) {
	if cfg.Dim <= 0 {
		return nil, skips{}, fmt.Errorf("kmeans: non-positive dim %d", cfg.Dim)
	}
	if len(data)%cfg.Dim != 0 {
		return nil, skips{}, fmt.Errorf("kmeans: data length %d not a multiple of dim %d", len(data), cfg.Dim)
	}
	n := len(data) / cfg.Dim
	if cfg.K <= 0 {
		return nil, skips{}, fmt.Errorf("kmeans: non-positive k %d", cfg.K)
	}
	if n < cfg.K {
		return nil, skips{}, fmt.Errorf("kmeans: %d vectors < %d centroids", n, cfg.K)
	}
	iters := cfg.MaxIters
	if iters <= 0 {
		iters = 15
	}
	dim, k := cfg.Dim, cfg.K
	r := rng.New(cfg.Seed)
	mg := newMargin(dim)
	xn := rowNorms64(data, dim) // ‖x_i‖, for the bounds

	// The seeding leaves every point at its nearest pick, which is where
	// the first pass starts: with l = 0 and no moves yet, the bounded path
	// confirms it wherever half the gap to the next centroid vouches.
	centroids, assign, seedSkips := seedPlusPlus(data, xn, dim, k, cfg.Workers, r, mg)
	dists := make([]float32, n)
	counts := make([]int, k)
	inertia := 0.0

	// The assignment step is distance-dominated, so it runs the
	// norm-decomposed argmin: data-vector norms are computed once for the
	// whole training run, centroid norms once per iteration, and the
	// inner loop reduces to a dot product per (vector, centroid) pair.
	dataNorms := vecmath.RowNorms(data, dim, nil)
	centNorms := make([]float32, k)
	lower := make([]float64, n) // l per point (see the package comment)
	half := make([]float64, k)
	moves := make([]float64, k) // ‖c_new − c_old‖ of the last update
	var skipped atomic.Int64

	// assignAll computes each vector's nearest centroid (and distance) on
	// the worker pool, scanning only where the bound cannot vouch for the
	// current assignment; per-vector writes keep it exact under
	// parallelism. It returns how many points the bound vouched for.
	assignAll := func() int64 {
		before := skipped.Load()
		vecmath.RowNorms(centroids, dim, centNorms)
		maxNorm := geometry(centroids, dim, half)
		cut, cutOwn, mover := largestMoves(moves)
		parallel.For(n, cfg.Workers, func(start, end int) {
			pruned := int64(0)
			for i := start; i < end; i++ {
				v := data[i*dim : (i+1)*dim]
				e := mg.of(xn[i], maxNorm)
				xx := xn[i] * xn[i]
				a := assign[i]
				s := centNorms[a] - 2*vecmath.Dot(v, centroids[a*dim:(a+1)*dim])
				u2 := xx + float64(s) + e
				l := lower[i] - cut
				if a == mover {
					l = lower[i] - cutOwn
				}
				if t := 2*half[a] - math.Sqrt(u2); t > l {
					l = t
				}
				if l > 0 && l*l-u2 > 2*e {
					lower[i] = l
					dists[i] = sqDist(dataNorms[i], s)
					pruned++
					continue
				}
				j, score, second := vecmath.ArgminNormScore(v, centroids, centNorms, dim)
				assign[i] = j
				dists[i] = sqDist(dataNorms[i], score)
				lower[i] = math.Sqrt(max(0, xx+float64(second)-e))
			}
			skipped.Add(pruned)
		})
		return skipped.Load() - before
	}

	var first int64
	for iter := 0; iter < iters; iter++ {
		// Assignment step (parallel).
		if pruned := assignAll(); iter == 0 {
			first = pruned
		}
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
			vecmath.Add(next[c*dim:(c+1)*dim], data[i*dim:(i+1)*dim])
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster with a random training vector —
				// the standard fix that keeps all K centroids meaningful.
				i := r.Intn(n)
				copy(next[c*dim:(c+1)*dim], data[i*dim:(i+1)*dim])
				continue
			}
			vecmath.Scale(next[c*dim:(c+1)*dim], 1/float32(counts[c]))
		}
		for c := range moves {
			moves[c] = dist64(centroids[c*dim:(c+1)*dim], next[c*dim:(c+1)*dim])
		}
		centroids = next
	}
	// Final assignment against the last centroid update.
	assignAll()
	inertia = 0
	for i := 0; i < n; i++ {
		inertia += float64(dists[i])
	}
	return &Result{Centroids: centroids, Assignments: assign, Inertia: inertia},
		skips{seed: seedSkips, assign: skipped.Load(), first: first}, nil
}

// sqDist is the squared distance ArgminNormScore's caller reconstructs:
// the point's norm plus the winning score, clamped at zero.
func sqDist(norm, score float32) float32 {
	d := norm + score
	if d < 0 {
		d = 0
	}
	return d
}

// margin evaluates E (see the package comment) for dimension d.
type margin struct{ gamma, eta float64 }

func newMargin(d int) margin {
	nu := float64(d+2) * 0x1p-24
	return margin{gamma: nu / (1 - nu), eta: float64(d+1) * 0x1p-148}
}

// of returns E for a point of norm xn against rows of norm at most m. It
// is +Inf, disabling every skip, when a norm is not finite or a float32
// intermediate of a score could overflow, where the bound fails.
func (mg margin) of(xn, m float64) float64 {
	b := (xn + m) * (xn + m)
	if !(b < 0x1p127) {
		return math.Inf(1)
	}
	return 2 * (mg.gamma*b + mg.eta)
}

// norm64 returns ‖v‖ in float64: exact to a few float64 ulps for any
// finite float32 input, with no underflow or overflow.
func norm64(v []float32) float64 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}

// rowNorms64 returns every row's norm64.
func rowNorms64(data []float32, dim int) []float64 {
	xn := make([]float64, len(data)/dim)
	for i := range xn {
		xn[i] = norm64(data[i*dim : (i+1)*dim])
	}
	return xn
}

// dist64 returns ‖a − b‖ in float64, to the same accuracy as norm64.
func dist64(a, b []float32) float64 {
	b = b[:len(a)]
	var s float64
	for i, x := range a {
		d := float64(x) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// geometry fills half[c] with half the distance from centroid c to its
// nearest other centroid (+Inf when there is none) and returns the
// largest centroid norm, NaN when a centroid holds a NaN. A non-finite
// centroid thus makes E infinite for the whole pass: every point is
// scanned and its l reset to 0 or NaN, so no bound outlives it.
func geometry(cents []float32, dim int, half []float64) float64 {
	for c := range half {
		half[c] = math.Inf(1)
	}
	m := 0.0
	for c := range half {
		cc := cents[c*dim : (c+1)*dim]
		m = max(m, norm64(cc))
		for o := c + 1; o < len(half); o++ {
			h := dist64(cc, cents[o*dim:(o+1)*dim]) / 2
			half[c], half[o] = min(half[c], h), min(half[o], h)
		}
	}
	return m
}

// largestMoves returns the largest centroid move, the largest among the
// others, and the index of the first: a point's l drops by the largest
// move of a centroid other than its own.
func largestMoves(moves []float64) (top, second float64, mover int) {
	mover = -1
	for c, m := range moves {
		if m > top {
			top, second, mover = m, top, c
		} else if m > second {
			second = m
		}
	}
	return top, second, mover
}

// seedPlusPlus picks K initial centroids with D^2 weighting
// (k-means++), which gives provably bounded inertia and — more
// importantly here — deterministic, well-spread clusters. The
// min-distance table updates run on the worker pool (per-element
// writes); the weighted draw scans the table sequentially, so the picks
// are worker-count independent. It also returns each point's nearest
// pick (the first among equals) and how many (point, pick) distances the
// bound skipped.
func seedPlusPlus(data []float32, xn []float64, dim, k, workers int, r *rng.Rand, mg margin) ([]float32, []int, int64) {
	n := len(xn)
	centroids := make([]float32, k*dim)
	first := r.Intn(n)
	copy(centroids[:dim], data[first*dim:(first+1)*dim])

	// d2[i] is vector i's squared distance to its nearest pick so far and
	// near[i] that pick. A later pick c can lower d2[i] only within
	// far[i] = √(d2 + E) + √(d2 + 2E) of near[i]: beyond it, (‖c − near‖ −
	// √(d2 + E))² − d2 > 2E. Picks are rows, so E takes the largest row
	// norm as max‖c‖. Pick 0 sets every entry through the
	// four-rows-at-a-time kernel; later picks first test one float per row.
	xmax := 0.0
	for _, v := range xn {
		xmax = max(xmax, v)
	}
	d2 := make([]float64, n)
	near := make([]int, n)
	far := make([]float64, n)
	set := func(i, c int, v float64) {
		e := mg.of(xn[i], xmax)
		d2[i], near[i], far[i] = v, c, math.Sqrt(v+e)+math.Sqrt(v+2*e)
	}
	dist := make([]float32, n)
	parallel.For(n, workers, func(start, end int) {
		vecmath.SquaredL2Rows(centroids[:dim], data[start*dim:end*dim], dim, dist[start:end])
		for i := start; i < end; i++ {
			set(i, 0, float64(dist[i]))
		}
	})
	var skipped atomic.Int64
	pickDist := make([]float64, k) // ‖newest pick − pick j‖
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
		cent := centroids[c*dim : (c+1)*dim]
		copy(cent, data[pick*dim:(pick+1)*dim])
		for j := 0; j < c; j++ {
			pickDist[j] = dist64(cent, centroids[j*dim:(j+1)*dim])
		}
		// Rows go four at a time, the blocked kernel's width: a group is
		// skipped when the bound rules out all four, else scored whole —
		// a ruled-out row's distance cannot pass the strict-less update.
		parallel.For(n, workers, func(start, end int) {
			pruned := int64(0)
			var dist4 [4]float32
			for i := start; i < end; i += 4 {
				m := min(4, end-i)
				out := 0
				for j := i; j < i+m; j++ {
					if pickDist[near[j]] > far[j] {
						out++
					}
				}
				if out == m {
					pruned += int64(m)
					continue
				}
				vecmath.SquaredL2Rows(cent, data[i*dim:(i+m)*dim], dim, dist4[:m])
				for j, v := range dist4[:m] {
					if v := float64(v); v < d2[i+j] {
						set(i+j, c, v)
					}
				}
			}
			skipped.Add(pruned)
		})
	}
	return centroids, near, skipped.Load()
}
