// Package stats provides the statistical machinery behind
// VectorLiteRAG's analytical models: the Beta distribution used for
// per-query hit rates (paper §IV-A2), first-order-statistic integrals
// for the minimum hit rate within a batch (Eq. 2), percentile and
// histogram utilities for latency metrics, and piecewise-linear models
// for search-latency-vs-batch-size curves (paper Fig. 8).
package stats

import (
	"fmt"
	"math"
	"sync"

	"vectorliterag/internal/parallel"
)

// Beta is a Beta(alpha, beta) distribution on [0, 1]. The paper models
// per-query cache hit rates with this family because it is the standard
// Bayesian choice for [0,1]-constrained variables and its variance has
// the same parabolic η(1-η) shape observed empirically (Fig. 8 right).
type Beta struct {
	Alpha, Beta float64
}

// NewBetaFromMoments returns the Beta distribution with the given mean
// and variance. It returns an error when the moments are infeasible
// (mean outside (0,1), or variance >= mean(1-mean), which no Beta can
// achieve).
func NewBetaFromMoments(mean, variance float64) (Beta, error) {
	if mean <= 0 || mean >= 1 {
		return Beta{}, fmt.Errorf("stats: beta mean %v outside (0,1)", mean)
	}
	limit := mean * (1 - mean)
	if variance <= 0 {
		return Beta{}, fmt.Errorf("stats: beta variance %v must be positive", variance)
	}
	if variance >= limit {
		return Beta{}, fmt.Errorf("stats: beta variance %v >= mean(1-mean)=%v is infeasible", variance, limit)
	}
	// Method of moments: nu = mean(1-mean)/var - 1; alpha = mean*nu.
	nu := limit/variance - 1
	return Beta{Alpha: mean * nu, Beta: (1 - mean) * nu}, nil
}

// Mean returns alpha/(alpha+beta).
func (b Beta) Mean() float64 { return b.Alpha / (b.Alpha + b.Beta) }

// Variance returns the distribution variance.
func (b Beta) Variance() float64 {
	s := b.Alpha + b.Beta
	return b.Alpha * b.Beta / (s * s * (s + 1))
}

// minSteps is the Simpson grid of Eq. 2's integral (even).
const minSteps = 2000

// gridLogs holds ln x and ln(1-x) at the grid's interior points
// x = i/minSteps: the math.Log calls every integral's front factor
// x^α (1-x)^β makes, made once per process.
var gridLogs = sync.OnceValue(func() *[minSteps][2]float64 {
	const h = 1.0 / minSteps
	var t [minSteps][2]float64
	for i := 1; i < minSteps; i++ {
		x := float64(i) * h
		t[i] = [2]float64{math.Log(x), math.Log(1 - x)}
	}
	return &t
})

// MinGrid is the reusable quadrature of the paper's Eq. 2, the expected
// minimum of n iid Beta draws:
//
//	eta_min(n) = ∫ n·x·f(x)·(1-F(x))^(n-1) dx
//
// Rather than integrating that density form directly — which is
// numerically treacherous when alpha or beta < 1 (the density is
// singular at the boundary and fixed-grid quadrature silently drops
// mass) — it integrates the equivalent survival form obtained by parts,
//
//	E[min] = ∫ (1-F(x))^n dx,
//
// whose integrand is bounded in [0,1] everywhere, on a 2 001-point
// Simpson grid. Each interior point is independent, so a worker pool
// fills them and any worker count fills the same values; the Simpson
// sum then folds them in index order on one goroutine, so the result is
// bit-identical at every worker count.
//
// A caller that only needs to know which side of a threshold the
// integral falls on asks MinBelow, which evaluates the few grid points
// the answer needs and bounds the rest (see MinBelow). Once built, a
// grid allocates nothing. A MinGrid runs one pass or comparison at a
// time.
type MinGrid struct {
	workers int
	loop    *parallel.Loop
	logs    *[minSteps][2]float64 // gridLogs
	cdf     incBeta               // the pass in progress
	n       float64               // its batch size, the integrand's exponent
	f       [minSteps]float64     // f[i] = (1 - F(i/minSteps))^n, interior i
	cfs     int                   // continued fractions evaluated; tests fence them

	// A comparison's state: the blocks still to split, widest bound
	// first, and the bounds' running sums (see MinBelow).
	heap                [minHeap]block
	nheap               int
	known, lower, upper float64
}

// NewMinGrid returns a grid that integrates on the given number of
// workers (non-positive = parallel.Workers's default, one per P).
func NewMinGrid(workers int) *MinGrid {
	g := &MinGrid{workers: workers, logs: gridLogs()}
	g.loop = parallel.NewLoop(g.fill)
	return g
}

// ExpectedMin returns E[min of n draws of b] from one pass of the
// continued fraction over the grid. A batch size <= 1 is the
// distribution mean and costs nothing.
func (g *MinGrid) ExpectedMin(b Beta, n int) float64 {
	if n <= 1 {
		return b.Mean()
	}
	g.n = float64(n)
	g.cdf = newIncBeta(b.Alpha, b.Beta) // once per pass, not per grid point
	g.pass()
	return simpson(&g.f)
}

// CFs reports how many continued fractions g has evaluated: minSteps−1
// per pass, and the points each comparison evaluated.
func (g *MinGrid) CFs() int { return g.cfs }

// pass evaluates every interior grid point of the distribution in g.cdf
// on the worker pool.
func (g *MinGrid) pass() {
	g.loop.Run(minSteps-1, g.workers)
	g.cfs += minSteps - 1
}

// A comparison's constants. A computed grid value (1-F)^n differs from
// the exact one by at most n·ε_CF, ε_CF ≈ 1e-12 being the continued
// fraction's accuracy. The exact integrand never increases, so a point
// not evaluated lies within 2n·ε_CF of the range its evaluated
// neighbours span, and the Simpson weights times h/3 sum to 1: the sum
// simpson() would return lies within 2n·ε_CF, plus the running sums'
// rounding (~1e-13), of the bounds. For n <= minBoundBatch that is
// under 1.3e-10, far inside minDelta, so bounds that clear η by
// minDelta decide simpson() < η exactly.
const (
	minDelta      = 1e-8
	minBoundBatch = 64
	// minStride spaces the points a comparison evaluates first, and
	// minBudget is how many it evaluates before it makes the full pass.
	minStride = 128
	minBudget = 256
	// minHeap holds the blocks the first points leave, and one more per
	// point after them.
	minHeap = minBudget + minSteps/minStride + 2
)

// block is a run of unevaluated grid points strictly between evaluated
// points l and r, keyed by how far it holds the bounds apart.
type block struct {
	gap  float64
	l, r int32
}

// MinBelow reports whether E[min of n draws of b] — ExpectedMin's value,
// bit for bit — is below eta, and returns an interval [lo, hi] that
// value is proven to lie in: lo == hi when it was computed exactly.
//
// It evaluates every minStride-th grid point, then repeatedly evaluates
// the midpoints of the two blocks of unevaluated points that hold the
// bounds furthest apart, until the bounds clear eta by minDelta. An
// unevaluated point's value lies between its evaluated neighbours',
// because (1-F)^n never increases. Bounds that never clear eta — after
// minBudget points, for n > minBoundBatch, or when a continued fraction
// ran out of steps and so voided ε_CF — give way to a full pass and the
// exact Simpson sum. A batch size <= 1 is the distribution mean.
func (g *MinGrid) MinBelow(b Beta, n int, eta float64) (below bool, lo, hi float64) {
	if 1 < n && n <= minBoundBatch {
		g.n, g.cdf = float64(n), newIncBeta(b.Alpha, b.Beta)
		if lo, hi, ok := g.bound(eta); ok {
			return hi < eta, lo, hi
		}
	}
	v := g.ExpectedMin(b, n)
	return v < eta, v, v
}

// bound runs MinBelow's refinement and returns the bounds, widened by
// minDelta, once they clear eta; ok is false when they do not.
func (g *MinGrid) bound(eta float64) (lo, hi float64, ok bool) {
	const h3 = 1.0 / minSteps / 3
	g.nheap, g.lower, g.upper = 0, 0, 0
	g.known = 1 // (1 - F(0))^n, Simpson weight 1; the far end is 0
	start := g.cfs
	for i := minStride; i < minSteps; i += 2 * minStride {
		j := i + minStride
		if j >= minSteps {
			j = i // one point left
		}
		if !g.eval(i, j) {
			return 0, 0, false
		}
	}
	l := 0
	for r := minStride; r < minSteps; r += minStride {
		g.known += g.weighted(r)
		g.addBlock(l, r)
		l = r
	}
	g.addBlock(l, minSteps)
	for {
		lo, hi = (g.known+g.lower)*h3-minDelta, (g.known+g.upper)*h3+minDelta
		if hi < eta || lo >= eta {
			return lo, hi, true
		}
		if g.nheap == 0 || g.cfs-start >= minBudget {
			return 0, 0, false
		}
		b0 := g.pop()
		b1 := b0
		if g.nheap > 0 {
			b1 = g.pop()
		}
		m0, m1 := int(b0.l+b0.r)/2, int(b1.l+b1.r)/2
		if !g.eval(m0, m1) {
			return 0, 0, false
		}
		g.split(b0, m0)
		if m1 != m0 {
			g.split(b1, m1)
		}
	}
}

// eval evaluates grid points i and j (j == i: one point) for the
// comparison in progress and reports whether every continued fraction
// converged.
func (g *MinGrid) eval(i, j int) bool {
	if i == j {
		g.cfs++
		return g.point(i)
	}
	g.cfs += 2
	return g.point2(i, j)
}

// weighted is interior grid point i's term of the Simpson sum: its
// weight (4 at odd, 2 at even points) times its value.
func (g *MinGrid) weighted(i int) float64 {
	return float64(2+2*(i&1)) * g.f[i]
}

// at is the integrand at grid point i, the two end points included.
func (g *MinGrid) at(i int) float64 {
	switch i {
	case 0:
		return 1
	case minSteps:
		return 0
	}
	return g.f[i]
}

// weights is the Simpson weight of the grid points strictly between l
// and r: 2 each, and 2 more at each odd one.
func weights(l, r int) float64 {
	return float64(2*(r-l-1) + 2*(r/2-(l+1)/2))
}

// addBlock adds the unevaluated points strictly between l and r to the
// bounds — at their neighbours' values, r's below and l's above — and
// queues the block for a split if it holds the bounds apart.
func (g *MinGrid) addBlock(l, r int) {
	w := weights(l, r)
	fl, fr := g.at(l), g.at(r)
	g.lower += w * fr
	g.upper += w * fl
	if gap := w * (fl - fr); gap > 0 {
		g.push(block{gap: gap, l: int32(l), r: int32(r)})
	}
}

// split replaces block b by the two halves either side of its newly
// evaluated point m.
func (g *MinGrid) split(b block, m int) {
	l, r := int(b.l), int(b.r)
	w := weights(l, r)
	g.lower -= w * g.at(r)
	g.upper -= w * g.at(l)
	g.known += g.weighted(m)
	g.addBlock(l, m)
	g.addBlock(m, r)
}

// push and pop keep g.heap[:g.nheap] a max-heap on gap.
func (g *MinGrid) push(b block) {
	h := g.heap[:g.nheap+1]
	i := g.nheap
	for i > 0 {
		p := (i - 1) / 2
		if h[p].gap >= b.gap {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = b
	g.nheap++
}

func (g *MinGrid) pop() block {
	h := g.heap[:g.nheap]
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	g.nheap--
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].gap > h[c].gap {
			c++
		}
		if last.gap >= h[c].gap {
			break
		}
		h[i] = h[c]
		i = c
	}
	if len(h) > 0 {
		h[i] = last
	}
	return top
}

// simpson is the Simpson sum of one integrand, folded in index order.
// The end points are (1 - F(0))^n = 1 and (1 - F(1))^n = 0.
func simpson(f *[minSteps]float64) float64 {
	const h = 1.0 / minSteps
	sum := 1.0
	for i := 1; i < minSteps-1; i += 2 {
		sum += 4 * f[i]
		sum += 2 * f[i+1]
	}
	sum += 4 * f[minSteps-1]
	return sum * h / 3
}

// fill evaluates interior grid points 1+start ... end, two at a time so
// that two continued fractions are in flight at once.
func (g *MinGrid) fill(start, end int) {
	i := start + 1
	for ; i < end; i += 2 {
		g.point2(i, i+1)
	}
	if i == end {
		g.point(i)
	}
}

// point2 evaluates grid points i and j through one interleaved pair of
// continued fractions, and reports whether both converged.
func (g *MinGrid) point2(i, j int) bool {
	a0, b0, x0, flip0 := g.cdf.args(i)
	a1, b1, x1, flip1 := g.cdf.args(j)
	cf0, cf1, ok := betaCF2(a0, b0, x0, a1, b1, x1)
	g.store(i, g.cdf.value(g.logs, i, a0, cf0, flip0))
	g.store(j, g.cdf.value(g.logs, j, a1, cf1, flip1))
	return ok
}

// point evaluates grid point i, and reports whether its continued
// fraction converged.
func (g *MinGrid) point(i int) bool {
	a, b, x, flip := g.cdf.args(i)
	cf, ok := betaCF(a, b, x)
	g.store(i, g.cdf.value(g.logs, i, a, cf, flip))
	return ok
}

// store sets grid point i of the integrand from F there.
func (g *MinGrid) store(i int, cdf float64) {
	surv := 1 - cdf
	if surv <= 0 {
		g.f[i] = 0
		return
	}
	g.f[i] = math.Pow(surv, g.n)
}

// logBetaFn returns ln B(a, b) = lnΓ(a) + lnΓ(b) − lnΓ(a+b).
func logBetaFn(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// incBeta is the regularized incomplete beta function I_x(a, b), the
// Beta CDF, for one (a, b) at the grid's points, by the continued
// fraction of Numerical Recipes (Lentz's method), accurate to ~1e-12
// for moderate a, b. ln B(a, b) (three Lgamma calls) and the point
// where the fraction switches to its symmetric form depend on the
// distribution alone, so a pass pays for them once.
type incBeta struct {
	a, b, lnB, split float64
}

func newIncBeta(a, b float64) incBeta {
	return incBeta{a: a, b: b, lnB: logBetaFn(a, b), split: (a + 1) / (a + b + 2)}
}

// args returns betaCF's arguments at interior grid point i, and whether
// they are the symmetric form's: I_x(a, b) = 1 - I_{1-x}(b, a).
func (f incBeta) args(i int) (a, b, x float64, flip bool) {
	const h = 1.0 / minSteps
	x = float64(i) * h
	if x < f.split {
		return f.a, f.b, x, false
	}
	return f.b, f.a, 1 - x, true
}

// value is I_x(a, b) at interior grid point i from the continued
// fraction cf that args(i) named (a is its first argument).
func (f incBeta) value(logs *[minSteps][2]float64, i int, a, cf float64, flip bool) float64 {
	front := math.Exp(f.a*logs[i][0] + f.b*logs[i][1] - f.lnB)
	if flip {
		return 1 - front*cf/a
	}
	return front * cf / a
}

// The continued fraction's limits: at most cfMaxIter steps, stopping
// once a step changes h by less than cfEps; cfTiny keeps Lentz's c and
// d off zero.
const (
	cfMaxIter = 300
	cfEps     = 1e-14
	cfTiny    = 1e-300
)

// betaCF is the continued fraction of I_x(a, b) by Lentz's method, and
// whether it converged within cfMaxIter steps.
func betaCF(a, b, x float64) (float64, bool) {
	d := cfStart(a, b, x)
	return cfRun(a, b, x, 1, 1, d, d)
}

// betaCF2 is betaCF at two arguments at once, and whether both
// converged. The two recurrences are independent, so interleaving them
// keeps both dependency chains in flight. Each lane runs cfRun's step in
// cfRun's order and stops on its own test, so each result has betaCF's
// bits.
func betaCF2(a0, b0, x0, a1, b1, x1 float64) (float64, float64, bool) {
	d0, d1 := cfStart(a0, b0, x0), cfStart(a1, b1, x1)
	c0, h0, c1, h1 := 1.0, d0, 1.0, d1
	for m := 1; m <= cfMaxIter; m++ {
		fm, m2 := float64(m), float64(2*m)
		c0, d0 = cfTerm(fm*(b0-fm)*x0/((a0-1+m2)*(a0+m2)), c0, d0)
		c1, d1 = cfTerm(fm*(b1-fm)*x1/((a1-1+m2)*(a1+m2)), c1, d1)
		h0 *= d0 * c0
		h1 *= d1 * c1
		c0, d0 = cfTerm(-(a0+fm)*(a0+b0+fm)*x0/((a0+m2)*(a0+1+m2)), c0, d0)
		c1, d1 = cfTerm(-(a1+fm)*(a1+b1+fm)*x1/((a1+m2)*(a1+1+m2)), c1, d1)
		del0, del1 := d0*c0, d1*c1
		h0 *= del0
		h1 *= del1
		if done0, done1 := math.Abs(del0-1) < cfEps, math.Abs(del1-1) < cfEps; done0 || done1 {
			ok0, ok1 := true, true
			if !done0 {
				h0, ok0 = cfRun(a0, b0, x0, m+1, c0, d0, h0)
			}
			if !done1 {
				h1, ok1 = cfRun(a1, b1, x1, m+1, c1, d1, h1)
			}
			return h0, h1, ok0 && ok1
		}
	}
	return h0, h1, false
}

// cfStart is Lentz's d (and h) before betaCF's first step.
func cfStart(a, b, x float64) float64 {
	d := 1 - (a+b)*x/(a+1)
	if math.Abs(d) < cfTiny {
		d = cfTiny
	}
	return 1 / d
}

// cfRun continues betaCF's fraction from step m in state (c, d, h) until
// a step changes h by less than cfEps or the steps run out, and returns
// h and whether the fraction converged. Each step folds the fraction's
// even and odd terms.
func cfRun(a, b, x float64, m int, c, d, h float64) (float64, bool) {
	for ; m <= cfMaxIter; m++ {
		fm, m2 := float64(m), float64(2*m)
		c, d = cfTerm(fm*(b-fm)*x/((a-1+m2)*(a+m2)), c, d)
		h *= d * c
		c, d = cfTerm(-(a+fm)*(a+b+fm)*x/((a+m2)*(a+1+m2)), c, d)
		del := d * c
		h *= del
		if math.Abs(del-1) < cfEps {
			return h, true
		}
	}
	return h, false
}

// cfTerm folds one term aa into Lentz's c and d; d comes back inverted.
func cfTerm(aa, c, d float64) (float64, float64) {
	d = 1 + aa*d
	if math.Abs(d) < cfTiny {
		d = cfTiny
	}
	c = 1 + aa/c
	if math.Abs(c) < cfTiny {
		c = cfTiny
	}
	return c, 1 / d
}
