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
// bit-identical at every worker count. Once built, an integral
// allocates nothing. A MinGrid runs one pass at a time.
type MinGrid struct {
	workers int
	loop    *parallel.Loop
	logs    *[minSteps][2]float64 // gridLogs
	cdf     incBeta               // the pass in progress
	ns      int                   // batch sizes in the pass, 1 or 2
	n       [2]float64            // their exponents
	f       [2][minSteps]float64  // f[j][i] = (1 - F(i/minSteps))^n[j], interior i
}

// NewMinGrid returns a grid that integrates on the given number of
// workers (non-positive = one per CPU core).
func NewMinGrid(workers int) *MinGrid {
	g := &MinGrid{workers: workers, logs: gridLogs()}
	g.loop = parallel.NewLoop(g.fill)
	return g
}

// ExpectedMins sets out[j] to E[min of ns[j] draws of b] for one or two
// batch sizes, from one pass of the continued fraction over the grid:
// F(x) does not depend on n, only the power does. A batch size <= 1 is
// the distribution mean and costs nothing. ns and out have equal
// lengths; neither is retained.
func (g *MinGrid) ExpectedMins(b Beta, ns []int, out []float64) {
	if len(ns) > len(g.n) || len(out) != len(ns) {
		panic(fmt.Sprintf("stats: ExpectedMins of %d batch sizes into %d values", len(ns), len(out)))
	}
	g.ns = 0
	for j, n := range ns {
		if n > 1 {
			g.n[g.ns] = float64(n)
			g.ns++
		} else {
			out[j] = b.Mean()
		}
	}
	if g.ns == 0 {
		return
	}
	g.cdf = newIncBeta(b.Alpha, b.Beta) // once per pass, not per grid point
	g.loop.Run(minSteps-1, g.workers)
	k := 0
	for j, n := range ns {
		if n > 1 {
			out[j] = simpson(&g.f[k])
			k++
		}
	}
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
		a0, b0, x0, flip0 := g.cdf.args(i)
		a1, b1, x1, flip1 := g.cdf.args(i + 1)
		cf0, cf1 := betaCF2(a0, b0, x0, a1, b1, x1)
		g.store(i, g.cdf.value(g.logs, i, a0, cf0, flip0))
		g.store(i+1, g.cdf.value(g.logs, i+1, a1, cf1, flip1))
	}
	if i == end {
		a, b, x, flip := g.cdf.args(i)
		g.store(i, g.cdf.value(g.logs, i, a, betaCF(a, b, x), flip))
	}
}

// store sets grid point i of each batch size's integrand from F there.
func (g *MinGrid) store(i int, cdf float64) {
	surv := 1 - cdf
	switch {
	case surv <= 0:
		g.f[0][i], g.f[1][i] = 0, 0
	case g.ns == 1:
		g.f[0][i] = math.Pow(surv, g.n[0])
	default:
		g.f[0][i], g.f[1][i] = powPair(surv, g.n[0], g.n[1])
	}
}

// powPair is math.Pow(x, n0) and math.Pow(x, n1) for integer exponents
// n0, n1 >= 2 with math.Pow's bits. For such exponents math.Pow squares
// the mantissa of x once per exponent bit, multiplying in the squares
// the exponent's set bits select and tallying powers of two apart; the
// two exponents share the squarings, so one loop serves both. x outside
// (0, 1) takes math.Pow itself.
func powPair(x, n0, n1 float64) (float64, float64) {
	if !(x > 0 && x < 1) {
		return math.Pow(x, n0), math.Pow(x, n1)
	}
	a0, a1, e0, e1 := 1.0, 1.0, 0, 0
	x1, xe := math.Frexp(x)
	for i0, i1 := int64(n0), int64(n1); i0 != 0 || i1 != 0; i0, i1 = i0>>1, i1>>1 {
		if xe < -1<<12 || 1<<12 < xe {
			// Any square still to come underflows: math.Pow adds this
			// one's power of two and stops.
			if i0 != 0 {
				e0 += xe
			}
			if i1 != 0 {
				e1 += xe
			}
			break
		}
		if i0&1 == 1 {
			a0 *= x1
			e0 += xe
		}
		if i1&1 == 1 {
			a1 *= x1
			e1 += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	return math.Ldexp(a0, e0), math.Ldexp(a1, e1)
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

// betaCF is the continued fraction of I_x(a, b) by Lentz's method.
func betaCF(a, b, x float64) float64 {
	d := cfStart(a, b, x)
	return cfRun(a, b, x, 1, 1, d, d)
}

// betaCF2 is betaCF at two arguments at once. The two recurrences are
// independent, so interleaving them keeps both dependency chains in
// flight. Each lane runs cfRun's step in cfRun's order and stops on its
// own test, so each result has betaCF's bits.
func betaCF2(a0, b0, x0, a1, b1, x1 float64) (float64, float64) {
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
			if !done0 {
				h0 = cfRun(a0, b0, x0, m+1, c0, d0, h0)
			}
			if !done1 {
				h1 = cfRun(a1, b1, x1, m+1, c1, d1, h1)
			}
			break
		}
	}
	return h0, h1
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
// h. Each step folds the fraction's even and odd terms.
func cfRun(a, b, x float64, m int, c, d, h float64) float64 {
	for ; m <= cfMaxIter; m++ {
		fm, m2 := float64(m), float64(2*m)
		c, d = cfTerm(fm*(b-fm)*x/((a-1+m2)*(a+m2)), c, d)
		h *= d * c
		c, d = cfTerm(-(a+fm)*(a+b+fm)*x/((a+m2)*(a+1+m2)), c, d)
		del := d * c
		h *= del
		if math.Abs(del-1) < cfEps {
			break
		}
	}
	return h
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
