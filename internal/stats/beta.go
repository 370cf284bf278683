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

// CDF evaluates the cumulative distribution at x via the regularized
// incomplete beta function I_x(alpha, beta).
func (b Beta) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	return RegIncBeta(b.Alpha, b.Beta, x)
}

// ExpectedMin returns E[min of n iid draws], the first-order statistic
// mean from the paper's Eq. 2:
//
//	eta_min(n) = ∫ n·x·f(x)·(1-F(x))^(n-1) dx
//
// Rather than integrating that density form directly — which is
// numerically treacherous when alpha or beta < 1 (the density is
// singular at the boundary and fixed-grid quadrature silently drops
// mass) — we integrate the equivalent survival form obtained by parts:
//
//	E[min] = ∫ (1-F(x))^n dx
//
// whose integrand is bounded in [0,1] everywhere. n must be >= 1;
// n = 1 reduces to the distribution mean.
//
// It is the one-shot form of MinGrid.ExpectedMin on one worker.
func (b Beta) ExpectedMin(n int) float64 { return NewMinGrid(1).ExpectedMin(b, n) }

// minSteps is the Simpson grid of ExpectedMin (even).
const minSteps = 2000

// MinGrid is ExpectedMin's reusable quadrature: the grid of integrand
// values and the loop that fills its interior points on a worker pool.
// Each point is independent, so any worker count fills the same values;
// the Simpson sum then folds them in index order on one goroutine, so
// the result is bit-identical at every worker count. Once built, an
// integral allocates nothing. A MinGrid runs one integral at a time.
type MinGrid struct {
	workers int
	loop    *parallel.Loop
	cdf     incBeta // the integral in progress
	n       float64
	f       [minSteps]float64 // f[i] = integrand at i/minSteps, interior i
}

// NewMinGrid returns a grid that integrates on the given number of
// workers (non-positive = one per CPU core).
func NewMinGrid(workers int) *MinGrid {
	g := &MinGrid{workers: workers}
	g.loop = parallel.NewLoop(g.fill)
	return g
}

// ExpectedMin returns b.ExpectedMin(n), evaluated on the grid.
func (g *MinGrid) ExpectedMin(b Beta, n int) float64 {
	if n <= 1 {
		return b.Mean()
	}
	const h = 1.0 / minSteps
	g.cdf, g.n = newIncBeta(b.Alpha, b.Beta), float64(n) // once per integral, not per grid point
	sum := g.at(0) + g.at(1)
	g.loop.Run(minSteps-1, g.workers)
	for i := 1; i < minSteps; i++ {
		if i%2 == 1 {
			sum += 4 * g.f[i]
		} else {
			sum += 2 * g.f[i]
		}
	}
	return sum * h / 3
}

// fill evaluates interior grid points 1+start ... end.
func (g *MinGrid) fill(start, end int) {
	const h = 1.0 / minSteps
	for i := start + 1; i <= end; i++ {
		g.f[i] = g.at(float64(i) * h)
	}
}

// at is the survival-form integrand (1 - F(x))^n.
func (g *MinGrid) at(x float64) float64 {
	surv := 1 - g.cdf.at(x)
	if surv <= 0 {
		return 0
	}
	return math.Pow(surv, g.n)
}

// logBetaFn returns ln B(a, b) = lnΓ(a) + lnΓ(b) − lnΓ(a+b).
func logBetaFn(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// RegIncBeta computes the regularized incomplete beta function
// I_x(a, b) using the continued-fraction expansion from Numerical
// Recipes (Lentz's method), accurate to ~1e-12 for moderate a, b.
func RegIncBeta(a, b, x float64) float64 { return newIncBeta(a, b).at(x) }

// incBeta is I_x(a, b) for one (a, b) evaluated at many x: ln B(a, b)
// (three Lgamma calls) and the point where the continued fraction
// switches to its symmetric form depend on the distribution alone, so
// an integral over x pays for them once.
type incBeta struct {
	a, b, lnB, split float64
}

func newIncBeta(a, b float64) incBeta {
	return incBeta{a: a, b: b, lnB: logBetaFn(a, b), split: (a + 1) / (a + b + 2)}
}

func (f incBeta) at(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lnFront := f.a*math.Log(x) + f.b*math.Log(1-x) - f.lnB
	front := math.Exp(lnFront)
	if x < f.split {
		return front * betaCF(f.a, f.b, x) / f.a
	}
	return 1 - front*betaCF(f.b, f.a, 1-x)/f.b
}

func betaCF(a, b, x float64) float64 {
	const maxIter = 300
	const eps = 1e-14
	const tiny = 1e-300
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
