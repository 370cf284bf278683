package stats

import "math"

// PercentileSorted is Percentile over an already ascending-sorted
// sample: the sort-then-interpolate reference SelectPercentiles must
// match bit for bit. It panics on an empty sample and on NaN sample
// values.
func PercentileSorted(sorted []float64, p float64) float64 {
	checkSample(sorted)
	lo, hi, frac := rank(p, len(sorted))
	return lerp(sorted[lo], sorted[hi], frac)
}

// CDF evaluates the cumulative distribution at x via the regularized
// incomplete beta function I_x(alpha, beta).
func (b Beta) CDF(x float64) float64 { return RegIncBeta(b.Alpha, b.Beta, x) }

// RegIncBeta is the regularized incomplete beta function I_x(a, b) at
// any x, by the continued fraction the grid evaluates at its points.
func RegIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	f := newIncBeta(a, b)
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) - f.lnB)
	if x < f.split {
		return front * cf(a, b, x) / a
	}
	return 1 - front*cf(b, a, 1-x)/b
}

// cf is betaCF's value, whether or not the fraction converged.
func cf(a, b, x float64) float64 {
	h, _ := betaCF(a, b, x)
	return h
}

// ExpectedMin returns E[min of n iid draws] (Eq. 2) on a one-worker
// grid; n = 1 reduces to the distribution mean.
func (b Beta) ExpectedMin(n int) float64 { return NewMinGrid(1).ExpectedMin(b, n) }

// InverseMonotone solves Eval(x) = y for x assuming the model is
// non-decreasing, by bisection over [xs[0], hi]. Returns ok=false if y
// is below the model's minimum.
func (p *PiecewiseLinear) InverseMonotone(y, hi float64) (float64, bool) {
	if y < p.ys[0] {
		return 0, false
	}
	lo := p.xs[0]
	if p.Eval(hi) < y {
		return hi, false
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if p.Eval(mid) < y {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, true
}
