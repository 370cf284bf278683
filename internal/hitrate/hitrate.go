// Package hitrate implements the tail-query hit-rate estimator of paper
// §IV-A2. Caching the top-k hottest clusters gives each query a hit
// rate (the share of its scan work landing in cache); across queries
// these hit rates form a distribution whose *minimum within a batch*
// governs batch latency, because the CPU must finish every miss before
// the batch completes.
//
// The estimator models per-query hit rates as Beta-distributed with
//
//	mean      — read off the access profile (cumulative covered share),
//	variance  — approximated as 4·sigmaMax²·eta(1-eta), the parabolic
//	            shape validated in Fig. 8 (right), with sigmaMax²
//	            profiled once near eta=0.5,
//
// and computes the expected batch minimum via the first-order-statistic
// integral (Eq. 2). Inverting the relation numerically yields
// HitRate2Coverage, the primitive the partitioning algorithm calls; its
// bisection only compares each probe's Eq. 2 value with the target, so
// it bounds the integral from a few grid points instead of computing it
// (stats.MinGrid.MinBelow), with the same answer bit for bit.
package hitrate

import (
	"fmt"
	"math"
	"sync"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/stats"
)

// Estimator predicts hit-rate behaviour for any cache coverage. It is
// safe for concurrent use.
type Estimator struct {
	nlist     int
	meanCurve []float64 // meanCurve[k] = mean work-weighted hit rate with top-k hot
	sigmaMax2 float64   // empirical variance at mean ≈ 0.5

	// minHit remembers what this estimator has learned of every Eq. 2
	// integral it was asked about: the exact value, or the tightest
	// interval a comparison proved. The value depends on the profile, the
	// hot-cluster count and the batch size alone, and Algorithm 1's
	// nested bisections and the joint allocator's greedy revisit the same
	// few points dozens of times, so each is integrated at most once for
	// the estimator's lifetime (one profile), and a bound is reused
	// whenever it already answers. Two float64s a point, at most
	// (nlist+1) × batch sizes seen.
	mu     sync.Mutex
	minHit map[point]bound
	grid   *stats.MinGrid // built at the first integral, reused under mu
	passes int            // exact CDF passes over the grid; tests fence them

	// exactSearch makes every bisection probe integrate: the
	// differential tests' reference (NewExactEstimator).
	exactSearch bool
}

// point is one argument of Eq. 2: hot clusters cached, batch size.
type point struct{ clusters, batch int }

// bound holds an Eq. 2 value within [lo, hi]; lo == hi is the exact
// value. Either way, v < eta when hi < eta and v >= eta when lo >= eta.
type bound struct{ lo, hi float64 }

func (b bound) exact() bool { return b.lo == b.hi }

// NewEstimator builds the estimator from an access profile. It
// precomputes the coverage→mean curve incrementally and profiles
// sigmaMax² at the coverage whose mean hit rate is closest to 0.5.
func NewEstimator(p *profiler.AccessProfile) (*Estimator, error) {
	nlist := len(p.Counts)
	if nlist == 0 || len(p.Queries) == 0 {
		return nil, fmt.Errorf("hitrate: empty access profile")
	}
	e := &Estimator{nlist: nlist, minHit: make(map[point]bound)}

	// contrib[c]: how much promoting cluster c adds to the mean
	// work-weighted hit rate, averaged over the training queries. The
	// per-probe shares are the workload's build-time table, gathered in
	// query order.
	contrib := make([]float64, nlist)
	for _, q := range p.Queries {
		shares := p.W.ProbeShares(q)
		for j, c := range p.W.Probes(q) {
			contrib[c] += shares[j]
		}
	}
	nq := float64(len(p.Queries))
	e.meanCurve = make([]float64, nlist+1)
	for k := 1; k <= nlist; k++ {
		e.meanCurve[k] = e.meanCurve[k-1] + contrib[p.HotOrder[k-1]]/nq
	}
	// Normalize tiny float drift: full coverage must be exactly 1.
	if e.meanCurve[nlist] > 0 {
		scale := 1 / e.meanCurve[nlist]
		for k := range e.meanCurve {
			e.meanCurve[k] *= scale
		}
	}

	// Profile sigmaMax²: empirical per-query hit-rate variance at the
	// coverage whose mean is nearest 0.5 (paper: "empirically profiling
	// the variance at eta=0.5").
	kHalf := 1
	best := math.Inf(1)
	for k := 1; k < nlist; k++ {
		if d := math.Abs(e.meanCurve[k] - 0.5); d < best {
			best, kHalf = d, k
		}
	}
	e.sigmaMax2 = e.EmpiricalVariance(p, kHalf)
	if e.sigmaMax2 <= 0 {
		// Degenerate profile (e.g. every query identical): fall back to a
		// small but positive spread so the Beta stays well-defined.
		e.sigmaMax2 = 1e-4
	}
	return e, nil
}

// EmpiricalVariance measures the per-query hit-rate variance with the
// top-k clusters cached, over the profile's training queries. A query's
// hit rate depends on its template alone, so each template's is
// computed once and the rates are filled in query order.
func (e *Estimator) EmpiricalVariance(p *profiler.AccessProfile, k int) float64 {
	mask := p.HotMask(k)
	byTemplate := make([]float64, p.W.Templates())
	for t := range byTemplate {
		byTemplate[t] = p.W.WorkHitRate(dataset.QueryID(t), mask)
	}
	rates := make([]float64, len(p.Queries))
	for i, q := range p.Queries {
		rates[i] = byTemplate[q]
	}
	return stats.Variance(rates)
}

// Clusters returns the number of hot clusters at the given coverage
// (fraction of total clusters, clamped to [0,1]).
func (e *Estimator) Clusters(coverage float64) int {
	if coverage <= 0 {
		return 0
	}
	if coverage >= 1 {
		return e.nlist
	}
	return int(math.Round(coverage * float64(e.nlist)))
}

// MeanHitRate returns the expected work-weighted hit rate at the given
// cache coverage.
func (e *Estimator) MeanHitRate(coverage float64) float64 {
	return e.meanCurve[e.Clusters(coverage)]
}

// Variance returns the modeled hit-rate variance at a given mean:
// 4·sigmaMax²·eta(1-eta) (paper §IV-A2).
func (e *Estimator) Variance(mean float64) float64 {
	return 4 * e.sigmaMax2 * mean * (1 - mean)
}

func (e *Estimator) betaAt(clusters int) (stats.Beta, bool) {
	mean := e.meanCurve[clusters]
	if mean <= 1e-9 || mean >= 1-1e-9 {
		return stats.Beta{}, false
	}
	variance := e.Variance(mean)
	// Keep the moments Beta-feasible.
	if limit := mean * (1 - mean); variance >= limit {
		variance = limit * 0.999
	}
	if variance <= 0 {
		variance = 1e-9
	}
	b, err := stats.NewBetaFromMoments(mean, variance)
	if err != nil {
		return stats.Beta{}, false
	}
	return b, true
}

// MinHitRate returns the expected minimum hit rate within a batch of
// the given size at the given coverage (Eq. 2).
func (e *Estimator) MinHitRate(coverage float64, batch int) float64 {
	return e.minHitRateAt(e.Clusters(coverage), batch)
}

// minHitRateAt is MinHitRate by hot-cluster count, read through the
// minHit table. The lock is held across the integration, so concurrent
// callers of one point wait for the first and none integrates it again,
// and the one grid is never shared by two integrals; each integral
// spreads its grid points over the worker pool instead.
func (e *Estimator) minHitRateAt(clusters, batch int) float64 {
	b, ok := e.betaAt(clusters)
	if !ok {
		// Degenerate: all-or-nothing coverage.
		return e.meanCurve[clusters]
	}
	if batch <= 1 {
		return b.Mean() // the minimum of one draw: no integral
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p := point{clusters, batch}
	if v, ok := e.minHit[p]; ok && v.exact() {
		return v.lo
	}
	v := e.gridLocked().ExpectedMin(b, batch)
	e.passes++
	e.minHit[p] = bound{v, v}
	return v
}

// minHitRateBelow reports minHitRateAt(clusters, batch) < eta, with the
// same answer bit for bit, from the table's bound when that decides it
// and otherwise from a grid comparison, which evaluates only the grid
// points the answer needs and leaves a tighter bound in the table.
func (e *Estimator) minHitRateBelow(clusters, batch int, eta float64) bool {
	if e.exactSearch {
		return e.minHitRateAt(clusters, batch) < eta
	}
	b, ok := e.betaAt(clusters)
	if !ok {
		return e.meanCurve[clusters] < eta
	}
	if batch <= 1 {
		return b.Mean() < eta
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p := point{clusters, batch}
	v, seen := e.minHit[p]
	switch {
	case seen && v.hi < eta:
		return true
	case seen && v.lo >= eta:
		return false
	}
	below, lo, hi := e.gridLocked().MinBelow(b, batch, eta)
	if lo == hi {
		e.passes++
	} else if seen {
		lo, hi = max(lo, v.lo), min(hi, v.hi)
	}
	e.minHit[p] = bound{lo, hi}
	return below
}

// gridLocked returns the estimator's grid, built on first use; e.mu is
// held.
func (e *Estimator) gridLocked() *stats.MinGrid {
	if e.grid == nil {
		e.grid = stats.NewMinGrid(0)
	}
	return e.grid
}

// CoverageForMinHitRate is the paper's HitRate2Coverage: the smallest
// coverage whose expected batch-minimum hit rate reaches etaMin. The
// second return value is false when even full coverage cannot reach it
// (the caller then knows the SLO is infeasible at this batch size):
// etaMin above 1, or a profile whose queries did no work at all.
//
// The bisection only asks which side of etaMin each probe's Eq. 2 value
// falls on, so it compares (minHitRateBelow) rather than integrates:
// most probes are far from etaMin and a few grid points settle them.
func (e *Estimator) CoverageForMinHitRate(etaMin float64, batch int) (float64, bool) {
	if etaMin <= 0 {
		return 0, true
	}
	if etaMin > 1 {
		return 1, false
	}
	// Full coverage is not an integral: its mean is normalised to exactly
	// 1, the degenerate branch of minHitRateAt, so this probe costs
	// nothing and fails only on an all-zero mean curve.
	if e.minHitRateAt(e.nlist, batch) < etaMin-1e-9 {
		return 1, false
	}
	// MinHitRate is monotone in coverage; bisect over cluster counts.
	lo, hi := 0, e.nlist
	for lo < hi {
		mid := (lo + hi) / 2
		if e.minHitRateBelow(mid, batch, etaMin) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return float64(lo) / float64(e.nlist), true
}
