package hitrate

import (
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/stats"
)

// BetaAt instantiates the Beta hit-rate distribution for a coverage.
// Degenerate means (0 or 1) are reported via ok=false.
func (e *Estimator) BetaAt(coverage float64) (stats.Beta, bool) {
	return e.betaAt(e.Clusters(coverage))
}

// Integrations reports how many exact CDF passes e has made over its
// grid, how many distinct (cluster count, batch) points its table holds
// exact values for — equal when no point was integrated twice — and
// how many continued fractions its passes and comparisons evaluated.
func (e *Estimator) Integrations() (passes, points, cfs int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, v := range e.minHit {
		if v.exact() {
			points++
		}
	}
	if e.grid != nil {
		cfs = e.grid.CFs()
	}
	return e.passes, points, cfs
}

// NewExactEstimator is NewEstimator for the differential tests'
// reference: its CoverageForMinHitRate integrates every probe, as it
// did before the bisections compared.
func NewExactEstimator(p *profiler.AccessProfile) (*Estimator, error) {
	e, err := NewEstimator(p)
	if err == nil {
		e.exactSearch = true
	}
	return e, err
}

// SigmaMax2 exposes the profiled peak variance.
func (e *Estimator) SigmaMax2() float64 { return e.sigmaMax2 }
