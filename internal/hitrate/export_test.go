package hitrate

import "vectorliterag/internal/stats"

// BetaAt instantiates the Beta hit-rate distribution for a coverage.
// Degenerate means (0 or 1) are reported via ok=false.
func (e *Estimator) BetaAt(coverage float64) (stats.Beta, bool) {
	return e.betaAt(e.Clusters(coverage))
}

// Integrations reports how many Eq. 2 integrals e has evaluated and how
// many distinct (cluster count, batch) points its table holds; the two
// are equal when no point was integrated twice.
func (e *Estimator) Integrations() (calls, points int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.integrations, len(e.minHit)
}
