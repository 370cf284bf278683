package hitrate

// Integrations reports how many Eq. 2 integrals e has evaluated and how
// many distinct (cluster count, batch) points its table holds; the two
// are equal when no point was integrated twice.
func (e *Estimator) Integrations() (calls, points int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.integrations, len(e.minHit)
}
