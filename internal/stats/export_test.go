package stats

// PercentileSorted is Percentile over an already ascending-sorted
// sample: the sort-then-interpolate reference SelectPercentiles must
// match bit for bit. It panics on an empty sample and on NaN sample
// values.
func PercentileSorted(sorted []float64, p float64) float64 {
	checkSample(sorted)
	lo, hi, frac := rank(p, len(sorted))
	return lerp(sorted[lo], sorted[hi], frac)
}
