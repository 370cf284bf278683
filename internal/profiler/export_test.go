package profiler

import "sort"

// AccessCDF returns the cumulative access share carried by the top-k
// clusters, for k = 1..nlist — the curve of paper Fig. 5 weighted by
// distance computations (accesses x cluster size).
func (p *AccessProfile) AccessCDF() []float64 {
	weights := make([]float64, len(p.Counts))
	for c, cnt := range p.Counts {
		weights[c] = float64(cnt) * float64(p.W.Index.ClusterSize(c))
	}
	// CDF over the hot order (which sorts by raw count; re-sort by weight
	// for the figure's definition).
	total := 0.0
	for _, w := range weights {
		total += w
	}
	order := make([]float64, len(weights))
	copy(order, weights)
	sort.Sort(sort.Reverse(sort.Float64Slice(order)))
	cum := 0.0
	out := make([]float64, len(order))
	for i, w := range order {
		cum += w
		if total > 0 {
			out[i] = cum / total
		}
	}
	return out
}
