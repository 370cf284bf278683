package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Percentile returns the p-quantile (p in [0,1]) of the sample using
// linear interpolation between order statistics. It panics on an empty
// sample and on any NaN sample value: NaN compares false against
// everything, so one NaN sorts to an arbitrary position and silently
// corrupts every quantile read from the sample.
func Percentile(sample []float64, p float64) float64 {
	var out [1]float64
	SelectPercentiles(slices.Clone(sample), []float64{p}, out[:])
	return out[0]
}

// SelectPercentiles sets out[i] to the ps[i]-quantile of sample,
// interpolated between the order statistics a full sort would put at
// its rank, without sorting: it
// reorders sample in place only as far as selection needs to put each
// order statistic it reads in its sorted position — a two-way
// quickselect for the lower one, and the minimum of everything to its
// right for its interpolation partner. ps must be ascending, so every
// selection runs on what is right of the last. It panics on an empty
// sample, on NaN sample values, and on descending ps.
func SelectPercentiles(sample, ps, out []float64) {
	checkSample(sample)
	n := len(sample)
	done := 0 // sample[:done] holds the done smallest values
	for i, p := range ps {
		if i > 0 && p < ps[i-1] {
			panic(fmt.Sprintf("stats: percentile %v after %v: not ascending", p, ps[i-1]))
		}
		lo, hi, frac := rank(p, n)
		if lo >= done {
			selectKth(sample[done:], lo-done)
			done = lo + 1
		}
		if hi >= done { // hi == lo+1 == done: the minimum of the rest
			m := hi
			for j := hi + 1; j < n; j++ {
				if sample[j] < sample[m] {
					m = j
				}
			}
			sample[hi], sample[m] = sample[m], sample[hi]
			done = hi + 1
		}
		out[i] = lerp(sample[lo], sample[hi], frac)
	}
}

// checkSample panics on an empty sample or a NaN in it.
func checkSample(sample []float64) {
	if len(sample) == 0 {
		panic("stats: Percentile of empty sample")
	}
	for i, v := range sample {
		if math.IsNaN(v) {
			panic(fmt.Sprintf("stats: NaN at sample index %d poisons every quantile", i))
		}
	}
}

// rank places the p-quantile of n ascending values between order
// statistics lo and hi (equal, or hi = lo+1) at fraction frac of the way.
func rank(p float64, n int) (lo, hi int, frac float64) {
	if p <= 0 {
		return 0, 0, 0
	}
	if p >= 1 {
		return n - 1, n - 1, 0
	}
	pos := p * float64(n-1)
	lo, hi = int(math.Floor(pos)), int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// lerp interpolates between the order statistics rank chose; frac is 0
// exactly when they are one and the same.
func lerp(a, b, frac float64) float64 {
	if frac == 0 {
		return a
	}
	return a*(1-frac) + b*frac
}

// selectKth reorders s so that s[k] holds the k-th smallest value, with
// nothing greater before it and nothing smaller after it. Each round
// splits the window with a two-way (Hoare) partition around the median
// of its ends and middle, which keeps sorted and reverse-sorted input
// linear and halves a run of duplicates, whose equal keys stop both
// scans; a window shorter than 16 is insertion-sorted, and one still
// open after 4·log2(n) rounds is sorted instead, bounding adversarial
// input at n·log n.
func selectKth[T cmp.Ordered](s []T, k int) {
	lo, hi := 0, len(s)-1
	for rounds := 4 * bits.Len(uint(len(s))); hi-lo >= 15; rounds-- {
		if rounds == 0 {
			slices.Sort(s[lo : hi+1])
			return
		}
		pivot := median3(s[lo], s[lo+(hi-lo)/2], s[hi])
		// The pivot is one of the window's values, so both scans stop
		// inside it, and after the first swap each stops at the value the
		// other just placed: [lo, j] <= pivot, (j, i) == pivot and
		// [i, hi] >= pivot, with both sides shorter than the window.
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	for i := lo + 1; i <= hi; i++ {
		v, j := s[i], i
		for ; j > lo && s[j-1] > v; j-- {
			s[j] = s[j-1]
		}
		s[j] = v
	}
}

func median3[T cmp.Ordered](a, b, c T) T {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
}

// Mean returns the arithmetic mean; 0 for an empty sample.
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range sample {
		sum += v
	}
	return sum / float64(len(sample))
}

// Variance returns the population variance; 0 for samples of size < 2.
func Variance(sample []float64) float64 {
	if len(sample) < 2 {
		return 0
	}
	m := Mean(sample)
	sum := 0.0
	for _, v := range sample {
		d := v - m
		sum += d * d
	}
	return sum / float64(len(sample))
}

// Summary holds the five-number-style description the experiments print
// for violin-plot figures (paper Fig. 6).
type Summary struct {
	Mean, Median, P25, P75, Min, Max float64
	N                                int
}

// Summarize computes a Summary of the sample.
func Summarize(sample []float64) Summary {
	if len(sample) == 0 {
		return Summary{}
	}
	return Summary{
		Mean:   Mean(sample),
		Median: Percentile(sample, 0.5),
		P25:    Percentile(sample, 0.25),
		P75:    Percentile(sample, 0.75),
		Min:    Percentile(sample, 0),
		Max:    Percentile(sample, 1),
		N:      len(sample),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f median=%.4f IQR=[%.4f,%.4f] range=[%.4f,%.4f]",
		s.N, s.Mean, s.Median, s.P25, s.P75, s.Min, s.Max)
}

// CDFPoints returns the empirical CDF of weights after sorting them in
// descending order — the presentation used in the paper's Fig. 5
// ("percentile of clusters" on x, cumulative access share on y"). The
// returned slice has len(weights) entries; entry i is the cumulative
// share carried by the i+1 heaviest items.
func CDFPoints(weights []float64) []float64 {
	s := append([]float64(nil), weights...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	total := 0.0
	for _, w := range s {
		total += w
	}
	out := make([]float64, len(s))
	cum := 0.0
	for i, w := range s {
		cum += w
		if total > 0 {
			out[i] = cum / total
		}
	}
	return out
}

// ShareOfTopFraction returns the cumulative share carried by the top
// `frac` fraction of items (by weight). Fig. 5 reports this at
// frac=0.20: ~0.59 for Wiki-All and ~0.93 for ORCAS.
func ShareOfTopFraction(weights []float64, frac float64) float64 {
	if len(weights) == 0 {
		return 0
	}
	cdf := CDFPoints(weights)
	idx := int(math.Ceil(frac*float64(len(cdf)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cdf) {
		idx = len(cdf) - 1
	}
	return cdf[idx]
}
