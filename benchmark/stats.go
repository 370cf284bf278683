package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0..1) of the sample by linear
// interpolation between order statistics. It sorts a copy.
func quantile(sample []float64, p float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(sample []float64) float64 { return quantile(sample, 0.5) }

func mean(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range sample {
		sum += v
	}
	return sum / float64(len(sample))
}

func maxOf(sample []float64) float64 {
	m := math.Inf(-1)
	for _, v := range sample {
		m = math.Max(m, v)
	}
	return m
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them
// (exclusive method), which is what the benchmark contract's spread
// uses.
func quartiles(sample []float64) (q1, q2, q3 float64) {
	n := len(sample)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return sample[0], sample[0], sample[0]
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

// finite guards a derived ratio against a zero denominator.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
