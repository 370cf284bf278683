package stats

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"vectorliterag/internal/rng"
)

// sortedPercentiles is what SelectPercentiles must reproduce bit for
// bit: sort a copy, then read every p with PercentileSorted.
func sortedPercentiles(sample, ps []float64) []float64 {
	s := slices.Clone(sample)
	slices.Sort(s)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = PercentileSorted(s, p)
	}
	return out
}

// checkSelect runs SelectPercentiles on a copy of sample and compares
// each quantile with the sorted reference by Float64bits.
func checkSelect(t *testing.T, name string, sample, ps []float64) {
	t.Helper()
	want := sortedPercentiles(sample, ps)
	got := make([]float64, len(ps))
	SelectPercentiles(slices.Clone(sample), ps, got)
	for i := range ps {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s (n=%d): p%v = %v (%#x), sort + PercentileSorted %v (%#x)",
				name, len(sample), ps[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSelectPercentilesMatchesSort: selection reads the same order
// statistics the sort would and interpolates them the same way, at the
// summary's percentiles and at the ends, on every input shape that
// stresses a quickselect — tiny samples, windows around the insertion-
// sort cutoff, a run-sized and a fleet-sized one, heavy duplicates,
// all-equal values, already sorted, reverse-sorted and organ-pipe runs.
func TestSelectPercentilesMatchesSort(t *testing.T) {
	psSets := [][]float64{
		{0.50, 0.90, 0.95, 0.99},
		{0, 0.001, 0.25, 0.5, 0.5, 0.75, 0.999, 1},
		{0.95},
		{-1, 2},
	}
	r := rng.New(11)
	for _, n := range []int{1, 2, 3, 15, 16, 17, 100, 3_700, 230_000} {
		shapes := map[string][]float64{}
		uniform := make([]float64, n)
		dups := make([]float64, n)
		for i := range uniform {
			uniform[i] = math.Floor(r.Float64() * 1e9) // nanosecond latencies
			dups[i] = float64(r.Intn(3))
		}
		shapes["uniform"] = uniform
		shapes["duplicates"] = dups
		shapes["constant"] = make([]float64, n)
		asc := slices.Clone(uniform)
		slices.Sort(asc)
		shapes["sorted"] = asc
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		shapes["reverse-sorted"] = desc
		pipe := make([]float64, n)
		for i := range pipe {
			pipe[i] = float64(min(i, n-1-i))
		}
		shapes["organ-pipe"] = pipe
		equal := make([]float64, n)
		for i := range equal {
			equal[i] = 1.5e6
		}
		shapes["all-equal"] = equal
		for name, s := range shapes {
			for _, ps := range psSets {
				checkSelect(t, name, s, ps)
			}
		}
	}
}

// TestSelectPercentilesPanics: a NaN anywhere still poisons every
// quantile, an empty sample has none, and descending percentiles would
// read order statistics selection has already moved past.
func TestSelectPercentilesPanics(t *testing.T) {
	nan := math.NaN()
	out := make([]float64, 2)
	for name, f := range map[string]func(){
		"leading NaN":  func() { SelectPercentiles([]float64{nan, 1, 2}, []float64{0.5}, out) },
		"middle NaN":   func() { SelectPercentiles([]float64{1, nan, 2}, []float64{0.5}, out) },
		"trailing NaN": func() { SelectPercentiles([]float64{1, 2, nan}, []float64{0}, out) },
		"empty":        func() { SelectPercentiles(nil, []float64{0.5}, out) },
		"descending":   func() { SelectPercentiles([]float64{1, 2, 3}, []float64{0.9, 0.5}, out) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SelectPercentiles did not panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzQuantiles holds SelectPercentiles to sort + PercentileSorted on
// arbitrary samples: raw float64 bit patterns (NaNs dropped, signed
// zeros folded, since the sort orders -0 and +0 arbitrarily), or one
// small integer per byte for duplicate-heavy input.
func FuzzQuantiles(f *testing.F) {
	f.Add([]byte{}, false, 0.5)
	f.Add([]byte{7}, true, 0.99)
	f.Add([]byte{3, 1, 2, 3, 3, 0, 1, 2, 3, 3, 3, 1}, true, 0.9)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 240, 63, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 240, 127}, false, 0.5)
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, true, 0.25)
	f.Fuzz(func(t *testing.T, data []byte, small bool, p float64) {
		var sample []float64
		if small {
			for _, b := range data {
				sample = append(sample, float64(b%5))
			}
		} else {
			for ; len(data) >= 8; data = data[8:] {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data))
				if math.IsNaN(v) {
					continue
				}
				sample = append(sample, v+0) // -0 + 0 == +0
			}
		}
		if len(sample) == 0 || math.IsNaN(p) {
			return
		}
		ps := []float64{0.5, 0.9, 0.95, 0.99}
		if p < 0.5 {
			ps = append([]float64{p}, ps...)
		} else {
			ps = append(ps, p)
			slices.Sort(ps)
		}
		checkSelect(t, "fuzz", sample, ps)
	})
}
