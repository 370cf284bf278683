package stats

import (
	"math"
	"slices"
	"testing"

	"vectorliterag/internal/rng"
)

var streamPs = []float64{0.50, 0.90, 0.95, 0.99}

// stream runs sel over sets, walking them in order as often as it asks,
// and returns the walks it took.
func stream(sel *Selector, sets [][]int64, ps []float64) int {
	bound := 0
	for _, s := range sets {
		bound = max(bound, len(s))
	}
	sel.Reset(len(sets), bound, ps)
	for walks := 1; ; walks++ {
		for i, s := range sets {
			// In chunks of 1 to 7 values, as a caller streams them.
			for j := 0; j < len(s); {
				k := min(len(s), j+1+j%7)
				sel.Observe(i, s[j:k])
				j = k
			}
		}
		if !sel.Next() {
			return walks
		}
	}
}

// checkStream holds each set's streamed count and percentiles to
// SelectPercentiles over the values as float64, by Float64bits, and
// returns the walks the Selector took.
func checkStream(t *testing.T, name string, sel *Selector, sets [][]int64, ps []float64) int {
	t.Helper()
	walks := stream(sel, sets, ps)
	got := make([]float64, len(ps))
	want := make([]float64, len(ps))
	for i, s := range sets {
		n := sel.Result(i, got)
		if n != len(s) {
			t.Fatalf("%s set %d: n = %d, want %d", name, i, n, len(s))
		}
		if n == 0 {
			continue
		}
		f := make([]float64, len(s))
		for j, v := range s {
			f[j] = float64(v)
		}
		SelectPercentiles(f, ps, want)
		for j, p := range ps {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Errorf("%s set %d (n=%d): p%v = %v, SelectPercentiles %v", name, i, n, p, got[j], want[j])
			}
		}
	}
	return walks
}

// TestSelectorMatchesSelectPercentiles: the streamed summary of one,
// two and three sets equals the materialized one bit for bit on every
// shape that stresses the histogram — empty, one and two values, all
// equal (zero, small, window and out-of-window values), power-of-two
// bucket edges ± 1, negatives, the whole int64 range, heavy
// duplicates, and latency-like samples from below the histogram's
// threshold to past the scratch cap — on one Selector reused across
// sizes, and on cold ones.
func TestSelectorMatchesSelectPercentiles(t *testing.T) {
	r := rng.New(7)
	var warm Selector
	psSets := [][]float64{streamPs, {0, 0.25, 0.5, 1}, {0.999}, {}}
	for _, n := range []int{0, 1, 2, 3, 16, 23, 24, 100, 1_000, 4_096, 20_000, 230_000} {
		shapes := map[string][]int64{}
		lat := make([]int64, n)
		edges := make([]int64, n)
		neg := make([]int64, n)
		wide := make([]int64, n)
		dups := make([]int64, n)
		for i := range n {
			lat[i] = int64(r.ExpFloat64() * 2e8)
			e := uint(r.Intn(63))
			edges[i] = int64(uint64(1)<<e) + int64(r.Intn(3)) - 1
			neg[i] = int64(r.ExpFloat64()*1e6) - 5e5
			wide[i] = int64(r.Uint64())
			dups[i] = int64(r.Intn(3)) << 40
		}
		shapes["latency"] = lat
		shapes["pow2-edges"] = edges
		shapes["negative"] = neg
		shapes["whole-range"] = wide
		shapes["duplicates"] = dups
		for _, c := range []int64{0, 7, 1_500_000, 1 << 50, math.MaxInt64, math.MinInt64} {
			eq := make([]int64, n)
			for i := range eq {
				eq[i] = c
			}
			shapes["all-equal"] = eq
			checkStream(t, "all-equal", &warm, [][]int64{eq}, streamPs)
		}
		for name, s := range shapes {
			for _, ps := range psSets {
				checkStream(t, name, &warm, [][]int64{s}, ps)
				checkStream(t, name+"/cold", new(Selector), [][]int64{s}, ps)
			}
		}
		checkStream(t, "three sets", &warm, [][]int64{lat, neg, dups[:n/2]}, streamPs)
		checkStream(t, "three sets/cold", new(Selector), [][]int64{edges, wide[:n/3], lat}, streamPs)
	}
}

// TestSelectorRefinesPastCollectCap: a bucket holding the median and
// exactly as many distinct values as the collect scratch is collected
// in the second walk; one value more forces refinement walks — among
// large values, small ones, and negatives — and still settles exactly.
// The other values lie far below (or, for negatives, far above), so the
// histogram's buckets are wide and the test's values share one.
func TestSelectorRefinesPastCollectCap(t *testing.T) {
	const n = 50_000
	var sel Selector
	sel.Reset(1, n, streamPs)
	capVals := len(sel.vals)
	for _, tc := range []struct {
		name  string
		base  int64
		extra int
	}{
		{"at the cap", 1 << 30, 0},
		{"one past", 1 << 30, 1},
		{"huge, one past", 1 << 50, 1},
		{"negative, one past", -1 << 40, 1},
	} {
		k := capVals + tc.extra
		s := make([]int64, n)
		r := rng.New(3)
		below := n - k
		for i := range s {
			switch {
			case i < k:
				s[i] = tc.base + int64(i)
			case tc.base < 0:
				s[i] = 1<<50 + int64(r.Intn(1<<20))
			default:
				s[i] = int64(r.Intn(1 << 20))
			}
		}
		if tc.base < 0 {
			below = 0
		}
		p := float64(below+k/2) / float64(n-1)
		walks := checkStream(t, tc.name, &sel, [][]int64{s}, []float64{p})
		if tc.extra == 0 && walks != 2 || tc.extra > 0 && walks <= 2 {
			t.Errorf("%s: %d walks", tc.name, walks)
		}
	}
}

// TestSelectorSettlesRunsInTwoWalks: a rank inside a run of equal
// values too long to collect settles in the refinement walk itself,
// from the count of the first value that walk sees.
func TestSelectorSettlesRunsInTwoWalks(t *testing.T) {
	const n = 100_000
	s := make([]int64, n)
	r := rng.New(9)
	for i := range s {
		s[i] = 54_295_946 // most of the set, as a simulator's fixed search time
		if i%10 == 0 {
			s[i] += int64(r.Intn(2000)) - 1000
		}
	}
	var sel Selector
	if walks := checkStream(t, "run", &sel, [][]int64{s}, streamPs); walks != 2 {
		t.Errorf("%d walks, want 2", walks)
	}
}

// TestSelectorScratchBound: the scratch is never more than 8 bytes per
// value nor more than its 112 KB cap, and a Selector with a histogram
// keeps collect room beside it.
func TestSelectorScratchBound(t *testing.T) {
	for _, n := range []int{0, 1, 7, 23, 24, 72, 500, 2_950, 3_600, 16_384, 230_000, 10_000_000} {
		for sets := 1; sets <= maxSets; sets++ {
			var sel Selector
			sel.Reset(sets, n, streamPs)
			bytes := 4*len(sel.hist) + 8*len(sel.vals)
			if bytes > 8*n || bytes > 8*maxScratch {
				t.Errorf("n=%d sets=%d: %d bytes of scratch", n, sets, bytes)
			}
			if n >= 24*sets && (sel.win == 0 || len(sel.vals) < 9) {
				t.Errorf("n=%d sets=%d: %d buckets, %d collect slots", n, sets, sel.win, len(sel.vals))
			}
		}
	}
}

// TestSelectorWitnessBetweenRanks: a refinement walk settles one rank
// from a witness's run while the ranks on both sides of it stay in one
// sub-bucket, which must still hold the highest of them. Three sets
// share the small scratch, so the refinement region runs short and the
// third set's span waits a walk.
func TestSelectorWitnessBetweenRanks(t *testing.T) {
	v := []int64{1666662, 2000000, -4, 333336, 666668, 999998, 1333332, 1666664, 1999994, 1,
		333333, 666667, 999997, 1333329, 1666669, 1999999, 3, 333332, 666661, 999994, 1333334,
		1666668, 2000001, -3, 333326, 666669, 1000004, 1333333, 1666665, 1999995, -9, 333339,
		666668, 999998, 1333330, 1666659, 2000005, 4, 333333}
	checkStream(t, "witness between ranks", new(Selector), [][]int64{v, v, v}, streamPs)
}

// TestSelectorSteps: step is monotone over every int64, one step per
// value below 2^16, and stepFirst and stepLast bound each step's values
// exactly, from the most negative int64 to the most positive.
func TestSelectorSteps(t *testing.T) {
	r := rng.New(1)
	var idx []int64
	for i := int64(-70_000); i <= 70_000; i += 7 {
		idx = append(idx, i)
	}
	for range 20_000 {
		idx = append(idx, int64(r.Uint64()%(2*maxStep+2))-maxStep-1)
	}
	idx = append(idx, -maxStep-1, -maxStep, maxStep-1, maxStep, 0, -1, 1<<fineSub-1, 1<<fineSub)
	for _, i := range idx {
		lo, hi := stepFirst(i), stepLast(i)
		if lo > hi || step(lo) != i || step(hi) != i {
			t.Fatalf("step %d: [%d, %d] maps to [%d, %d]", i, lo, hi, step(lo), step(hi))
		}
		if i > -maxStep-1 && step(lo-1) != i-1 {
			t.Fatalf("step %d: value %d before it is step %d", i, lo-1, step(lo-1))
		}
		if i < maxStep && step(hi+1) != i+1 {
			t.Fatalf("step %d: value %d after it is step %d", i, hi+1, step(hi+1))
		}
	}
	if stepFirst(-maxStep-1) != math.MinInt64 || stepLast(maxStep) != math.MaxInt64 {
		t.Fatalf("steps span [%d, %d]", stepFirst(-maxStep-1), stepLast(maxStep))
	}
	for v := int64(-1 << fineSub); v < 1<<fineSub; v++ {
		if v >= 0 && step(v) != v || v < 0 && step(v) != v {
			t.Fatalf("step(%d) = %d, want the value itself", v, step(v))
		}
	}
}

// TestSelectorWidensExactly: the first-walk histogram keeps every count
// while its window widens, whichever way the values arrive — rising,
// falling, alternating between extremes.
func TestSelectorWidensExactly(t *testing.T) {
	const n = 20_000
	orders := map[string]func(i int) int64{
		"rising":      func(i int) int64 { return int64(i) * 1e5 },
		"falling":     func(i int) int64 { return int64(n-i) * 1e5 },
		"alternating": func(i int) int64 { return int64(i) * 1e12 * int64(1-2*(i%2)) },
		"doubling":    func(i int) int64 { return int64(1) << (i % 63) },
	}
	for name, at := range orders {
		s := make([]int64, n)
		for i := range s {
			s[i] = at(i)
		}
		var sel Selector
		sel.Reset(1, n, streamPs)
		sel.Observe(0, s)
		total := 0
		for _, c := range sel.hist[:sel.win] {
			total += int(c)
		}
		if total != n {
			t.Errorf("%s: the histogram holds %d of %d values", name, total, n)
		}
		checkStream(t, name, new(Selector), [][]int64{s}, streamPs)
	}
}

// TestSelectorPanics: walks that disagree, a set past its bound, and
// reading a result before the last walk are errors, not wrong numbers.
func TestSelectorPanics(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i) * 1e6
	}
	for name, f := range map[string]func(){
		"second walk differs": func() {
			var s Selector
			s.Reset(1, len(vals), streamPs)
			s.Observe(0, vals)
			s.Next()
			s.Observe(0, vals[:len(vals)/2]) // skips the median
			s.Observe(0, vals[len(vals)/2+1:])
			s.Next()
		},
		"past its bound": func() {
			var s Selector
			s.Reset(1, 10, streamPs)
			s.Observe(0, vals[:11])
			s.Next()
		},
		"result before the last walk": func() {
			var s Selector
			s.Reset(1, len(vals), streamPs)
			s.Observe(0, vals)
			s.Next()
			s.Result(0, make([]float64, 4))
		},
		"descending": func() { new(Selector).Reset(1, 10, []float64{0.9, 0.5}) },
		"four sets":  func() { new(Selector).Reset(4, 10, streamPs) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestSelectorLatenciesTakeTwoWalks: on latency-like samples the size
// of a run and of a fleet's global summary, every rank's bucket fits
// the collect scratch, so three sets settle in one walk after the
// first.
func TestSelectorLatenciesTakeTwoWalks(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{2_000, 3_600, 230_000} {
		sets := make([][]int64, 3)
		for i := range sets {
			sets[i] = make([]int64, n)
		}
		for j := range n {
			search := int64(r.ExpFloat64() * 6e7)
			ttft := int64(r.ExpFloat64()*2e7) + search + int64(r.ExpFloat64()*1.5e8)
			sets[0][j], sets[1][j], sets[2][j] = ttft, ttft+int64(r.ExpFloat64()*4e9), search
		}
		var sel Selector
		if walks := checkStream(t, "latencies", &sel, sets, streamPs); walks != 2 {
			t.Errorf("n=%d: %d walks, want 2", n, walks)
		}
		slices.Reverse(sets)
	}
}
