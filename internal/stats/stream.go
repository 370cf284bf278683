package stats

import (
	"fmt"
	"math"
	"math/bits"
)

const (
	maxSets  = 3
	maxRanks = 8 // the lo and hi ranks of four percentiles

	// maxScratch bounds a Selector's scratch, in 8-byte words: 112 KB,
	// which the allocator rounds to at most 128 KB.
	maxScratch = 14 << 10
	// maxWindow bounds the buckets of a set's first-walk histogram.
	maxWindow = 4096
	// fineSub is the sub-bucket bits per octave of the log-linear scale
	// the first-walk histograms are laid on.
	fineSub = 16
	// refineMax bounds the sub-buckets one refining span takes, so one
	// walk narrows several.
	refineMax = 1024
)

// The modes of a span.
const (
	spanIdle    uint8 = iota // open, not read this walk
	spanCollect              // this walk collects its values
	spanRefine               // this walk counts its values in sub-buckets
	spanDone                 // its ranks are settled
)

// Selector reads exact percentiles of up to three sets of int64 values
// that its caller streams through Observe, walk after walk, without
// keeping the values: a summary of a run's records holds no per-record
// sample.
//
// The first walk counts each set into one histogram on a fine
// log-linear scale (2^16 steps per octave, one per value below 2^16),
// whose window of buckets starts one step wide and doubles its width,
// merging bucket pairs, whenever a value falls outside: it ends as fine
// as the window can span the set's values, on a log scale, so a long
// tail does not coarsen it much. Next then opens a span on each bucket
// that holds one of the ranks the percentiles interpolate between.
// Each later walk collects the values of every open span that fits the
// collect scratch, and counts those of a span too full to collect into
// linear sub-buckets over its range, which narrows it for the walk
// after; the first two distinct values a refining span sees are counted
// exactly, so a rank inside a long run of equal values settles there. A span of one value
// is settled as it opens; a collected one by selection among its
// values.
//
// The percentiles are, bit for bit, SelectPercentiles over the same
// values converted to float64: the conversion is monotone, so the k-th
// smallest float64 is the conversion of the k-th smallest int64, and
// both interpolate the same pair with the same lerp.
//
// The scratch — histograms and collected values — is sized from the
// bound Reset is given: at most 8 bytes per value and 128 KB in all. A
// Selector keeps it across Resets.
type Selector struct {
	ps    []float64
	bound int // the most values one set may hold
	walk  int // walks ended
	win   int // buckets in a set's first-walk histogram; 0 for none
	nsets int
	sets  [maxSets]streamSet
	hist  []uint32 // the first walk's histograms, then refining spans' sub-buckets
	slots []uint8  // per set and histogram bucket, 1 + the first read entry in it, or 0
	vals  []int64  // collecting spans' values
}

// streamSet is one set's running state.
type streamSet struct {
	n     int
	shift uint  // a histogram bucket holds 2^shift steps of the scale
	base  int64 // the step>>shift of the histogram's first bucket
	nr    int
	ns    int
	ranks [maxRanks]int   // distinct, ascending
	at    [maxRanks]int64 // each rank's value once settled
	spans [maxRanks]span  // ascending and disjoint
	nread int
	read  [maxRanks]reading // the spans this walk reads
}

// reading is a span a walk reads: v is in it when uint64(v)-uint64(lo)
// <= d.
type reading struct {
	lo int64
	d  uint64
	sp int
}

// span is a value range [lo, hi] holding ranks r0 to r1-1 of its set.
type span struct {
	lo, hi int64
	below  int // the set's values below lo
	n      int // the set's values in [lo, hi]
	off    int // collect: first slot in vals; refine: first counter in hist
	got    int // collect: values taken this walk
	// refine: wit holds the first nw (at most two) distinct values it
	// sees, lt and eq how many of its values lie below and at each.
	nw     int
	wit    [2]int64
	lt, eq [2]int
	r0, r1 uint8
	mode   uint8
	shift  uint8 // refine: sub-bucket j holds lo + j<<shift onward
}

// Reset starts a summary of sets value sets (at most three), none of
// which holds more than bound values, at percentiles ps (ascending, at
// most four, as SelectPercentiles reads them). It sizes the scratch
// from bound, reusing the scratch an earlier Reset left when it is
// large enough.
func (o *Selector) Reset(sets, bound int, ps []float64) {
	if sets < 1 || sets > maxSets || len(ps) > maxRanks/2 {
		panic(fmt.Sprintf("stats: Selector of %d sets at %d percentiles", sets, len(ps)))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] < ps[i-1] {
			panic(fmt.Sprintf("stats: percentile %v after %v: not ascending", ps[i], ps[i-1]))
		}
	}
	o.ps, o.bound, o.walk, o.nsets = ps, bound, 0, sets
	for i := range o.sets[:sets] {
		o.sets[i].n, o.sets[i].nr, o.sets[i].ns = 0, 0, 0
	}
	// The window: a power of two near 16·sqrt(bound) buckets, taking at
	// most half the scratch. On values spread evenly over it a rank's
	// bucket holds about bound/window of them, so half the bound is
	// ample collect room; a fuller bucket is refined, not lost.
	w := min(bound, maxScratch)
	o.win = 0
	for b := maxWindow; b >= 8; b /= 2 {
		if int64(b*b) <= 256*int64(bound) && sets*b <= w { // int64: 256·bound overflows a 32-bit int
			o.win = b
			break
		}
	}
	h := sets * o.win
	o.hist = resize(o.hist, h)
	o.slots = resize(o.slots, h)
	c := w
	if h > 0 {
		c = min(w-(h+1)/2-(h+7)/8, bound/2)
	}
	o.vals = resize(o.vals, c)
	clear(o.hist)
}

// resize returns s at length n, reallocated only when too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Observe adds vals to set. Every walk must observe the same values of
// each set, in any order.
func (o *Selector) Observe(set int, vals []int64) {
	st := &o.sets[set]
	if o.walk > 0 {
		read := st.read[:st.nread]
		if len(read) == 0 {
			return
		}
		if o.win == 0 {
			for _, v := range vals {
				o.find(st, read, v)
			}
			return
		}
		// A value whose bucket holds no span read this walk costs a step,
		// a shift and a byte, and a well-predicted branch.
		slots := o.slots[set*o.win : (set+1)*o.win]
		for _, v := range vals {
			if k := slots[step(v)>>st.shift-st.base]; k != 0 {
				o.find(st, read[k-1:], v)
			}
		}
		return
	}
	if o.win == 0 || len(vals) == 0 {
		st.n += len(vals)
		return
	}
	if st.n == 0 { // the window opens an octave wide, centred on the first value
		st.shift = uint(max(fineSub+1-bits.Len(uint(o.win)), 0))
		st.base = step(vals[0])>>st.shift - int64(o.win/2)
	}
	st.n += len(vals)
	h := o.hist[set*o.win : (set+1)*o.win]
	shift, base := st.shift, st.base
	for _, v := range vals {
		f := step(v)
		j := uint64(f>>shift - base)
		if j >= uint64(len(h)) {
			widen(st, h, f)
			shift, base = st.shift, st.base
			j = uint64(f>>shift - base)
		}
		h[j]++
	}
}

// widen doubles the bucket width of st's histogram h, merging bucket
// pairs, until what h holds and step f span at most three quarters of
// it, and centres the window on them: the window moves or doubles
// again only once the values have spread an eighth of it further, so
// it widens a few times per doubling whatever order the values come in.
func widen(st *streamSet, h []uint32, f int64) {
	lo, hi := f, f
	for j, c := range h {
		if c != 0 {
			lo = min(lo, (st.base+int64(j))<<st.shift)
			break
		}
	}
	for j := len(h) - 1; j >= 0; j-- {
		if h[j] != 0 {
			hi = max(hi, (st.base+int64(j)+1)<<st.shift-1)
			break
		}
	}
	w := int64(len(h))
	d := uint(0)
	for hi>>(st.shift+d)-lo>>(st.shift+d) >= w-w/4 {
		d++
	}
	if d > 0 {
		// Bucket j joins bucket (base+j)>>d - base>>d, never one after j.
		b0 := st.base >> d
		for j, c := range h {
			if c != 0 {
				h[j] = 0
				h[(st.base+int64(j))>>d-b0] += c
			}
		}
		st.base, st.shift = b0, st.shift+d
	}
	nb := (lo>>st.shift + hi>>st.shift - w + 1) >> 1
	if m := int(st.base - nb); m > 0 {
		copy(h[m:], h[:len(h)-m])
		clear(h[:m])
	} else if m < 0 {
		copy(h, h[-m:])
		clear(h[len(h)+m:])
	}
	st.base = nb
}

// find hands v to the first span of read, which is ascending, that
// holds it, if any.
func (o *Selector) find(st *streamSet, read []reading, v int64) {
	for _, rd := range read {
		if v < rd.lo {
			return
		}
		if uint64(v)-uint64(rd.lo) <= rd.d {
			o.take(&st.spans[rd.sp], v)
			return
		}
	}
}

// take hands v to span sp, which holds it.
func (o *Selector) take(sp *span, v int64) {
	if sp.mode == spanRefine {
		o.hist[sp.off+int((uint64(v)-uint64(sp.lo))>>sp.shift)]++
		sp.witness(v)
		return
	}
	if sp.got < sp.n {
		o.vals[sp.off+sp.got] = v
	}
	sp.got++
}

// witness counts v against the first two distinct values a refining
// span sees, which are likely the values of any long run it holds.
func (sp *span) witness(v int64) {
	if sp.nw < 2 && (sp.nw == 0 || v != sp.wit[0]) {
		k := sp.nw
		sp.wit[k], sp.nw = v, k+1
		if k == 1 && sp.wit[0] < v {
			sp.lt[1] = sp.eq[0] // every value before v was wit[0]
		}
	}
	for k := range sp.nw {
		if v < sp.wit[k] {
			sp.lt[k]++
		} else if v == sp.wit[k] {
			sp.eq[k]++
		}
	}
}

// Next ends a walk. It reports whether another is needed; once it
// reports false, Result reads every set.
func (o *Selector) Next() bool {
	for i := range o.sets[:o.nsets] {
		st := &o.sets[i]
		if o.walk == 0 {
			if st.n > o.bound {
				panic(fmt.Sprintf("stats: a set of %d values past its bound %d", st.n, o.bound))
			}
			o.seed(i)
			continue
		}
		for j := 0; j < st.ns; j++ {
			switch st.spans[j].mode {
			case spanCollect:
				o.settle(st, j)
			case spanRefine:
				j = o.split(st, j)
			}
		}
	}
	o.walk++
	return o.plan()
}

// seed places set i's ranks in the buckets of its first-walk histogram
// (or, with none, in one span over every int64).
func (o *Selector) seed(i int) {
	st := &o.sets[i]
	if st.n == 0 {
		return
	}
	for _, p := range o.ps {
		lo, hi, _ := rank(p, st.n)
		st.addRank(lo)
		st.addRank(hi)
	}
	spans := st.spans[:0]
	if o.win == 0 {
		for r := range st.nr {
			spans = st.place(spans, math.MinInt64, math.MaxInt64, 0, st.n, r)
		}
		st.ns = len(spans)
		return
	}
	h := o.hist[i*o.win : (i+1)*o.win]
	b, below := 0, 0
	for r := range st.nr {
		for below+int(h[b]) <= st.ranks[r] {
			below += int(h[b])
			b++
		}
		first := (st.base + int64(b)) << st.shift
		spans = st.place(spans, stepFirst(first), stepLast(first+1<<st.shift-1), below, int(h[b]), r)
	}
	st.ns = len(spans)
}

// addRank inserts rank k into the set's ascending, distinct ranks.
func (st *streamSet) addRank(k int) {
	i := st.nr
	for i > 0 && st.ranks[i-1] > k {
		i--
	}
	if i > 0 && st.ranks[i-1] == k {
		return
	}
	copy(st.ranks[i+1:st.nr+1], st.ranks[i:st.nr])
	st.ranks[i] = k
	st.nr++
}

// place puts rank r, which falls in [lo, hi] with below of the set's
// values under lo and n in it, into the last span of spans or into a
// new one after it; a span of one value is settled at once. A span's
// ranks stay contiguous: one a witness settled between two it holds is
// selected again, to the same value.
func (st *streamSet) place(spans []span, lo, hi int64, below, n, r int) []span {
	if k := len(spans); k > 0 && spans[k-1].lo == lo {
		spans[k-1].r1 = uint8(r + 1) // over any rank a witness settled
	} else {
		mode := spanIdle
		if lo == hi {
			mode = spanDone
		}
		spans = append(spans, span{lo: lo, hi: hi, below: below, n: n, r0: uint8(r), r1: uint8(r + 1), mode: mode})
	}
	if lo == hi {
		st.at[r] = lo
	}
	return spans
}

// settle selects the ranks of collecting span j among its values.
func (o *Selector) settle(st *streamSet, j int) {
	sp := &st.spans[j]
	if sp.got != sp.n {
		panic(fmt.Sprintf("stats: walk %d saw %d values in [%d, %d], walk 1 saw %d: the walks differ", o.walk+1, sp.got, sp.lo, sp.hi, sp.n))
	}
	vals := o.vals[sp.off : sp.off+sp.n]
	done := 0
	for r := sp.r0; r < sp.r1; r++ {
		k := st.ranks[r] - sp.below
		selectKth(vals[done:], k-done)
		st.at[r] = vals[k]
		done = k + 1
	}
	sp.mode = spanDone
}

// runAt reports the witness whose run of equal values holds the span's
// k-th smallest value, if one does.
func (sp *span) runAt(k int) (int64, bool) {
	for w := range sp.nw {
		if k >= sp.lt[w] && k < sp.lt[w]+sp.eq[w] {
			return sp.wit[w], true
		}
	}
	return 0, false
}

// split settles the ranks of refining span j that fall in a witness's
// run, replaces the span by spans on the sub-buckets that hold the
// others, and returns the index of the last (j-1 for none).
func (o *Selector) split(st *streamSet, j int) int {
	sp := st.spans[j]
	d := uint64(sp.hi) - uint64(sp.lo)
	h := o.hist[sp.off : sp.off+int(d>>sp.shift)+1]
	total := 0
	for _, c := range h {
		total += int(c)
	}
	if total != sp.n {
		panic(fmt.Sprintf("stats: walk %d saw %d values in [%d, %d], walk 1 saw %d: the walks differ", o.walk+1, total, sp.lo, sp.hi, sp.n))
	}
	var buf [maxRanks]span
	subs := buf[:0]
	b, below := 0, sp.below
	for r := int(sp.r0); r < int(sp.r1); r++ {
		if v, ok := sp.runAt(st.ranks[r] - sp.below); ok {
			st.at[r] = v
			continue
		}
		for below+int(h[b]) <= st.ranks[r] {
			below += int(h[b])
			b++
		}
		off := uint64(b) << sp.shift
		end := min(off+(uint64(1)<<sp.shift-1), d)
		subs = st.place(subs, int64(uint64(sp.lo)+off), int64(uint64(sp.lo)+end), below, int(h[b]), r)
	}
	k := len(subs)
	copy(st.spans[j+k:st.ns+k-1], st.spans[j+1:st.ns])
	copy(st.spans[j:], subs)
	st.ns += k - 1
	return j + k - 1
}

// plan gives each open span, in order, the collect scratch if it fits
// what is left of it, and otherwise sub-buckets if any are left, and
// reports whether the next walk reads any span. The first open span
// always gets one or the other: with no histogram the collect scratch
// holds bound values, and a histogram leaves at least two counters.
func (o *Selector) plan() bool {
	used, hused := 0, 0
	busy := false
	clear(o.slots)
	for i := range o.sets[:o.nsets] {
		st := &o.sets[i]
		st.nread = 0
		for j := range st.ns {
			sp := &st.spans[j]
			if sp.mode == spanDone {
				continue
			}
			sp.mode = spanIdle
			if sp.n <= len(o.vals)-used {
				sp.mode, sp.off, sp.got = spanCollect, used, 0
				used += sp.n
			} else if free := len(o.hist) - hused; free >= 2 {
				// The least shift that fits the range in the sub-buckets.
				d := uint64(sp.hi) - uint64(sp.lo)
				sp.shift = uint8(bits.Len64(d / uint64(min(free, refineMax))))
				n := int(d>>sp.shift) + 1
				clear(o.hist[hused : hused+n])
				sp.mode, sp.off, sp.nw, sp.lt, sp.eq = spanRefine, hused, 0, [2]int{}, [2]int{}
				hused += n
			} else {
				continue
			}
			busy = true
			st.read[st.nread] = reading{lo: sp.lo, d: uint64(sp.hi) - uint64(sp.lo), sp: j}
			st.nread++
			if o.win > 0 { // a span lies in one first-walk bucket
				if b := i*o.win + int(step(sp.lo)>>st.shift-st.base); o.slots[b] == 0 {
					o.slots[b] = uint8(st.nread)
				}
			}
		}
	}
	return busy
}

// Result returns the count of set's values and sets out[i] to their
// ps[i]-percentile; with no value it returns 0 and leaves out alone.
// Call it once Next has reported false.
func (o *Selector) Result(set int, out []float64) int {
	st := &o.sets[set]
	if st.n == 0 {
		return 0
	}
	for _, sp := range st.spans[:st.ns] {
		if sp.mode != spanDone {
			panic("stats: Selector.Result before the last walk")
		}
	}
	for i, p := range o.ps {
		lo, hi, frac := rank(p, st.n)
		out[i] = lerp(float64(st.value(lo)), float64(st.value(hi)), frac)
	}
	return st.n
}

// value is rank k's settled value.
func (st *streamSet) value(k int) int64 {
	for r := range st.nr {
		if st.ranks[r] == k {
			return st.at[r]
		}
	}
	panic(fmt.Sprintf("stats: rank %d was never placed", k))
}

// step is v's step on the log-linear scale: v itself below 2^fineSub,
// then 2^fineSub steps per octave, and every negative v mirrored below
// zero, so step is monotone over every int64.
func step(v int64) int64 {
	m := v >> 63 // all ones for a negative v, which ^m mirrors onto ^v
	u := uint64(v ^ m)
	l := bits.Len64(u)
	return (int64(max(l-fineSub, 0))<<fineSub | int64(u>>max(l-fineSub-1, 0)&(1<<fineSub-1))) ^ m
}

// maxStep is the step of math.MaxInt64.
const maxStep = (63-fineSub)<<fineSub | (1<<fineSub - 1)

// stepFirst and stepLast are the least and the greatest value of step i.
func stepFirst(i int64) int64 {
	if i < 0 {
		return ^logLast(-1 - i)
	}
	return logFirst(i)
}

func stepLast(i int64) int64 {
	if i < 0 {
		return ^logFirst(-1 - i)
	}
	return logLast(i)
}

func logFirst(i int64) int64 {
	if i < 1<<fineSub {
		return i
	}
	return (1<<fineSub + i&(1<<fineSub-1)) << (i>>fineSub - 1)
}

func logLast(i int64) int64 {
	if i >= maxStep {
		return math.MaxInt64
	}
	return logFirst(i+1) - 1
}
