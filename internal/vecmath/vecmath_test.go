package vecmath

import (
	"container/heap"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"vectorliterag/internal/rng"
)

func TestSquaredL2Basic(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 6, 3}
	if got := SquaredL2(a, b); got != 25 {
		t.Fatalf("SquaredL2 = %v, want 25", got)
	}
}

func TestSquaredL2Zero(t *testing.T) {
	a := []float32{1.5, -2.5}
	if got := SquaredL2(a, a); got != 0 {
		t.Fatalf("distance to self = %v, want 0", got)
	}
}

func TestDot(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestSquaredL2MatchesExpansion(t *testing.T) {
	// ||a-b||^2 == ||a||^2 + ||b||^2 - 2<a,b>, a property the PQ LUT
	// construction relies on.
	r := rng.New(1)
	if err := quick.Check(func(seed uint16) bool {
		a := make([]float32, 8)
		b := make([]float32, 8)
		for i := range a {
			a[i] = float32(r.NormFloat64())
			b[i] = float32(r.NormFloat64())
		}
		lhs := float64(SquaredL2(a, b))
		rhs := float64(Norm2(a)) + float64(Norm2(b)) - 2*float64(Dot(a, b))
		return math.Abs(lhs-rhs) < 1e-3
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAddScale(t *testing.T) {
	v := []float32{1, 2}
	Add(v, []float32{3, 4})
	if v[0] != 4 || v[1] != 6 {
		t.Fatalf("Add gave %v", v)
	}
	Scale(v, 0.5)
	if v[0] != 2 || v[1] != 3 {
		t.Fatalf("Scale gave %v", v)
	}
}

func TestArgminL2(t *testing.T) {
	rows := []float32{
		0, 0,
		5, 5,
		1, 1,
	}
	idx, d := ArgminL2([]float32{0.9, 0.9}, rows, 2)
	if idx != 2 {
		t.Fatalf("ArgminL2 index = %d, want 2", idx)
	}
	if math.Abs(float64(d)-0.02) > 1e-5 {
		t.Fatalf("ArgminL2 dist = %v, want ~0.02", d)
	}
}

func TestArgminPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ArgminL2 on empty matrix did not panic")
		}
	}()
	ArgminL2([]float32{1}, nil, 1)
}

func TestTopKKeepsSmallest(t *testing.T) {
	tk := NewTopK(3)
	dists := []float32{9, 1, 8, 2, 7, 3}
	for i, d := range dists {
		tk.Push(i, d)
	}
	got := tk.AppendSorted(nil)
	if len(got) != 3 {
		t.Fatalf("TopK kept %d, want 3", len(got))
	}
	wantIdx := []int{1, 3, 5}
	for i, n := range got {
		if n.Index != wantIdx[i] {
			t.Fatalf("TopK result %d = %+v, want index %d", i, n, wantIdx[i])
		}
	}
}

func TestTopKSortedAscending(t *testing.T) {
	r := rng.New(2)
	tk := NewTopK(10)
	for i := 0; i < 100; i++ {
		tk.Push(i, float32(r.Float64()))
	}
	got := tk.AppendSorted(nil)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Dist < got[j].Dist }) {
		t.Fatalf("TopK.Sorted not ascending: %v", got)
	}
}

func TestTopKFewerThanK(t *testing.T) {
	tk := NewTopK(5)
	tk.Push(0, 1)
	tk.Push(1, 2)
	if _, ok := tk.Worst(); ok {
		t.Fatal("Worst reported full before k pushes")
	}
	if got := tk.AppendSorted(nil); len(got) != 2 {
		t.Fatalf("Sorted len = %d, want 2", len(got))
	}
}

func TestTopKWorstTracksKth(t *testing.T) {
	tk := NewTopK(2)
	tk.Push(0, 5)
	tk.Push(1, 3)
	if w, ok := tk.Worst(); !ok || w != 5 {
		t.Fatalf("Worst = %v,%v want 5,true", w, ok)
	}
	tk.Push(2, 1)
	if w, _ := tk.Worst(); w != 3 {
		t.Fatalf("Worst after better push = %v, want 3", w)
	}
}

func TestBruteForceTopKMatchesFullSort(t *testing.T) {
	r := rng.New(3)
	const dim, n, k = 4, 200, 7
	rows := make([]float32, n*dim)
	for i := range rows {
		rows[i] = float32(r.NormFloat64())
	}
	q := make([]float32, dim)
	for i := range q {
		q[i] = float32(r.NormFloat64())
	}
	got := BruteForceTopK(q, rows, dim, k)

	type pair struct {
		idx int
		d   float32
	}
	all := make([]pair, n)
	for i := 0; i < n; i++ {
		all[i] = pair{i, SquaredL2(q, rows[i*dim:(i+1)*dim])}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
	for i := 0; i < k; i++ {
		if got[i].Index != all[i].idx {
			t.Fatalf("rank %d: got %d want %d", i, got[i].Index, all[i].idx)
		}
	}
}

func TestTopKProperty(t *testing.T) {
	// Property: the max distance kept is <= every discarded distance.
	r := rng.New(4)
	if err := quick.Check(func(kRaw uint8) bool {
		k := int(kRaw%10) + 1
		tk := NewTopK(k)
		dists := make([]float32, 50)
		for i := range dists {
			dists[i] = float32(r.Float64())
			tk.Push(i, dists[i])
		}
		kept := tk.AppendSorted(nil)
		keptSet := map[int]bool{}
		var maxKept float32
		for _, n := range kept {
			keptSet[n.Index] = true
			if n.Dist > maxKept {
				maxKept = n.Dist
			}
		}
		for i, d := range dists {
			if !keptSet[i] && d < maxKept {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// heapRef replicates the previous container/heap-backed TopK so the
// hand-rolled heap can be pinned bit-identical to it, ties included.
type heapRef []Neighbor

func (h heapRef) Len() int            { return len(h) }
func (h heapRef) Less(i, j int) bool  { return h[i].Dist > h[j].Dist }
func (h heapRef) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *heapRef) Push(x interface{}) { *h = append(*h, x.(Neighbor)) }
func (h *heapRef) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func refTopK(k int, push func(add func(int, float32))) []Neighbor {
	h := make(heapRef, 0, k)
	add := func(index int, dist float32) {
		if len(h) < k {
			heap.Push(&h, Neighbor{Index: index, Dist: dist})
			return
		}
		if dist < h[0].Dist {
			h[0] = Neighbor{Index: index, Dist: dist}
			heap.Fix(&h, 0)
		}
	}
	push(add)
	out := make([]Neighbor, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Neighbor)
	}
	return out
}

// TestTopKMatchesContainerHeapBitwise drives the hand-rolled heap and a
// container/heap reference with identical push sequences — heavy with
// duplicate distances, where sift order is observable — and requires
// identical output, index for index.
func TestTopKMatchesContainerHeapBitwise(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.Intn(12)
		n := 1 + r.Intn(80)
		dists := make([]float32, n)
		for i := range dists {
			// Draw from 8 discrete levels so ties are common.
			dists[i] = float32(r.Intn(8))
		}
		tk := NewTopK(k)
		for i, d := range dists {
			tk.Push(i, d)
		}
		got := tk.AppendSorted(nil)
		want := refTopK(k, func(add func(int, float32)) {
			for i, d := range dists {
				add(i, d)
			}
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d vs %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d rank %d: %+v vs container/heap %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestTopKResetReuseNoAllocs pins the scratch contract: after one
// warm-up cycle, Reset + Push + AppendSorted allocate nothing.
func TestTopKResetReuseNoAllocs(t *testing.T) {
	tk := NewTopK(8)
	out := make([]Neighbor, 0, 8)
	run := func() {
		tk.Reset(8)
		for i := 0; i < 50; i++ {
			tk.Push(i, float32((i*37)%50))
		}
		out = tk.AppendSorted(out[:0])
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("TopK reuse allocates %.1f objects per cycle", allocs)
	}
	if len(out) != 8 || out[0].Dist != 0 {
		t.Fatalf("reused TopK produced %v", out)
	}
}

func TestRowNorms(t *testing.T) {
	rows := []float32{1, 2, 3, 4, 0, 0}
	got := RowNorms(rows, 2, nil)
	want := []float32{5, 25, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RowNorms = %v, want %v", got, want)
		}
	}
	// In-place reuse fills the provided buffer.
	buf := make([]float32, 3)
	if &RowNorms(rows, 2, buf)[0] != &buf[0] {
		t.Fatal("RowNorms did not reuse the provided buffer")
	}
}

// TestArgminNormScoreMatchesExact checks the decomposed argmin against
// the exact scan on Gaussian data: same winner, and the reconstructed
// distance (qnorm + score) matches the exact distance to rounding.
func TestArgminNormScoreMatchesExact(t *testing.T) {
	r := rng.New(6)
	const dim, n = 16, 200
	rows := make([]float32, n*dim)
	for i := range rows {
		rows[i] = float32(r.NormFloat64())
	}
	norms := RowNorms(rows, dim, nil)
	for trial := 0; trial < 50; trial++ {
		q := make([]float32, dim)
		for i := range q {
			q[i] = float32(r.NormFloat64())
		}
		wantIdx, wantD := ArgminL2(q, rows, dim)
		gotIdx, score, _ := ArgminNormScore(q, rows, norms, dim)
		if gotIdx != wantIdx {
			t.Fatalf("trial %d: decomposed argmin %d, exact %d", trial, gotIdx, wantIdx)
		}
		d := float64(Norm2(q) + score)
		if math.Abs(d-float64(wantD)) > 1e-3 {
			t.Fatalf("trial %d: reconstructed dist %v vs exact %v", trial, d, wantD)
		}
	}
}

func TestArgminNormScorePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ArgminNormScore on empty matrix did not panic")
		}
	}()
	ArgminNormScore([]float32{1}, nil, nil, 1)
}

// TestBruteForcerMatchesBruteForceTopK pins the norm-decomposed
// brute-forcer to the exact reference: identical indices, distances
// equal to rounding, and zero steady-state allocations.
func TestBruteForcerMatchesBruteForceTopK(t *testing.T) {
	r := rng.New(7)
	const dim, n, k = 8, 300, 9
	rows := make([]float32, n*dim)
	for i := range rows {
		rows[i] = float32(r.NormFloat64())
	}
	bf := NewBruteForcer(rows, dim)
	out := make([]Neighbor, 0, k)
	for trial := 0; trial < 30; trial++ {
		q := make([]float32, dim)
		for i := range q {
			q[i] = float32(r.NormFloat64())
		}
		want := BruteForceTopK(q, rows, dim, k)
		out = bf.AppendTopK(out[:0], q, k)
		if len(out) != len(want) {
			t.Fatalf("lengths differ: %d vs %d", len(out), len(want))
		}
		for i := range out {
			if out[i].Index != want[i].Index {
				t.Fatalf("trial %d rank %d: index %d vs %d", trial, i, out[i].Index, want[i].Index)
			}
			if math.Abs(float64(out[i].Dist-want[i].Dist)) > 1e-3 {
				t.Fatalf("trial %d rank %d: dist %v vs %v", trial, i, out[i].Dist, want[i].Dist)
			}
		}
	}
	q := rows[:dim]
	bf.AppendTopK(out[:0], q, k)
	if allocs := testing.AllocsPerRun(50, func() {
		out = bf.AppendTopK(out[:0], q, k)
	}); allocs != 0 {
		t.Fatalf("AppendTopK allocates %.1f objects per query", allocs)
	}
}
