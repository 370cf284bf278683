package vecmath

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// fuzzPushes decodes a fuzz payload into a k and a push sequence:
// every two bytes become one distance (signed, so negatives and ties
// occur), pushed under index 0,1,2,...
func fuzzPushes(data []byte) (k int, dists []float32, ok bool) {
	if len(data) < 3 {
		return 0, nil, false
	}
	k = int(data[0])%12 + 1
	body := data[1:]
	n := len(body) / 2
	if n == 0 {
		return 0, nil, false
	}
	if n > 500 {
		n = 500
	}
	dists = make([]float32, n)
	for i := range dists {
		raw := int16(binary.LittleEndian.Uint16(body[i*2 : i*2+2]))
		dists[i] = float32(raw) / 8
	}
	return k, dists, true
}

// FuzzTopK: the hand-rolled bounded max-heap must return exactly the k
// smallest distances in ascending order, with indices that map back to
// pushed values, for any push sequence (including duplicates, negative
// values, and fewer pushes than k).
func FuzzTopK(f *testing.F) {
	f.Add([]byte("\x04sphinx of black quartz judge my vow"))
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("\x0b\xff\x7f\x00\x80\x01\x00\x02\x00\x01\x00\x02\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		k, dists, ok := fuzzPushes(data)
		if !ok {
			t.Skip()
		}
		top := NewTopK(k)
		for i, d := range dists {
			top.Push(i, d)
		}
		if full := len(dists) >= k; full != (top.Len() == k) {
			t.Fatalf("Len %d with %d pushes at k=%d", top.Len(), len(dists), k)
		}
		worst, wasFull := top.Worst()

		got := top.Sorted()
		// Reference: ascending sort of every pushed distance, truncated
		// to k — the k smallest as a multiset.
		want := append([]float32(nil), dists...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("returned %d neighbors, want %d", len(got), len(want))
		}
		seen := map[int]bool{}
		for i, nb := range got {
			if nb.Dist != want[i] {
				t.Fatalf("sorted dist %d = %v, want %v (got %v)", i, nb.Dist, want[i], got)
			}
			if nb.Index < 0 || nb.Index >= len(dists) {
				t.Fatalf("neighbor index %d out of range", nb.Index)
			}
			if dists[nb.Index] != nb.Dist {
				t.Fatalf("index %d was pushed with %v, returned with %v", nb.Index, dists[nb.Index], nb.Dist)
			}
			if seen[nb.Index] {
				t.Fatalf("index %d returned twice", nb.Index)
			}
			seen[nb.Index] = true
		}
		if wasFull && len(got) > 0 && worst != got[len(got)-1].Dist {
			t.Fatalf("Worst() %v != largest kept %v", worst, got[len(got)-1].Dist)
		}

		// Reset/reuse must behave like a fresh collector (the search
		// scratch path).
		top.Reset(k)
		for i, d := range dists {
			top.Push(i, d)
		}
		again := top.Sorted()
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("reused collector diverged at %d: %+v vs %+v", i, again[i], got[i])
			}
		}
	})
}

// fuzzMatrix decodes a fuzz payload into a query and a row-major
// matrix: the first byte picks the dimension (1–40), every following
// four bytes are one float32 taken bit for bit (so NaNs, infinities,
// denormals and signed zeros all occur), the first dim of them the
// query and the rest whole rows.
func fuzzMatrix(data []byte) (q, rows []float32, dim int, ok bool) {
	if len(data) < 1 {
		return nil, nil, 0, false
	}
	dim = int(data[0])%40 + 1
	body := data[1:]
	vals := make([]float32, min(len(body)/4, 2048))
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[i*4:]))
	}
	if len(vals) < dim {
		return nil, nil, 0, false
	}
	q, rows = vals[:dim], vals[dim:]
	return q, rows[:len(rows)/dim*dim], dim, true
}

// FuzzDotRows: for any query and matrix, every DotRows output is Dot's
// bits for that row, every SquaredL2Rows output SquaredL2's, and the
// blocked ArgminNormScore picks the (index, score) a per-row Dot loop
// picks.
func FuzzDotRows(f *testing.F) {
	f.Add([]byte("\x03the five boxing wizards jump quickly over the lazy dog!"))
	f.Add([]byte("\x00\x00\x00\x80\x3f\x00\x00\x80\x7f\x00\x00\x00\x00\x00\x00\xc0\x7f\x01\x00\x00\x00\x00\x00\x80\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, rows, dim, ok := fuzzMatrix(data)
		if !ok {
			t.Skip()
		}
		n := len(rows) / dim
		dots, l2s := make([]float32, n), make([]float32, n)
		DotRows(q, rows, dim, dots)
		SquaredL2Rows(q, rows, dim, l2s)
		for i := 0; i < n; i++ {
			row := rows[i*dim : (i+1)*dim]
			if want := Dot(q, row); !sameBits(dots[i], want) {
				t.Fatalf("dim %d row %d of %d: DotRows %x, Dot %x", dim, i, n, math.Float32bits(dots[i]), math.Float32bits(want))
			}
			if want := SquaredL2(q, row); !sameBits(l2s[i], want) {
				t.Fatalf("dim %d row %d of %d: SquaredL2Rows %x, SquaredL2 %x", dim, i, n, math.Float32bits(l2s[i]), math.Float32bits(want))
			}
		}
		if n == 0 {
			return
		}
		norms := RowNorms(rows, dim, nil)
		wi, ws, w2 := naiveArgminNormScore(q, rows, norms, dim)
		if gi, gs, g2 := ArgminNormScore(q, rows, norms, dim); gi != wi || !sameBits(gs, ws) || !sameBits(g2, w2) {
			t.Fatalf("dim %d, %d rows: ArgminNormScore (%d, %x, %x), per-row loop (%d, %x, %x)", dim, n,
				gi, math.Float32bits(gs), math.Float32bits(g2), wi, math.Float32bits(ws), math.Float32bits(w2))
		}
	})
}
