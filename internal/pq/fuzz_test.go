package pq

import (
	"testing"

	"vectorliterag/internal/vecmath"
)

// fuzzLUT deterministically derives a LUT, a code block, and a top-k
// size from raw fuzz bytes. The table is built directly (not via
// BuildLUT) so the fuzzer controls every entry; entries are
// non-negative, which is the invariant the early-abandon path relies
// on (prefix sums are monotone).
func fuzzLUT(data []byte) (lut *LUT, codes []byte, k int, ok bool) {
	if len(data) < 3 {
		return nil, nil, 0, false
	}
	m := int(data[0])%12 + 1
	k = int(data[1])%9 + 1
	tab := make([]float32, m*lutStride)
	// Fill the addressable entries from the fuzz bytes, cycling; scale
	// some rows up so abandon bounds trip at different subspace depths.
	body := data[2:]
	for i := range tab {
		b := body[i%len(body)]
		tab[i] = float32(b) * float32(1+i%3)
	}
	lut = &LUT{M: m, K: lutStride, tab: tab}
	nCodes := len(body) / m
	if nCodes == 0 {
		return nil, nil, 0, false
	}
	if nCodes > 200 {
		nCodes = 200
	}
	codes = body[:nCodes*m]
	return lut, codes, k, true
}

// refScan is the naive reference: every candidate fully evaluated with
// Distance and handed to push in list order — the semantics
// ScanCodesIDsMasked's early abandonment and M=8 fast path must
// preserve bit for bit, push skipping the dead candidates.
func refScan(lut *LUT, codes []byte, push func(i int, d float32)) {
	cs := lut.M
	for i := 0; i*cs < len(codes); i++ {
		push(i, lut.Distance(codes[i*cs:(i+1)*cs]))
	}
}

func neighborsEqual(t *testing.T, got, want []vecmath.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result sizes differ: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("neighbor %d differs: got %+v, want %+v\nall got:  %v\nall want: %v",
				i, got[i], want[i], got, want)
		}
	}
}

// fuzzMask derives a positional tombstone bitmap over n candidates
// from the same fuzz bytes that built the table, so the fuzzer steers
// which positions die. The mask is sized exactly ceil(n/64) words —
// the contract the masked scans document.
func fuzzMask(data []byte, n int) []uint64 {
	dead := make([]uint64, (n+63)/64)
	if len(data) == 0 {
		return dead
	}
	for i := 0; i < n; i++ {
		// Kill roughly a third of positions, byte-steered.
		if data[i%len(data)]%3 == 0 {
			dead[uint(i)>>6] |= 1 << (uint(i) & 63)
		}
	}
	return dead
}

// fuzzIDs returns n non-monotone candidate IDs, so ordering bugs cannot
// hide behind list positions.
func fuzzIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32((i*2654435761 + 11) % 100003)
	}
	return ids
}

func isDead(dead []uint64, i int) bool {
	return dead[uint(i)>>6]&(1<<(uint(i)&63)) != 0
}

// FuzzScanCodesIDs: the inverted-list scan (including the M=8
// specialized kernel) with a nil mask must match the naive plain
// reference bit for bit.
func FuzzScanCodesIDs(f *testing.F) {
	// M=8 seeds exercise scanIDs8Masked, the specialized hot path.
	f.Add([]byte("\x07\x03pack my box with five dozen liquor jugs"))
	f.Add([]byte("\x07\x01\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10"))
	f.Add([]byte("\x04\x05abcdefghijklmnopqrstuvwxyz0123456789"))
	f.Fuzz(func(t *testing.T, data []byte) {
		lut, codes, k, ok := fuzzLUT(data)
		if !ok {
			t.Skip()
		}
		n := len(codes) / lut.M
		ids := fuzzIDs(n)
		want := vecmath.NewTopK(k)
		refScan(lut, codes, func(i int, d float32) { want.Push(int(ids[i]), d) })
		got := vecmath.NewTopK(k)
		lut.ScanCodesIDsMasked(codes, ids, nil, got)
		neighborsEqual(t, got.AppendSorted(nil), want.AppendSorted(nil))
	})
}

// FuzzScanCodesIDsMasked: the inverted-list scan (including the M=8
// specialized kernel) must match the naive masked reference bit for
// bit — every live candidate fully evaluated and pushed in list order,
// every dead one skipped — and an all-zero mask must match the naive
// plain reference.
func FuzzScanCodesIDsMasked(f *testing.F) {
	// M=8 seeds exercise scanIDs8Masked, the specialized hot path.
	f.Add([]byte("\x07\x03pack my box with five dozen liquor jugs"))
	f.Add([]byte("\x07\x01\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10"))
	f.Add([]byte("\x04\x05abcdefghijklmnopqrstuvwxyz0123456789"))
	f.Fuzz(func(t *testing.T, data []byte) {
		lut, codes, k, ok := fuzzLUT(data)
		if !ok {
			t.Skip()
		}
		n := len(codes) / lut.M
		ids := fuzzIDs(n)
		dead := fuzzMask(data, n)
		want := vecmath.NewTopK(k)
		refScan(lut, codes, func(i int, d float32) {
			if !isDead(dead, i) {
				want.Push(int(ids[i]), d)
			}
		})
		got := vecmath.NewTopK(k)
		lut.ScanCodesIDsMasked(codes, ids, dead, got)
		neighborsEqual(t, got.AppendSorted(nil), want.AppendSorted(nil))
		// An all-zero mask must scan every candidate.
		clear(dead)
		want.Reset(k)
		refScan(lut, codes, func(i int, d float32) { want.Push(int(ids[i]), d) })
		got.Reset(k)
		lut.ScanCodesIDsMasked(codes, ids, dead, got)
		neighborsEqual(t, got.AppendSorted(nil), want.AppendSorted(nil))
	})
}

// fuzzSQ deterministically derives a ScalarQuantizer, a query, a code
// block, and a top-k size from raw fuzz bytes. The quantizer is built
// directly (not via TrainSQ) so the fuzzer controls every per-dim
// range, including degenerate and inverted ones — Distance is
// well-defined for all of them, and the abandon path only relies on
// per-dim terms being squares (non-negative).
func fuzzSQ(data []byte) (q *ScalarQuantizer, query []float32, codes []byte, k int, ok bool) {
	if len(data) < 4 {
		return nil, nil, nil, 0, false
	}
	dim := int(data[0])%16 + 1
	k = int(data[1])%9 + 1
	body := data[2:]
	q = &ScalarQuantizer{Dim: dim, min: make([]float32, dim), max: make([]float32, dim)}
	query = make([]float32, dim)
	for d := 0; d < dim; d++ {
		lo := float32(int(body[d%len(body)]) - 128)
		span := float32(body[(d+7)%len(body)]) / 4
		q.min[d] = lo
		q.max[d] = lo + span // span 0 = degenerate dim, also legal
		query[d] = float32(int(body[(d+13)%len(body)])-128) / 8
	}
	nCodes := len(body) / dim
	if nCodes == 0 {
		return nil, nil, nil, 0, false
	}
	if nCodes > 200 {
		nCodes = 200
	}
	codes = body[:nCodes*dim]
	return q, query, codes, k, true
}

// refScanSQ is the naive float reference: every candidate fully
// evaluated with ScalarQuantizer.Distance and handed to push in list
// order — the semantics ScanSQIDsMasked's early abandonment must
// preserve bit for bit, push skipping the dead candidates.
func refScanSQ(q *ScalarQuantizer, query []float32, codes []byte, push func(i int, d float32)) {
	cs := q.Dim
	for i := 0; i*cs < len(codes); i++ {
		push(i, q.Distance(query, codes[i*cs:(i+1)*cs]))
	}
}

// FuzzScanSQIDs: the inverted-list SQ8 scan with no mask must match
// the naive plain reference bit for bit.
func FuzzScanSQIDs(f *testing.F) {
	f.Add([]byte("\x07\x03pack my box with five dozen liquor jugs"))
	f.Add([]byte("\x04\x05abcdefghijklmnopqrstuvwxyz0123456789"))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, query, codes, k, ok := fuzzSQ(data)
		if !ok {
			t.Skip()
		}
		n := len(codes) / q.Dim
		ids := fuzzIDs(n)
		want := vecmath.NewTopK(k)
		refScanSQ(q, query, codes, func(i int, d float32) { want.Push(int(ids[i]), d) })
		got := vecmath.NewTopK(k)
		q.ScanSQIDs(query, codes, ids, got)
		neighborsEqual(t, got.AppendSorted(nil), want.AppendSorted(nil))
	})
}

// FuzzScanSQIDsMasked: the inverted-list SQ8 scan must match the naive
// masked reference bit for bit, and an all-zero mask must match the
// naive plain reference.
func FuzzScanSQIDsMasked(f *testing.F) {
	f.Add([]byte("\x07\x03pack my box with five dozen liquor jugs"))
	f.Add([]byte("\x04\x05abcdefghijklmnopqrstuvwxyz0123456789"))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, query, codes, k, ok := fuzzSQ(data)
		if !ok {
			t.Skip()
		}
		n := len(codes) / q.Dim
		ids := fuzzIDs(n)
		dead := fuzzMask(data, n)
		want := vecmath.NewTopK(k)
		refScanSQ(q, query, codes, func(i int, d float32) {
			if !isDead(dead, i) {
				want.Push(int(ids[i]), d)
			}
		})
		got := vecmath.NewTopK(k)
		q.ScanSQIDsMasked(query, codes, ids, dead, got)
		neighborsEqual(t, got.AppendSorted(nil), want.AppendSorted(nil))
		// An all-zero mask must scan every candidate.
		clear(dead)
		want.Reset(k)
		refScanSQ(q, query, codes, func(i int, d float32) { want.Push(int(ids[i]), d) })
		got.Reset(k)
		q.ScanSQIDsMasked(query, codes, ids, dead, got)
		neighborsEqual(t, got.AppendSorted(nil), want.AppendSorted(nil))
	})
}
