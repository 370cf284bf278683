package pq

import (
	"math"
	"testing"

	"vectorliterag/internal/rng"
	"vectorliterag/internal/vecmath"
)

// maskOf returns the codeword mask of an m-byte code block.
func maskOf(codes []byte, m int) []uint64 {
	mask := make([]uint64, MaskLen(m))
	MarkCodes(mask, codes, m)
	return mask
}

// setLows records each row's smallest entry of a hand-built table, as
// BuildLUTInto does for the tables it fills.
func setLows(lut *LUT) {
	lut.low = make([]uint8, lut.M)
	for m := range lut.low {
		row := lut.tab[m*lutStride : m*lutStride+lut.K]
		for j, e := range row {
			if e < row[lut.low[m]] {
				lut.low[m] = uint8(j)
			}
		}
	}
}

// minSumLTR is lowerBound's reference: per subspace the smallest entry
// any code of the block uses, the minima summed left to right.
func minSumLTR(lut *LUT, codes []byte) float32 {
	var sum float32
	for m := 0; m < lut.M; m++ {
		lo := float32(math.Inf(1))
		for i := m; i < len(codes); i += lut.M {
			lo = min(lo, lut.tab[m*lutStride+int(codes[i])])
		}
		sum += lo
	}
	return sum
}

// TestLowerBoundIsTheSumOfMinima: on trained tables, the bound of a
// list is the left-to-right sum of its per-subspace minima bit for bit,
// so the bound of a one-code list is that code's distance — no slack
// for a search to lose a skippable list to.
func TestLowerBoundIsTheSumOfMinima(t *testing.T) {
	r := rng.New(5)
	for _, m := range []int{8, 5} {
		q, data := trainSmall(t, r, 600, 40, m, 64)
		codes := make([]byte, 0, 40*m)
		for i := 0; i < 40; i++ {
			codes = append(codes, q.Encode(data[i*40:(i+1)*40], nil)...)
		}
		lut := q.BuildLUT(data[41*40 : 42*40])
		for i := 0; i < 40; i++ {
			code := codes[i*m : (i+1)*m]
			got, want := lut.lowerBound(maskOf(code, m)), lut.Distance(code)
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("M %d code %d: one-code bound %v, distance %v", m, i, got, want)
			}
		}
		for _, n := range []int{2, 7, 40} {
			block := codes[:n*m]
			if got, want := lut.lowerBound(maskOf(block, m)), minSumLTR(lut, block); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("M %d %d codes: bound %v, sum of minima %v", m, n, got, want)
			}
		}
	}
}

// TestLowerBoundSumsLeftToRight: on a table whose entries round apart
// when summed in the two orders, the bound is the kernels' left-to-right
// sum. Summed right to left it would exceed the one code's distance.
func TestLowerBoundSumsLeftToRight(t *testing.T) {
	tiny := float32(math.Ldexp(1, -24)) // half an ulp of 1
	for _, m := range []int{3, 8} {
		lut := &LUT{M: m, K: 1, tab: make([]float32, m*lutStride)}
		lut.tab[0] = 1
		for s := 1; s < m; s++ {
			lut.tab[s*lutStride] = tiny
		}
		setLows(lut)
		code := make([]byte, m)
		var rtl float32
		for s := m - 1; s >= 0; s-- {
			rtl += lut.tab[s*lutStride]
		}
		d := lut.Distance(code)
		if rtl == d {
			t.Fatalf("M %d: the table does not round apart (%v both ways)", m, d)
		}
		if got := lut.lowerBound(maskOf(code, m)); math.Float32bits(got) != math.Float32bits(d) {
			t.Fatalf("M %d: bound %v, left-to-right distance %v (right to left %v)", m, got, d, rtl)
		}
	}
}

// fuzzBound derives a LUT of M in [1, 16] rows over K in [1, 256]
// codewords and a code block from raw fuzz bytes. Entries are signed
// bytes at a fuzzed scale, so zeros, equal entries and negative ones
// all occur; one fuzzed row is constant.
func fuzzBound(data []byte) (lut *LUT, codes []byte, ok bool) {
	if len(data) < 5 {
		return nil, nil, false
	}
	m, k := int(data[0])%16+1, int(data[1])+1
	scale := float32(math.Ldexp(1, int(data[2])%40-20))
	flat := int(data[3]) % m
	body := data[4:]
	lut = &LUT{M: m, K: k, tab: make([]float32, m*lutStride)}
	for s := 0; s < m; s++ {
		for j := 0; j < k; j++ {
			b := body[(s*k+j)%len(body)]
			if s == flat {
				b = body[s%len(body)]
			}
			lut.tab[s*lutStride+j] = float32(int8(b)) * scale
		}
	}
	setLows(lut)
	n := min(len(body)/m, 64)
	if n == 0 {
		return nil, nil, false
	}
	codes = make([]byte, n*m)
	for i := range codes {
		codes[i] = byte(int(body[(i*7+3)%len(body)]) % k)
	}
	return lut, codes, true
}

// kernelDistances returns each code's distance as every scan kernel
// computes it: Distance, distanceAbandon under an infinite bound, and
// ScanCodesIDsMasked with a nil mask and with an all-live bitmap, in
// its fill phase (a collector larger than the block) and its steady
// phase (one code into a full collector whose k-th best is +Inf).
func kernelDistances(lut *LUT, codes []byte) [][]float32 {
	inf := float32(math.Inf(1))
	n := len(codes) / lut.M
	live := make([]uint64, (n+63)/64)
	scans := []func(codes []byte, ids []int32, top *vecmath.TopK){
		func(codes []byte, ids []int32, top *vecmath.TopK) { lut.ScanCodesIDsMasked(codes, ids, nil, top) },
		func(codes []byte, ids []int32, top *vecmath.TopK) { lut.ScanCodesIDsMasked(codes, ids, live, top) },
	}
	out := make([][]float32, n)
	for i := range out {
		code := codes[i*lut.M : (i+1)*lut.M]
		d, _ := lut.distanceAbandon(code, inf)
		out[i] = append(out[i], lut.Distance(code), d)
	}
	for _, scan := range scans {
		top := vecmath.NewTopK(n + 1)
		scan(codes, positional(n), top)
		for _, nb := range top.AppendSorted(nil) {
			out[nb.Index] = append(out[nb.Index], nb.Dist)
		}
		for i := range out {
			top.Reset(1)
			top.Push(-1, inf)
			scan(codes[i*lut.M:(i+1)*lut.M], []int32{int32(i)}, top)
			out[i] = append(out[i], top.AppendSorted(nil)[0].Dist)
		}
	}
	return out
}

// FuzzLowerBound: a list's lowerBound is the left-to-right sum of its
// per-subspace minima, whether a row takes its marked minimum after one
// bit test or visits its marked codewords; it is at most every member's
// distance under every scan kernel; and scanning a list whose bound
// reaches a full collector's k-th best — ties included — leaves the
// collector as it was, so Prunes may skip it.
func FuzzLowerBound(f *testing.F) {
	f.Add([]byte("\x07\xff\x14\x02pack my box with five dozen liquor jugs"))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("\x04\x0f\x17\x01\x80\x7f\x00\x01\xfe\x02\x80\x80abcdefghijklmnopqrstuvwxyz0123456789"))
	f.Add([]byte("\x0f\x03\x20\x05\x01\x01\x01\x01\x00\x00\xff\xff\x10\x20\x30\x40\x50\x60\x70the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, data []byte) {
		lut, codes, ok := fuzzBound(data)
		if !ok {
			t.Skip()
		}
		mask := maskOf(codes, lut.M)
		lb := lut.lowerBound(mask)
		if want := minSumLTR(lut, codes); math.Float32bits(lb) != math.Float32bits(want) {
			t.Fatalf("bound %v, sum of minima %v", lb, want)
		}
		for i, ds := range kernelDistances(lut, codes) {
			for kernel, d := range ds {
				if !(lb <= d) {
					t.Fatalf("code %d: bound %v above kernel %d's distance %v", i, lb, kernel, d)
				}
			}
		}
		// A full collector whose k-th best is the bound itself, or below.
		n := len(codes) / lut.M
		k := int(data[4])%9 + 1
		fill := func(top *vecmath.TopK) {
			top.Reset(k)
			for j := range k {
				top.Push(1<<20+j, lb-float32(data[(j+5)%len(data)]%3)*float32(math.Abs(float64(lb))+1))
			}
		}
		want := vecmath.NewTopK(k)
		fill(want)
		wantRes := want.AppendSorted(nil)
		dead := fuzzMask(data, n)
		for _, scan := range []func(top *vecmath.TopK){
			func(top *vecmath.TopK) { lut.ScanCodesIDsMasked(codes, fuzzIDs(n), nil, top) },
			func(top *vecmath.TopK) { lut.ScanCodesIDsMasked(codes, fuzzIDs(n), dead, top) },
		} {
			got := vecmath.NewTopK(k)
			fill(got)
			if !lut.Prunes(mask, got) {
				t.Fatalf("bound %v reaches the k-th best, yet Prunes refuses", lb)
			}
			scan(got)
			neighborsEqual(t, got.AppendSorted(nil), wantRes)
		}
	})
}
