package ivf

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"vectorliterag/internal/rng"
)

// TestBuildDigestPinned pins the physical index directly, not through
// an experiment golden: FNV-1a over the coarse centroids, every
// inverted list's ids and codes, and the ProbeInto / SearchInto results
// of 64 fixed queries, for one small fixed-seed build per PQ sub-vector
// width (dim 32 → sd 4; dim 64 → sd 8). The constants were recorded
// before the k-means, encode, probe and LUT loops moved onto
// vecmath.DotRows; a kernel change that alters one float32 rounding
// anywhere in build or search moves them.
func TestBuildDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		dim  int
		want uint64
	}{
		{dim: 32, want: 0xd85f1033f0459ba1},
		{dim: 64, want: 0xb490b76dfbe7c452},
	} {
		r := rng.New(uint64(100 + tc.dim))
		data, _ := clusteredData(r, 24, 60, tc.dim, 0.9)
		ix, err := Build(data, BuildConfig{Dim: tc.dim, NList: 24, PQM: 8, PQK: 64, TrainIters: 6, Seed: 11, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [4]byte
		u32 := func(v uint32) {
			binary.LittleEndian.PutUint32(b[:], v)
			h.Write(b[:])
		}
		for _, c := range ix.centroids {
			u32(math.Float32bits(c))
		}
		for c := 0; c < ix.NList(); c++ {
			ids := ix.ClusterIDs(c)
			u32(uint32(len(ids)))
			for _, id := range ids {
				u32(uint32(id))
			}
			h.Write(ix.ClusterCodes(c)) // trains PQ on the first list
		}
		// Queries: corpus rows pushed off their cluster by noise, so probe
		// order and the scan's abandon decisions both matter.
		s := ix.NewSearchScratch()
		q := make([]float32, tc.dim)
		n := len(data) / tc.dim
		for i := 0; i < 64; i++ {
			row := data[r.Intn(n)*tc.dim:]
			for d := range q {
				q[d] = row[d] + float32(r.NormFloat64()*2)
			}
			for _, c := range ix.ProbeInto(s, q, 6) {
				u32(uint32(c))
			}
			for _, nb := range ix.SearchInto(s, q, 6, 10) {
				u32(uint32(nb.Index))
				u32(math.Float32bits(nb.Dist))
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("dim %d: build+search digest %#016x, want %#016x", tc.dim, got, tc.want)
		}
	}
}
