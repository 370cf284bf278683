package ivf

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"vectorliterag/internal/pq"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/vecmath"
)

// fullScan is the unpruned reference search: ProbeInto, BuildLUTInto
// and ScanCluster over every probe in order. It also counts the probed
// lists whose bound reaches the running k-th best — the lists a pruning
// search skips — so a differential test can tell that pruning ran.
func fullScan(ix *Index, s *SearchScratch, q []float32, clusters []int, k int) (res []vecmath.Neighbor, prunable int) {
	ix.Quantizer().BuildLUTInto(q, &s.lut)
	top := vecmath.NewTopK(k)
	for _, c := range clusters {
		if s.lut.Prunes(ix.ClusterMask(c), top) {
			prunable++
		}
		ix.ScanCluster(&s.lut, c, top)
	}
	return top.AppendSorted(nil), prunable
}

// sameBits fails unless got and want hold the same IDs and the same
// distance bits, rank for rank.
func sameBits(t *testing.T, label string, got, want []vecmath.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d neighbors, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index || math.Float32bits(got[i].Dist) != math.Float32bits(want[i].Dist) {
			t.Fatalf("%s: rank %d differs: %+v vs %+v", label, i, got[i], want[i])
		}
	}
}

// pruneCorpus is a clustered corpus whose last fifth repeats earlier
// rows, so equal codes — equal distances — meet the k-th best.
func pruneCorpus(r *rng.Rand, dim int) []float32 {
	data, _ := clusteredData(r, 24, 50, dim, 4)
	n := len(data) / dim
	for i := 0; i < n/5; i++ {
		src := r.Intn(n)
		data = append(data, data[src*dim:(src+1)*dim]...)
	}
	return data
}

// TestPrunedSearchMatchesFullScan: SearchInto, SearchClustersInto and
// SearchBatch, which skip the lists LUT.Prunes rules out, return what a
// scan of every probed list returns, IDs and distance bits — at
// sub-vector widths 4 and 8, on the M=8 kernel and the generic one, at
// nprobe 1 to nlist and k from 1 to past a list's length, so the fill
// phase spans several lists. Probe lists given twice put equal
// distances on the k-th best across lists. At least 30 % of the probed
// lists must be skippable, or the comparison says nothing of pruning.
func TestPrunedSearchMatchesFullScan(t *testing.T) {
	r := rng.New(58)
	probed, prunable := 0, 0
	for _, cfg := range []BuildConfig{
		{Dim: 32, NList: 24, PQM: 8, PQK: 64, TrainIters: 6, Seed: 1},
		{Dim: 64, NList: 24, PQM: 8, PQK: 64, TrainIters: 6, Seed: 2},
		{Dim: 40, NList: 24, PQM: 10, PQK: 32, TrainIters: 6, Seed: 3},
	} {
		data := pruneCorpus(r, cfg.Dim)
		ix, err := Build(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		longest := slices.Max(ix.ClusterSizes())
		n := len(data) / cfg.Dim
		queries := make([]float32, 0, 24*cfg.Dim)
		for range 24 {
			row := data[r.Intn(n)*cfg.Dim:][:cfg.Dim]
			for _, x := range row {
				queries = append(queries, x+float32(r.NormFloat64()*0.5))
			}
		}
		s, ref := ix.NewSearchScratch(), ix.NewSearchScratch()
		for _, nprobe := range []int{1, 4, 16, cfg.NList} {
			for _, k := range []int{1, 3, 10, longest + 7} {
				label := fmt.Sprintf("dim %d M %d nprobe %d k %d", cfg.Dim, cfg.PQM, nprobe, k)
				batch, err := ix.SearchBatch(queries, nprobe, k)
				if err != nil {
					t.Fatal(err)
				}
				for qi := range batch {
					q := queries[qi*cfg.Dim:][:cfg.Dim]
					probes := slices.Clone(ix.ProbeInto(ref, q, nprobe))
					want, skip := fullScan(ix, ref, q, probes, k)
					probed += len(probes)
					prunable += skip
					sameBits(t, label+" SearchInto", ix.SearchInto(s, q, nprobe, k), want)
					sameBits(t, label+" SearchBatch", batch[qi], want)
					sameBits(t, label+" SearchClustersInto", ix.SearchClustersInto(s, q, probes, k), want)
					twice := append(slices.Clone(probes), probes...)
					want, _ = fullScan(ix, ref, q, twice, k)
					sameBits(t, label+" SearchClustersInto twice", ix.SearchClustersInto(s, q, twice, k), want)
				}
			}
		}
	}
	share := float64(prunable) / float64(probed)
	t.Logf("%d of %d probed lists skippable (%.1f%%)", prunable, probed, 100*share)
	if share < 0.30 {
		t.Fatalf("only %.1f%% of probed lists skippable: the differential check barely reaches the pruning", 100*share)
	}
}

// TestClusterMaskMarksExactlyItsCodes: every list's codeword mask marks
// the codewords its codes use and no other — a missing bit could let a
// search skip a list holding a neighbor.
func TestClusterMaskMarksExactlyItsCodes(t *testing.T) {
	_, ix := buildSmall(t, rng.New(7))
	cs := ix.CodeSize()
	for c := 0; c < ix.NList(); c++ {
		want := make([]uint64, pq.MaskLen(cs))
		pq.MarkCodes(want, ix.ClusterCodes(c), cs)
		if !slices.Equal(ix.ClusterMask(c), want) {
			t.Fatalf("cluster %d: mask %x, its codes mark %x", c, ix.ClusterMask(c), want)
		}
	}
}
