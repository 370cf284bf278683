package ivf

import (
	"testing"

	"vectorliterag/internal/rng"
	"vectorliterag/internal/vecmath"
)

// clusteredData builds a Gaussian-mixture corpus and returns (data, centers).
func clusteredData(r *rng.Rand, nCenters, perCenter, dim int, spread float64) ([]float32, []float32) {
	centers := make([]float32, nCenters*dim)
	for i := range centers {
		centers[i] = float32(r.NormFloat64()) * 10
	}
	data := make([]float32, nCenters*perCenter*dim)
	for c := 0; c < nCenters; c++ {
		for i := 0; i < perCenter; i++ {
			row := (c*perCenter + i) * dim
			for d := 0; d < dim; d++ {
				data[row+d] = centers[c*dim+d] + float32(r.NormFloat64()*spread)
			}
		}
	}
	return data, centers
}

func buildSmall(t *testing.T, r *rng.Rand) ([]float32, *Index) {
	t.Helper()
	data, _ := clusteredData(r, 16, 80, 16, 0.8)
	ix, err := Build(data, BuildConfig{Dim: 16, NList: 16, PQM: 16, PQK: 128, TrainIters: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return data, ix
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, BuildConfig{Dim: 4, NList: 2, PQM: 2, PQK: 4}); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := Build([]float32{1, 2, 3}, BuildConfig{Dim: 2, NList: 1, PQM: 2, PQK: 4}); err == nil {
		t.Fatal("ragged data accepted")
	}
	if _, err := Build(make([]float32, 8), BuildConfig{Dim: 2, NList: 10, PQM: 2, PQK: 4}); err == nil {
		t.Fatal("nlist > n accepted")
	}
	// More codewords than a byte code addresses: Build rejects it,
	// though PQ trains only on first use.
	data, _ := clusteredData(rng.New(1), 4, 80, 4, 0.5)
	if _, err := Build(data, BuildConfig{Dim: 4, NList: 2, PQM: 2, PQK: 257, TrainIters: 1}); err == nil {
		t.Fatal("PQK 257 accepted")
	}
}

func TestAllVectorsIndexedExactlyOnce(t *testing.T) {
	r := rng.New(1)
	data, ix := buildSmall(t, r)
	n := len(data) / 16
	total := 0
	for c := 0; c < ix.NList(); c++ {
		total += ix.ClusterSize(c)
	}
	if total != n {
		t.Fatalf("inverted lists hold %d vectors, corpus has %d", total, n)
	}
	if ix.NVectors() != n {
		t.Fatalf("NVectors = %d, want %d", ix.NVectors(), n)
	}
}

// TestBuildListsMatchEncodeAndRouting: the codes Build takes from PQ
// training are Quantizer.Encode's for every vector, and every vector
// sits in the list NearestCentroid routes it to — the pruned k-means
// final assignments are the plain argmins — at sub-vector widths 1, 4
// and 8.
func TestBuildListsMatchEncodeAndRouting(t *testing.T) {
	r := rng.New(12)
	for _, cfg := range []BuildConfig{
		{Dim: 16, NList: 16, PQM: 16, PQK: 128, TrainIters: 8, Seed: 1},
		{Dim: 32, NList: 24, PQM: 8, PQK: 64, TrainIters: 6, Seed: 2},
		{Dim: 64, NList: 24, PQM: 8, PQK: 64, TrainIters: 6, Seed: 3, Workers: 3},
	} {
		data, _ := clusteredData(r, 24, 60, cfg.Dim, 0.9)
		ix, err := Build(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cs := ix.CodeSize()
		for c := 0; c < ix.NList(); c++ {
			codes := ix.ClusterCodes(c)
			for p, id := range ix.ClusterIDs(c) {
				v := data[int(id)*cfg.Dim : (int(id)+1)*cfg.Dim]
				if want := ix.Quantizer().Encode(v, nil); string(codes[p*cs:(p+1)*cs]) != string(want) {
					t.Fatalf("dim %d: vector %d stored code %v, Encode %v", cfg.Dim, id, codes[p*cs:(p+1)*cs], want)
				}
				if route := ix.NearestCentroid(v); route != c {
					t.Fatalf("dim %d: vector %d in list %d, NearestCentroid %d", cfg.Dim, id, c, route)
				}
			}
		}
	}
}

func TestProbeReturnsRequestedCount(t *testing.T) {
	r := rng.New(2)
	data, ix := buildSmall(t, r)
	q := data[:16]
	for _, np := range []int{1, 4, 16, 100} {
		probes := ix.Probe(q, np)
		want := np
		if want > ix.NList() {
			want = ix.NList()
		}
		if len(probes) != want {
			t.Fatalf("Probe(%d) returned %d clusters", np, len(probes))
		}
		seen := map[int]bool{}
		for _, c := range probes {
			if c < 0 || c >= ix.NList() || seen[c] {
				t.Fatalf("invalid or duplicate probe %d", c)
			}
			seen[c] = true
		}
	}
	if got := ix.Probe(q, 0); got != nil {
		t.Fatalf("Probe(0) = %v, want nil", got)
	}
}

func TestProbeOrderedByCentroidDistance(t *testing.T) {
	r := rng.New(3)
	data, ix := buildSmall(t, r)
	q := data[16:32]
	probes := ix.Probe(q, ix.NList())
	var prev float32 = -1
	for _, c := range probes {
		d := vecmath.SquaredL2(q, centroidOf(ix, c))
		if prev >= 0 && d < prev-1e-4 {
			t.Fatalf("probe order not ascending: %v then %v", prev, d)
		}
		prev = d
	}
}

func centroidOf(ix *Index, c int) []float32 {
	return ix.centroids[c*ix.dim : (c+1)*ix.dim]
}

func TestSearchFindsSelf(t *testing.T) {
	r := rng.New(4)
	data, ix := buildSmall(t, r)
	hits := 0
	const tries = 50
	for i := 0; i < tries; i++ {
		qi := r.Intn(ix.NVectors())
		q := data[qi*16 : (qi+1)*16]
		res := ix.Search(q, 4, 10)
		for _, nb := range res {
			if nb.Index == qi {
				hits++
				break
			}
		}
	}
	if hits < tries*8/10 {
		t.Fatalf("self-recall %d/%d too low", hits, tries)
	}
}

func TestSearchResultsSorted(t *testing.T) {
	r := rng.New(5)
	data, ix := buildSmall(t, r)
	res := ix.Search(data[:16], 8, 20)
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("results not ascending")
		}
	}
}

func TestRecallImprovesWithNprobe(t *testing.T) {
	r := rng.New(6)
	data, ix := buildSmall(t, r)
	queries := data[:16*20] // reuse first 20 vectors as queries
	r1 := ix.Recall(data, queries, 1, 10)
	rAll := ix.Recall(data, queries, ix.NList(), 10)
	if rAll < r1 {
		t.Fatalf("recall fell with more probes: nprobe1=%v nprobeAll=%v", r1, rAll)
	}
	if rAll < 0.6 {
		t.Fatalf("full-probe recall %v too low (PQ quality issue)", rAll)
	}
}

func TestSearchClustersSubset(t *testing.T) {
	r := rng.New(7)
	data, ix := buildSmall(t, r)
	q := data[:16]
	probes := ix.Probe(q, 4)
	full := ix.SearchClusters(q, probes, 10)
	same := ix.Search(q, 4, 10)
	if len(full) != len(same) {
		t.Fatalf("SearchClusters len %d != Search len %d", len(full), len(same))
	}
	for i := range full {
		if full[i].Index != same[i].Index {
			t.Fatalf("rank %d differs: %d vs %d", i, full[i].Index, same[i].Index)
		}
	}
}

func TestScanClusterRespectsTopK(t *testing.T) {
	r := rng.New(8)
	data, ix := buildSmall(t, r)
	q := data[:16]
	lut := ix.BuildLUT(q)
	top := vecmath.NewTopK(3)
	for c := 0; c < ix.NList(); c++ {
		ix.ScanCluster(lut, c, top)
	}
	if top.Len() != 3 {
		t.Fatalf("TopK holds %d, want 3", top.Len())
	}
}

func TestHotClustersOrdering(t *testing.T) {
	counts := []int64{5, 100, 5, 50}
	hot := HotClusters(counts)
	if hot[0] != 1 || hot[1] != 3 {
		t.Fatalf("HotClusters = %v", hot)
	}
	// Ties (clusters 0 and 2) break to lower ID.
	if hot[2] != 0 || hot[3] != 2 {
		t.Fatalf("tie-break wrong: %v", hot)
	}
}

func TestBuildDeterministic(t *testing.T) {
	r1 := rng.New(9)
	data, _ := clusteredData(r1, 8, 50, 8, 0.5)
	cfg := BuildConfig{Dim: 8, NList: 8, PQM: 4, PQK: 32, TrainIters: 5, Seed: 3}
	a, err := Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qa := a.Search(data[:8], 4, 5)
	qb := b.Search(data[:8], 4, 5)
	for i := range qa {
		if qa[i].Index != qb[i].Index {
			t.Fatal("same build config produced different search results")
		}
	}
}
