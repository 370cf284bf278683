package ivf

import (
	"testing"

	"vectorliterag/internal/rng"
	"vectorliterag/internal/vecmath"
)

// buildBatchIndex builds one shared corpus and an index with the given
// worker-pool size. Indexes built with different worker counts are
// bit-identical (see parallel_test.go), so batched-vs-sequential
// comparisons across worker counts exercise only the query path.
func buildBatchIndex(t *testing.T, workers int) ([]float32, *Index) {
	t.Helper()
	r := rng.New(21)
	data, _ := clusteredData(r, 16, 80, 16, 0.8)
	ix, err := Build(data, BuildConfig{Dim: 16, NList: 16, PQM: 8, PQK: 64, TrainIters: 6, Seed: 5, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return data, ix
}

func sameNeighbors(t *testing.T, label string, got, want []vecmath.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d neighbors, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index || got[i].Dist != want[i].Dist {
			t.Fatalf("%s: rank %d differs: %+v vs %+v", label, i, got[i], want[i])
		}
	}
}

// TestSearchBatchMatchesSequential is the batched-determinism contract:
// SearchBatch must be bit-identical (indices and distances) to calling
// Search per query in order, for any batch size and worker count.
func TestSearchBatchMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 3, 0} {
		data, ix := buildBatchIndex(t, workers)
		for _, nq := range []int{1, 2, 5, 17, 64} {
			queries := data[:nq*16]
			batch, err := ix.SearchBatch(queries, 4, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != nq {
				t.Fatalf("SearchBatch returned %d results for %d queries", len(batch), nq)
			}
			for qi := 0; qi < nq; qi++ {
				want := ix.Search(queries[qi*16:(qi+1)*16], 4, 10)
				sameNeighbors(t, "batch", batch[qi], want)
			}
		}
	}
}

// TestSearchBatchTrainsOnce: an untrained index whose first read is a
// four-worker SearchBatch, so that every worker races to train PQ,
// answers exactly as a twin trained before its first search.
func TestSearchBatchTrainsOnce(t *testing.T) {
	data, fresh := buildBatchIndex(t, 4)
	_, twin := buildBatchIndex(t, 4)
	twin.Quantizer()
	if PQTrained(fresh) || !PQTrained(twin) {
		t.Fatalf("trained before the batch: fresh %v, twin %v", PQTrained(fresh), PQTrained(twin))
	}
	queries := data[:64*16]
	got, err := fresh.SearchBatch(queries, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.SearchBatch(queries, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range want {
		sameNeighbors(t, "first batch", got[qi], want[qi])
	}
}

func TestSearchBatchRejectsRaggedInput(t *testing.T) {
	_, ix := buildBatchIndex(t, 1)
	if _, err := ix.SearchBatch(make([]float32, 17), 4, 5); err == nil {
		t.Fatal("ragged batch accepted")
	}
}

// TestSearchIntoMatchesSearch pins the scratch path to the allocating
// wrapper across repeated reuse of a single scratch.
func TestSearchIntoMatchesSearch(t *testing.T) {
	data, ix := buildBatchIndex(t, 1)
	s := ix.NewSearchScratch()
	for qi := 0; qi < 30; qi++ {
		q := data[qi*16 : (qi+1)*16]
		got := ix.SearchInto(s, q, 4, 10)
		want := ix.Search(q, 4, 10)
		sameNeighbors(t, "scratch", got, want)
	}
}

func TestSearchClustersIntoMatchesSearchClusters(t *testing.T) {
	data, ix := buildBatchIndex(t, 1)
	s := ix.NewSearchScratch()
	q := data[:16]
	probes := ix.Probe(q, 6)
	got := ix.SearchClustersInto(s, q, probes, 12)
	want := ix.SearchClusters(q, probes, 12)
	sameNeighbors(t, "clusters", got, want)
}

func TestProbeIntoMatchesProbe(t *testing.T) {
	data, ix := buildBatchIndex(t, 1)
	s := ix.NewSearchScratch()
	for qi := 0; qi < 20; qi++ {
		q := data[qi*16 : (qi+1)*16]
		got := ix.ProbeInto(s, q, 5)
		want := ix.Probe(q, 5)
		if len(got) != len(want) {
			t.Fatalf("probe lengths differ: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("probe %d differs: %d vs %d", i, got[i], want[i])
			}
		}
	}
}

// TestSearchIntoZeroAllocs is the tentpole's allocation contract:
// steady-state scratch search allocates nothing.
func TestSearchIntoZeroAllocs(t *testing.T) {
	data, ix := buildBatchIndex(t, 1)
	s := ix.NewSearchScratch()
	q := data[:16]
	// Warm the scratch so every buffer reaches steady-state capacity.
	ix.SearchInto(s, q, 4, 10)
	if allocs := testing.AllocsPerRun(100, func() {
		ix.SearchInto(s, q, 4, 10)
	}); allocs != 0 {
		t.Fatalf("SearchInto allocates %.1f objects per call in steady state", allocs)
	}
}

// TestHotClustersTieBreakRegression pins the full hottest-first order on
// a count vector dense with ties: equal counts must order by ascending
// cluster ID, matching the previous sort.SliceStable behavior.
func TestHotClustersTieBreakRegression(t *testing.T) {
	counts := []int64{7, 3, 7, 0, 3, 7, 0, 12}
	want := []int{7, 0, 2, 5, 1, 4, 3, 6}
	got := HotClusters(counts)
	if len(got) != len(want) {
		t.Fatalf("HotClusters returned %d ids", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("HotClusters order %v, want %v", got, want)
		}
	}
}

// TestRecallParallelMatchesSequential pins Recall under real
// parallelism: an index built with many workers must report the exact
// recall of a single-worker build (this also exercises the per-worker
// BruteForcer clones under -race).
func TestRecallParallelMatchesSequential(t *testing.T) {
	dataSeq, seq := buildBatchIndex(t, 1)
	_, par := buildBatchIndex(t, 8)
	queries := dataSeq[:16*40]
	a := seq.Recall(dataSeq, queries, 4, 10)
	b := par.Recall(dataSeq, queries, 4, 10)
	if a != b {
		t.Fatalf("recall differs across worker counts: %v vs %v", a, b)
	}
	if a <= 0 || a > 1 {
		t.Fatalf("recall %v out of range", a)
	}
}
