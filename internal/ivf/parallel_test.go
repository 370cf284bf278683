package ivf

import (
	"reflect"
	"testing"

	"vectorliterag/internal/rng"
)

// TestParallelBuildBitIdentical asserts the full IVF-PQ construction —
// coarse k-means, per-subspace PQ codebooks, and the encode loop — is
// bit-identical across worker counts for a fixed seed.
func TestParallelBuildBitIdentical(t *testing.T) {
	r := rng.New(4)
	const n, dim = 2000, 16
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = float32(r.NormFloat64())
	}
	cfg := BuildConfig{Dim: dim, NList: 32, PQM: 8, PQK: 64, TrainIters: 6, Seed: 7}

	cfg.Workers = 1
	seq, err := Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 0} {
		cfg.Workers = workers
		par, err := Build(data, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(par.centroids, seq.centroids) {
			t.Fatalf("workers=%d: coarse centroids differ", workers)
		}
		for c := 0; c < seq.NList(); c++ {
			if !reflect.DeepEqual(par.ClusterIDs(c), seq.ClusterIDs(c)) ||
				!reflect.DeepEqual(par.ClusterCodes(c), seq.ClusterCodes(c)) {
				t.Fatalf("workers=%d: inverted list %d differs", workers, c)
			}
		}
		// Same codebooks → same LUTs → same search results.
		q := data[:dim]
		a := seq.Search(q, 8, 10)
		b := par.Search(q, 8, 10)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("workers=%d: search results differ", workers)
		}
	}
}
