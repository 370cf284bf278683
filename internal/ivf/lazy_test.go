package ivf_test

import (
	"testing"
	"time"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/ivf"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/rag"
)

// TestServeNeverTrainsPQ: serving prices scans through the cost model
// and partitions on cluster sizes and probe lists, so a vLiteRAG run
// leaves the physical index's PQ untrained; the first search trains it.
func TestServeNeverTrainsPQ(t *testing.T) {
	gc := dataset.GenConfig{NCenters: 32, PerCenter: 64, Dim: 16, PhysNList: 32, PhysNProbe: 4, Templates: 128, Seed: 1}
	w, err := dataset.Build(dataset.Orcas1K, gc)
	if err != nil {
		t.Fatal(err)
	}
	if ivf.PQTrained(w.Index) {
		t.Fatal("dataset.Build trained PQ")
	}
	res, err := rag.Run(rag.Options{
		Node: hw.H100Node(), Model: llm.Qwen3_32B, W: w, Kind: rag.VLiteRAG, Rate: 10, Seed: 1,
		Duration: 30 * time.Second, Warmup: 5 * time.Second, Drain: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == 0 {
		t.Fatal("the run served nothing")
	}
	if ivf.PQTrained(w.Index) {
		t.Fatal("rag.Run trained PQ")
	}
	q := w.Data[:gc.Dim]
	if got := w.Index.SearchInto(w.Index.NewSearchScratch(), q, gc.PhysNProbe, 5); len(got) != 5 {
		t.Fatalf("first search returned %d neighbors", len(got))
	}
	if !ivf.PQTrained(w.Index) {
		t.Fatal("SearchInto left PQ untrained")
	}
}
