package dataset

import (
	"math"
	"reflect"
	"testing"

	"vectorliterag/internal/rng"
)

// TestParallelBuildBitIdentical asserts the whole workload construction
// (corpus, index training, template probing, calibration) is
// bit-identical across worker counts — the property that makes the
// parallel offline build safe to enable by default.
func TestParallelBuildBitIdentical(t *testing.T) {
	gc := GenConfig{NCenters: 32, PerCenter: 48, Dim: 16, PhysNList: 32, PhysNProbe: 6, Templates: 128, Seed: 3}

	gc.Workers = 1
	seq, err := Build(Orcas1K, gc)
	if err != nil {
		t.Fatal(err)
	}
	gc.Workers = 8
	par, err := Build(Orcas1K, gc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par.Data, seq.Data) {
		t.Fatal("corpus differs across worker counts")
	}
	if math.Float64bits(par.kappa) != math.Float64bits(seq.kappa) {
		t.Fatalf("kappa differs: %v vs %v", par.kappa, seq.kappa)
	}
	if !reflect.DeepEqual(par.clusterBytes, seq.clusterBytes) {
		t.Fatal("cluster bytes differ")
	}
	for i := range seq.templates {
		if !reflect.DeepEqual(par.templates[i].probes, seq.templates[i].probes) {
			t.Fatalf("template %d probe list differs", i)
		}
	}
	// Access counts over the same sample agree.
	r1, r2 := rng.New(11), rng.New(11)
	qs1 := seq.SampleMany(r1, 2000)
	qs2 := par.SampleMany(r2, 2000)
	if !reflect.DeepEqual(qs1, qs2) {
		t.Fatal("query samples differ")
	}
	if !reflect.DeepEqual(seq.AccessCounts(qs1), par.AccessCounts(qs2)) {
		t.Fatal("access counts differ")
	}
}
