package rag

import (
	"testing"
)

// The pre-refactor rag.Run — the 200-line monolith that wired arrivals,
// engines, and the LLM cluster by hand — produced these values for each
// system on the shared test workload (Orcas1K spec, small physical
// realization, seed 1, 12 req/s, 60 s window). The stage-pipeline
// composition must reproduce them exactly: the refactor moved wiring,
// not semantics, and the DES is deterministic.
var goldenRuns = map[Kind]struct {
	attainment float64
	ttftP90    int64 // virtual ns
	e2eP90     int64 // virtual ns
	n          int
	unserved   int
	avgBatch   float64
	rho        float64
}{
	CPUOnly:  {0.64824120603015079, 599264561, 4605487168, 597, 0, 2.7265917602996255, 0},
	DedGPU:   {1, 176266050, 5005767054, 597, 0, 1.0833333333333333, 1},
	AllGPU:   {1, 204900366, 4947621399, 597, 0, 1.058139534883721, 1},
	VLiteRAG: {0.99664991624790622, 340412119, 4721119078, 597, 0, 1.3481481481481481, 0.171875},
	HedraRAG: {0.60636515912897826, 602031536, 4946895676, 597, 0, 2.7265917602996255, 0.0},
}

func TestPipelineMatchesPreRefactorGoldens(t *testing.T) {
	for kind, want := range goldenRuns {
		res, err := Run(baseOpts(t, kind, 12))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		s := res.Summary
		if s.Attainment != want.attainment {
			t.Errorf("%s: attainment %.17g, golden %.17g", kind, s.Attainment, want.attainment)
		}
		if int64(s.TTFT.P90) != want.ttftP90 {
			t.Errorf("%s: TTFT p90 %d, golden %d", kind, int64(s.TTFT.P90), want.ttftP90)
		}
		if int64(s.E2E.P90) != want.e2eP90 {
			t.Errorf("%s: E2E p90 %d, golden %d", kind, int64(s.E2E.P90), want.e2eP90)
		}
		if s.N != want.n || s.Unserved != want.unserved {
			t.Errorf("%s: N=%d unserved=%d, golden N=%d unserved=%d", kind, s.N, s.Unserved, want.n, want.unserved)
		}
		if res.AvgBatch != want.avgBatch {
			t.Errorf("%s: avg batch %.17g, golden %.17g", kind, res.AvgBatch, want.avgBatch)
		}
		if res.Rho != want.rho {
			t.Errorf("%s: rho %.17g, golden %.17g", kind, res.Rho, want.rho)
		}
	}
}

func TestAllKindsSupersetOfKinds(t *testing.T) {
	all := map[Kind]bool{}
	for _, k := range AllKinds() {
		all[k] = true
	}
	for _, k := range Kinds() {
		if !all[k] {
			t.Errorf("Kinds() entry %s missing from AllKinds()", k)
		}
	}
	if !all[HedraRAG] {
		t.Error("AllKinds() missing HedraRAG")
	}
	if len(AllKinds()) != len(Kinds())+1 {
		t.Errorf("AllKinds() has %d entries, want %d", len(AllKinds()), len(Kinds())+1)
	}
}

func TestRunClusterBalancesAndScales(t *testing.T) {
	single, err := Run(baseOpts(t, VLiteRAG, 12))
	if err != nil {
		t.Fatal(err)
	}
	// Two replicas at double the cluster-wide rate should hold roughly
	// the single-node operating point.
	opts := baseOpts(t, VLiteRAG, 24)
	cl, err := Run(routed(opts, 2, ""))
	if err != nil {
		t.Fatal(err)
	}
	if cl.Policy == "" {
		t.Error("default policy not resolved")
	}
	if len(cl.PerReplica) != 2 {
		t.Fatalf("got %d replica reports", len(cl.PerReplica))
	}
	if cl.Summary.Attainment < single.Summary.Attainment-0.05 {
		t.Errorf("2-replica attainment %.3f well below single-node %.3f at matched per-node load",
			cl.Summary.Attainment, single.Summary.Attainment)
	}
	if cl.LLMGPUs != 2*single.LLMGPUs {
		t.Errorf("cluster LLM GPUs %d, want %d", cl.LLMGPUs, 2*single.LLMGPUs)
	}
	total := 0
	for i, rep := range cl.PerReplica {
		if rep.Submitted == 0 {
			t.Errorf("replica %d received no requests", i)
		}
		total += rep.Submitted
	}
	if total != cl.Generated {
		t.Errorf("replica submissions %d != %d generated", total, cl.Generated)
	}
	// Least-loaded keeps the split near even under Poisson arrivals.
	for i, rep := range cl.PerReplica {
		share := float64(rep.Submitted) / float64(total)
		if share < 0.35 || share > 0.65 {
			t.Errorf("replica %d share %.3f badly skewed", i, share)
		}
	}
}

func TestRunClusterValidation(t *testing.T) {
	if _, err := Run(routed(baseOpts(t, VLiteRAG, 10), -1, "")); err == nil {
		t.Fatal("negative replicas accepted")
	}
	if _, err := Run(routed(baseOpts(t, VLiteRAG, 10), 2, "bogus")); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestRunClusterSingleReplicaMatchesRun(t *testing.T) {
	single, err := Run(baseOpts(t, AllGPU, 12))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Run(routed(baseOpts(t, AllGPU, 12), 1, "round-robin"))
	if err != nil {
		t.Fatal(err)
	}
	// One replica behind the router sees the identical arrival stream
	// and serves it with an identical pipeline.
	if cl.Summary.Attainment != single.Summary.Attainment ||
		cl.Summary.TTFT.P90 != single.Summary.TTFT.P90 ||
		cl.Generated != single.Generated {
		t.Errorf("1-replica cluster diverged from single run: %+v vs %+v", cl.Summary, single.Summary)
	}
}

func TestClusterDeterministic(t *testing.T) {
	a, err := Run(routed(baseOpts(t, VLiteRAG, 24), 2, "least-loaded"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(routed(baseOpts(t, VLiteRAG, 24), 2, "least-loaded"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.Attainment != b.Summary.Attainment || a.Summary.E2E.P90 != b.Summary.E2E.P90 {
		t.Fatal("identical cluster runs differ")
	}
}
