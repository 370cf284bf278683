package rag

import (
	"fmt"
	"strings"
	"testing"

	"vectorliterag/internal/golden"
	"vectorliterag/internal/serve"
)

// TestPipelineMatchesPreRefactorGoldens: the pre-refactor rag.Run — the
// 200-line monolith that wired arrivals, engines, and the LLM cluster by
// hand — produced testdata/runs.golden for each system on the shared
// test workload (Orcas1K spec, small physical realization, seed 1, 12
// req/s, 60 s window). The stage-pipeline composition must reproduce it
// exactly: the refactor moved wiring, not semantics, and the DES is
// deterministic.
func TestPipelineMatchesPreRefactorGoldens(t *testing.T) {
	var b strings.Builder
	b.WriteString("kind,attainment,ttft_p90_ns,e2e_p90_ns,n,unserved,avg_batch,rho\n")
	for _, kind := range AllKinds() {
		res, err := Run(baseOpts(t, kind, 12))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		s := res.Summary
		fmt.Fprintf(&b, "%s,%.17g,%d,%d,%d,%d,%.17g,%.17g\n", kind, s.Attainment,
			int64(s.TTFT.P90), int64(s.E2E.P90), s.N, s.Unserved, res.AvgBatch, res.Rho)
	}
	golden.Check(t, "runs", b.String())
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

// TestSharedRoutesByPolicy: the single-timeline front sends arrival k
// to replica k mod R under round-robin, and under least-loaded leaves
// that rotation once completions lower the gauges; either way each
// replica's routed count is its ID list.
func TestSharedRoutesByPolicy(t *testing.T) {
	const r = 3
	for _, policy := range serve.Policies() {
		o := routed(baseOpts(t, AllGPU, 24), r, policy)
		s, err := decidedCorpus(t, &o).shared(&o)
		if err != nil {
			t.Fatal(err)
		}
		rotation, total := true, 0
		for i, n := range s.nodes {
			for j, id := range n.ids {
				rotation = rotation && int(id) == i+r*j
			}
			if s.submitted[i] != len(n.ids) {
				t.Errorf("%s: replica %d routed %d, its ID list holds %d", policy, i, s.submitted[i], len(n.ids))
			}
			total += s.submitted[i]
		}
		if total != len(s.records) {
			t.Errorf("%s: routed %d of %d arrivals", policy, total, len(s.records))
		}
		if rotation != (policy == serve.RoundRobin) {
			t.Errorf("%s: routing is the k mod %d rotation: %v", policy, r, rotation)
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
