package partition

import (
	"testing"
	"time"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/hitrate"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/perfmodel"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/splitter"
)

type fixture struct {
	perf *perfmodel.Model
	est  *hitrate.Estimator
	prof *profiler.AccessProfile
	spec dataset.Spec
}

func setup(t *testing.T, spec dataset.Spec) fixture {
	t.Helper()
	gc := dataset.GenConfig{NCenters: 64, PerCenter: 64, Dim: 16, PhysNList: 64, PhysNProbe: 8, Templates: 256, Seed: 5}
	w, err := dataset.Build(spec, gc)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profiler.CollectAccess(w, 4000, 31)
	if err != nil {
		t.Fatal(err)
	}
	est, err := hitrate.NewEstimator(prof)
	if err != nil {
		t.Fatal(err)
	}
	sm := costmodel.NewSearchModel(hw.Xeon8462Y(), spec)
	perf, err := perfmodel.Fit(profiler.ProfileLatency(sm, profiler.DefaultBatches()))
	if err != nil {
		t.Fatal(err)
	}
	return fixture{perf: perf, est: est, prof: prof, spec: spec}
}

func (f fixture) inputs() Inputs {
	return Inputs{
		SLOSearch:    f.spec.SLOSearch,
		Perf:         f.perf,
		Est:          f.est,
		MemKV:        300 << 30, // ~node-wide KV pool for Qwen3-32B-class deployments
		Mu0:          34,
		IndexBytesAt: splitter.IndexBytesAt(f.prof),
	}
}

func TestLatencyBoundedBasic(t *testing.T) {
	f := setup(t, dataset.Orcas1K)
	res, err := LatencyBounded(f.inputs())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("ORCAS-1K at its own SLO should be feasible: %+v", res)
	}
	if res.Rho <= 0 || res.Rho >= 1 {
		t.Fatalf("rho = %v, want interior point (CPU alone misses the budget, full GPU is wasteful)", res.Rho)
	}
	if res.ExpectedBatch < 1 {
		t.Fatalf("expected batch %d", res.ExpectedBatch)
	}
	if res.TauS != f.spec.SLOSearch/2 {
		t.Fatalf("tauS = %v, want SLO/2 with eps=1", res.TauS)
	}
	// The chosen point must satisfy Eq. 1 within the budget.
	lat := f.perf.HybridTime(res.ExpectedBatch, res.EtaMin)
	if lat > res.TauS+res.TauS/10 {
		t.Fatalf("chosen rho misses budget: hybrid %v vs tau %v", lat, res.TauS)
	}
}

func TestTighterSLONeedsMoreCoverage(t *testing.T) {
	// Table II: stricter SLOs allocate more index to GPU.
	f := setup(t, dataset.Orcas1K)
	var prev float64 = -1
	for _, slo := range []time.Duration{250 * time.Millisecond, 200 * time.Millisecond, 150 * time.Millisecond, 100 * time.Millisecond} {
		in := f.inputs()
		in.SLOSearch = slo
		res, err := LatencyBounded(in)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.Rho < prev-0.02 {
			t.Fatalf("coverage fell from %v to %v when SLO tightened to %v", prev, res.Rho, slo)
		}
		prev = res.Rho
	}
}

func TestVeryLooseSLONeedsNoGPU(t *testing.T) {
	f := setup(t, dataset.Orcas1K)
	in := f.inputs()
	in.SLOSearch = 10 * time.Second
	res, err := LatencyBounded(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho > 0.05 {
		t.Fatalf("10s SLO still caches %v of clusters", res.Rho)
	}
}

func TestImpossibleSLOReportsInfeasible(t *testing.T) {
	f := setup(t, dataset.Orcas1K)
	in := f.inputs()
	in.SLOSearch = time.Millisecond // below CQ time: no cache can fix it
	res, err := LatencyBounded(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatalf("1ms SLO reported feasible: %+v", res)
	}
}

// TestIndexThatDoesNotFitIsInfeasible: when the KV pool is smaller than
// the index the search budget asks for, Algorithm 1 must say so here,
// not leave it to surface downstream as "llm: no KV space", and the
// throughput it reports must be the one its own Rho leaves.
func TestIndexThatDoesNotFitIsInfeasible(t *testing.T) {
	f := setup(t, dataset.Orcas1K)
	for _, memKV := range []int64{4 << 30, 1 << 30} {
		in := f.inputs()
		in.MemKV = memKV
		res, err := LatencyBounded(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.IndexBytes < memKV {
			t.Fatalf("MemKV %d: fixture no longer overflows (index %d bytes)", memKV, res.IndexBytes)
		}
		if res.Feasible {
			t.Errorf("MemKV %d: rho %v needs %d index bytes yet is reported feasible", memKV, res.Rho, res.IndexBytes)
		}
		if res.MuLLM != 0 {
			t.Errorf("MemKV %d: MuLLM %v with no KV cache left, want 0", memKV, res.MuLLM)
		}
	}
	// Where the index fits, MuLLM is the linear estimate at the returned Rho.
	in := f.inputs()
	res, err := LatencyBounded(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := in.Mu0 * llm.KVFraction(in.MemKV, in.IndexBytesAt(res.Rho)); !res.Feasible || res.MuLLM != want {
		t.Errorf("default fixture: feasible %v, MuLLM %v, want true, %v", res.Feasible, res.MuLLM, want)
	}
}

func TestConvergesQuickly(t *testing.T) {
	// Paper: convergence in under a minute of wall time; here the loop
	// itself must converge in a handful of bisection steps.
	f := setup(t, dataset.Orcas1K)
	res, err := LatencyBounded(f.inputs())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 64 {
		t.Fatalf("did not converge: %d iterations", res.Iterations)
	}
}

func TestInputValidation(t *testing.T) {
	f := setup(t, dataset.WikiAll)
	in := f.inputs()
	in.Perf = nil
	if _, err := LatencyBounded(in); err == nil {
		t.Fatal("nil perf accepted")
	}
	in = f.inputs()
	in.Mu0 = 0
	if _, err := LatencyBounded(in); err == nil {
		t.Fatal("zero Mu0 accepted")
	}
}

func TestLowerThroughputNeedsLessCoverage(t *testing.T) {
	// A slower LLM implies smaller batches, higher tail hit rates, and
	// therefore less required coverage (the feedback loop of §IV-A3).
	f := setup(t, dataset.Orcas1K)
	fast := f.inputs()
	slow := f.inputs()
	slow.Mu0 = 8
	rFast, err := LatencyBounded(fast)
	if err != nil {
		t.Fatal(err)
	}
	rSlow, err := LatencyBounded(slow)
	if err != nil {
		t.Fatal(err)
	}
	if rSlow.ExpectedBatch > rFast.ExpectedBatch {
		t.Fatalf("slower LLM planned a bigger batch: %d vs %d", rSlow.ExpectedBatch, rFast.ExpectedBatch)
	}
	if rSlow.Rho > rFast.Rho+0.02 {
		t.Fatalf("slower LLM needs more coverage: %v vs %v", rSlow.Rho, rFast.Rho)
	}
}

func TestHedraRetrievalBoundCachesAggressively(t *testing.T) {
	f := setup(t, dataset.Orcas1K)
	in := HedraInputs{
		Perf: f.perf, Est: f.est,
		MemKV: 300 << 30, Mu0: 200, // retrieval-bound regime
		IndexBytesAt: splitter.IndexBytesAt(f.prof),
	}
	res, err := Hedra(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho <= 0 {
		t.Fatal("retrieval-bound regime should cache something")
	}
	// The spare-memory rule: cached bytes never exceed the KV the LLM
	// does not need for the bottleneck throughput.
	eta0 := f.est.MeanHitRate(0)
	muBot := 64.0 / f.perf.HybridTime(64, eta0).Seconds()
	spare := int64(float64(in.MemKV) * (1 - muBot/in.Mu0))
	if res.IndexBytes > spare {
		t.Fatalf("hedra cached %d bytes, above the %d spare-KV bound", res.IndexBytes, spare)
	}
	// And it over-caches relative to any latency need: the remaining LLM
	// throughput is still above the bottleneck.
	if res.MuLLM < muBot*0.95 {
		t.Fatalf("hedra starved the LLM below the bottleneck: %.1f < %.1f", res.MuLLM, muBot)
	}
}

func TestHedraIgnoresLatencyObjective(t *testing.T) {
	// HedraRAG's defining limitation (paper §VI-D): its partitioning
	// point has no latency input at all — it depends only on throughput
	// curves, so it cannot adapt to SLO changes like Algorithm 1 does.
	f := setup(t, dataset.Orcas1K)
	in := HedraInputs{
		Perf: f.perf, Est: f.est,
		MemKV: 300 << 30, Mu0: 200,
		IndexBytesAt: splitter.IndexBytesAt(f.prof),
	}
	a, err := Hedra(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Hedra(in) // identical inputs — deterministic
	if err != nil {
		t.Fatal(err)
	}
	if a.Rho != b.Rho {
		t.Fatal("hedra not deterministic")
	}
	// Meanwhile the latency-bounded point moves with the SLO.
	tight := f.inputs()
	tight.SLOSearch = 100 * time.Millisecond
	loose := f.inputs()
	loose.SLOSearch = 400 * time.Millisecond
	rTight, err := LatencyBounded(tight)
	if err != nil {
		t.Fatal(err)
	}
	rLoose, err := LatencyBounded(loose)
	if err != nil {
		t.Fatal(err)
	}
	if rTight.Rho <= rLoose.Rho {
		t.Fatalf("latency-bounded rho did not respond to SLO: tight %v loose %v", rTight.Rho, rLoose.Rho)
	}
}

func TestHedraLLMBoundKeepsIndexOnCPU(t *testing.T) {
	// Paper §VI-D: when the LLM is the slower stage, HedraRAG allocates
	// all GPU memory to the LLM.
	f := setup(t, dataset.Orcas1K)
	in := HedraInputs{
		Perf: f.perf, Est: f.est,
		MemKV: 300 << 30, Mu0: 5, // LLM-bound
		IndexBytesAt: splitter.IndexBytesAt(f.prof),
	}
	res, err := Hedra(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho != 0 {
		t.Fatalf("LLM-bound hedra cached %v", res.Rho)
	}
}
