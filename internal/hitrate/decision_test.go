package hitrate_test

import (
	"testing"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/hitrate"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/partition"
	"vectorliterag/internal/perfmodel"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/rag"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/tenant"
	"vectorliterag/internal/workload"
)

// These tests fence the redundancy the estimator's table removed: the
// decision procedures revisit the same few (cluster count, batch)
// points of Eq. 2 dozens of times, and each may be integrated once.

// defaultDecision assembles what rag.Decide hands Algorithm 1 for
// default ORCAS-1K at Seed 1 (H100 node, Qwen3-32B), on a cold
// estimator from newEst.
type defaultDecision struct {
	prof   *profiler.AccessProfile
	perf   *perfmodel.Model
	mu0    float64
	memKV  int64
	prefix []int64 // bytes of the k hottest clusters
}

func newDefaultDecision(t *testing.T) defaultDecision {
	t.Helper()
	node, model := hw.H100Node(), llm.Qwen3_32B
	w, err := dataset.Build(dataset.Orcas1K, dataset.DefaultGen())
	if err != nil {
		t.Fatal(err)
	}
	d := defaultDecision{}
	if d.prof, err = profiler.CollectAccess(w, 4000, 2); err != nil {
		t.Fatal(err)
	}
	d.perf, err = perfmodel.Fit(profiler.ProfileLatency(costmodel.NewSearchModel(node.CPU, w.Spec), profiler.DefaultBatches()))
	if err != nil {
		t.Fatal(err)
	}
	if d.mu0, err = rag.BareCapacity(node, model, workload.DefaultShape()); err != nil {
		t.Fatal(err)
	}
	d.memKV = (node.GPU.UsableMem() - model.WeightBytesPerGPU()) * int64(node.NumGPUs/model.TP*model.TP)
	d.prefix = make([]int64, len(d.prof.HotOrder)+1)
	for k, c := range d.prof.HotOrder {
		d.prefix[k+1] = d.prefix[k] + w.ClusterBytes(c)
	}
	return d
}

func (d defaultDecision) newEst(t *testing.T) *hitrate.Estimator {
	t.Helper()
	est, err := hitrate.NewEstimator(d.prof)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestDecisionsIntegrateEachPointOnce(t *testing.T) {
	d := newDefaultDecision(t)

	// Algorithm 1: 9 outer iterations × 2 roundings × a 7-step bisect
	// made 135 integrals over 14 distinct points before the table.
	est := d.newEst(t)
	res, err := partition.LatencyBounded(partition.Inputs{
		SLOSearch: dataset.Orcas1K.SLOSearch, Perf: d.perf, Est: est,
		MemKV: d.memKV, Mu0: d.mu0, IndexBytesAt: splitter.IndexBytesAt(d.prof),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho != 0.1015625 || res.Iterations != 9 {
		t.Fatalf("not the default ORCAS-1K decision: rho %v after %d iterations", res.Rho, res.Iterations)
	}
	calls, points := est.Integrations()
	t.Logf("LatencyBounded: %d integrations over %d points", calls, points)
	if calls != points || calls > 20 {
		t.Errorf("LatencyBounded made %d integrations over %d distinct points; want each once and at most 20", calls, points)
	}

	// The joint allocator, three tenants on one shared estimator and on
	// one each: the greedy re-scores every tenant every round.
	shared := d.newEst(t)
	for _, ests := range [][]*hitrate.Estimator{
		{shared, shared, shared},
		{d.newEst(t), d.newEst(t), d.newEst(t)},
	} {
		var tenants []tenant.Input
		for i, tier := range tenant.Tiers() {
			tenants = append(tenants, tenant.Input{
				Name: string(tier), Tier: tier, Rate: float64(4 * (i + 1)),
				SLOSearch: dataset.Orcas1K.SLOSearch, Perf: d.perf, Est: ests[i], PrefixBytes: d.prefix,
			})
		}
		if _, err := tenant.JointAllocate(tenant.Inputs{Tenants: tenants, MemKV: d.memKV, Mu0: d.mu0}); err != nil {
			t.Fatal(err)
		}
		for i, est := range ests {
			calls, points := est.Integrations()
			if calls == 0 || calls != points {
				t.Errorf("JointAllocate, tenant %d: %d integrations over %d distinct points", i, calls, points)
			}
		}
	}
}
