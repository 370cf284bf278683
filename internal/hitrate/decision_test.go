package hitrate_test

import (
	"math"
	"slices"
	"testing"
	"time"

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

// defaultDecision assembles what rag.Decide hands Algorithm 1 for a
// default workload (H100 node, Qwen3-32B, profile seed 2), on a cold
// estimator from newEst.
type defaultDecision struct {
	prof   *profiler.AccessProfile
	perf   *perfmodel.Model
	mu0    float64
	memKV  int64
	prefix []int64 // bytes of the k hottest clusters
}

func newDefaultDecision(t *testing.T, spec dataset.Spec) defaultDecision {
	t.Helper()
	w, err := dataset.Build(spec, dataset.DefaultGen())
	if err != nil {
		t.Fatal(err)
	}
	return newDecision(t, w, llm.Qwen3_32B, 2)
}

// newDecision is defaultDecision's inputs for any workload, model and
// profile seed.
func newDecision(t *testing.T, w *dataset.Workload, model llm.ModelSpec, seed uint64) defaultDecision {
	t.Helper()
	node := hw.H100Node()
	d := defaultDecision{}
	var err error
	if d.prof, err = profiler.CollectAccess(w, 4000, seed); err != nil {
		t.Fatal(err)
	}
	d.perf, err = perfmodel.Fit(profiler.ProfileLatency(costmodel.NewSearchModel(node.CPU, w.Spec), profiler.DefaultBatches()))
	if err != nil {
		t.Fatal(err)
	}
	if d.mu0, err = rag.BareCapacity(node, model, workload.DefaultShape()); err != nil {
		t.Fatal(err)
	}
	d.memKV = model.NodeKVBytes(node)
	d.prefix = splitter.PrefixBytes(d.prof)
	return d
}

// latencyBounded runs Algorithm 1 on est.
func (d defaultDecision) latencyBounded(t *testing.T, slo time.Duration, est *hitrate.Estimator) partition.Result {
	t.Helper()
	res, err := partition.LatencyBounded(partition.Inputs{
		SLOSearch: slo, Perf: d.perf, Est: est,
		MemKV: d.memKV, Mu0: d.mu0, IndexBytesAt: splitter.IndexBytesAt(d.prof),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
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
	d := newDefaultDecision(t, dataset.Orcas1K)

	// Algorithm 1: 9 outer iterations × 2 roundings × a 7-step bisect
	// made 135 integrals over 14 distinct points before the table. The
	// bisections now compare against Eq. 2 on a few grid points; the
	// one exact pass is the result's EtaMin.
	est := d.newEst(t)
	res := d.latencyBounded(t, dataset.Orcas1K.SLOSearch, est)
	if res.Rho != 0.1015625 || res.Iterations != 9 {
		t.Fatalf("not the default ORCAS-1K decision: rho %v after %d iterations", res.Rho, res.Iterations)
	}
	passes, points, cfs := est.Integrations()
	t.Logf("LatencyBounded: %d passes over %d points, %d continued fractions", passes, points, cfs)
	if passes != points || passes > 2 || cfs > maxDecisionCFs {
		t.Errorf("LatencyBounded made %d passes over %d distinct points and %d continued fractions; want each point once, at most 2 passes and %d fractions",
			passes, points, cfs, maxDecisionCFs)
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
			passes, points, _ := est.Integrations()
			if passes == 0 || passes != points {
				t.Errorf("JointAllocate, tenant %d: %d passes over %d distinct points", i, passes, points)
			}
		}
	}
}

// maxDecisionCFs fences the default ORCAS-1K decision's continued
// fractions: measured at 2 572, one exact pass (1 999) and 573 from the
// bisections' comparisons.
const maxDecisionCFs = 2600

// TestComparisonsDecideAsExactSearch is the bit-identity proof of the
// comparison path: Algorithm 1 on an estimator whose bisections compare
// against Eq. 2 returns the Result, bit for bit, of one whose bisections
// integrate every probe, over the three Table-I workloads, both models
// and sixteen profile seeds.
func TestComparisonsDecideAsExactSearch(t *testing.T) {
	var cfs, exactCFs int
	for _, spec := range []dataset.Spec{dataset.WikiAll, dataset.Orcas1K, dataset.Orcas2K} {
		w, err := dataset.Build(spec, dataset.DefaultGen())
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []llm.ModelSpec{llm.Qwen3_32B, llm.Llama3_8B} {
			for seed := uint64(1); seed <= 16; seed++ {
				d := newDecision(t, w, model, seed)
				est := d.newEst(t)
				exact, err := hitrate.NewExactEstimator(d.prof)
				if err != nil {
					t.Fatal(err)
				}
				got, want := d.latencyBounded(t, spec.SLOSearch, est), d.latencyBounded(t, spec.SLOSearch, exact)
				if got != want || math.Float64bits(got.Rho) != math.Float64bits(want.Rho) ||
					math.Float64bits(got.MuLLM) != math.Float64bits(want.MuLLM) ||
					math.Float64bits(got.EtaMin) != math.Float64bits(want.EtaMin) {
					t.Errorf("%s, %s, seed %d: comparisons decided %+v, exact search %+v", spec.Name, model.Name, seed, got, want)
				}
				_, _, n := est.Integrations()
				_, _, m := exact.Integrations()
				cfs, exactCFs = cfs+n, exactCFs+m
			}
		}
	}
	t.Logf("96 decisions: %d continued fractions, %d by exact search", cfs, exactCFs)
}

// TestOneTenantJointAllocateVsAlgorithm1 is the differential check
// between the two allocators: tenant.JointAllocate with one tenant
// against partition.LatencyBounded on the three Table-I workloads, at
// 0.4, 0.7 and 0.9 of the bare LLM capacity. They do not agree, by
// design: the joint allocator sizes its batch from the arrival rate,
// round(tau_s * rate), where Algorithm 1 sizes it from the throughput
// its placement leaves, tau_s * mu_LLM(rho). Below capacity the joint
// batch is the smaller one, so a smaller hot set meets the same budget
// and the joint allocator caches no more than Algorithm 1; a higher rate
// grows its batch, so its coverage does not fall as the rate rises.
func TestOneTenantJointAllocateVsAlgorithm1(t *testing.T) {
	fracs := []float64{0.4, 0.7, 0.9}
	for _, tc := range []struct {
		spec  dataset.Spec
		alg1  int   // Algorithm 1's hot clusters
		joint []int // the joint allocator's, per rate fraction
	}{
		{dataset.WikiAll, 14, []int{8, 12, 14}},
		{dataset.Orcas1K, 13, []int{12, 13, 13}},
		{dataset.Orcas2K, 27, []int{19, 24, 26}},
	} {
		d := newDefaultDecision(t, tc.spec)
		nlist := float64(len(d.prof.Counts))
		res := d.latencyBounded(t, tc.spec.SLOSearch, d.newEst(t))
		alg1 := int(res.Rho * nlist)
		var joint []int
		for _, f := range fracs {
			al, err := tenant.JointAllocate(tenant.Inputs{
				Tenants: []tenant.Input{{
					Name: tc.spec.Name, Tier: tenant.Gold, Rate: f * d.mu0,
					SLOSearch: tc.spec.SLOSearch, Perf: d.perf, Est: d.newEst(t), PrefixBytes: d.prefix,
				}},
				MemKV: d.memKV, Mu0: d.mu0,
			})
			if err != nil {
				t.Fatal(err)
			}
			k := al.Allocations[0].Clusters
			if k > alg1 {
				t.Errorf("%s at %.1f mu0: joint caches %d clusters, more than Algorithm 1's %d", tc.spec.Name, f, k, alg1)
			}
			if len(joint) > 0 && k < joint[len(joint)-1] {
				t.Errorf("%s: joint coverage fell from %d to %d clusters as the rate rose to %.1f mu0", tc.spec.Name, joint[len(joint)-1], k, f)
			}
			joint = append(joint, k)
		}
		t.Logf("%s: Algorithm 1 %d/%v, joint %v/%v at %v mu0", tc.spec.Name, alg1, nlist, joint, nlist, fracs)
		if alg1 != tc.alg1 || !slices.Equal(joint, tc.joint) {
			t.Errorf("%s: Algorithm 1 %d, joint %v clusters; pinned %d, %v", tc.spec.Name, alg1, joint, tc.alg1, tc.joint)
		}
	}
}
