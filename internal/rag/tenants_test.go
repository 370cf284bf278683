package rag

import (
	"testing"
	"time"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/tenant"
	"vectorliterag/internal/workload"
)

// secondW caches a second, differently seeded corpus so multi-tenant
// tests exercise genuinely distinct tenants.
var secondW *dataset.Workload

func testW2(t *testing.T) *dataset.Workload {
	t.Helper()
	if secondW == nil {
		gc := dataset.GenConfig{NCenters: 64, PerCenter: 64, Dim: 16, PhysNList: 64, PhysNProbe: 8, Templates: 256, Seed: 9}
		w, err := dataset.Build(dataset.WikiAll, gc)
		if err != nil {
			t.Fatal(err)
		}
		secondW = w
	}
	return secondW
}

func mtOpts(t *testing.T) Options {
	return Options{
		Node: hw.H100Node(), Model: llm.Qwen3_32B,
		Tenants: []TenantConfig{
			{Name: "gold", Tier: tenant.Gold, W: testW(t), Rate: 8},
			{Name: "silver", Tier: tenant.Silver, W: testW2(t), Rate: 6},
			{Name: "bronze", Tier: tenant.Bronze, W: testW(t), Rate: 4,
				RateSchedule: workload.Bursts(4, 30, 30*time.Second, 10*time.Second)},
		},
		Duration: 60 * time.Second, Warmup: 10 * time.Second, Drain: 90 * time.Second,
		Seed: 1,
	}
}

func TestRunMultiTenantServesEveryTenant(t *testing.T) {
	res, err := Run(mtOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 3 {
		t.Fatalf("got %d tenant results", len(res.Tenants))
	}
	for _, tr := range res.Tenants {
		if tr.Summary.N == 0 {
			t.Errorf("tenant %s saw no requests", tr.Name)
		}
		if tr.Summary.Attainment < 0 || tr.Summary.Attainment > 1 {
			t.Errorf("tenant %s attainment %v outside [0,1]", tr.Name, tr.Summary.Attainment)
		}
		if tr.SLOTotal <= 0 {
			t.Errorf("tenant %s has no SLO budget", tr.Name)
		}
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Fatalf("Jain index %v outside (0,1]", res.Fairness)
	}
	if res.UsedBytes > res.BudgetBytes {
		t.Fatalf("allocation overran budget: %d > %d", res.UsedBytes, res.BudgetBytes)
	}
	if res.Generated == 0 || res.AvgBatch <= 0 {
		t.Fatalf("pipeline did not serve: generated %d, avg batch %v", res.Generated, res.AvgBatch)
	}
	// Request tagging must round-trip: every request's tenant indexes a
	// result entry.
	for _, req := range res.Requests {
		if req.Tenant < 0 || req.Tenant >= len(res.Tenants) {
			t.Fatalf("request carries stray tenant %d", req.Tenant)
		}
	}
}

// TestRunMultiTenantDeterministic: same seed ⇒ bit-identical per-tenant
// summaries and fairness index — the determinism contract extended to
// the multi-tenant path.
func TestRunMultiTenantDeterministic(t *testing.T) {
	a, err := Run(mtOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mtOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fairness != b.Fairness || a.Attainment != b.Attainment ||
		a.UsedBytes != b.UsedBytes || a.AvgBatch != b.AvgBatch || a.Generated != b.Generated {
		t.Fatalf("top-level results differ:\n%+v\n%+v", a, b)
	}
	for i := range a.Tenants {
		x, y := a.Tenants[i], b.Tenants[i]
		if x.Summary != y.Summary {
			t.Fatalf("tenant %s summary differs:\n%+v\n%+v", x.Name, x.Summary, y.Summary)
		}
		if x.Alloc != y.Alloc {
			t.Fatalf("tenant %s allocation differs:\n%+v\n%+v", x.Name, x.Alloc, y.Alloc)
		}
	}
}

// TestRunMultiTenantSchedulerProtectsGold: with a bursty bronze tenant,
// the FairScheduler must not leave gold worse off than the shared-queue
// baseline leaves it.
func TestRunMultiTenantSchedulerProtectsGold(t *testing.T) {
	fair, err := Run(mtOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	shared := mtOpts(t)
	shared.SharedQueue = true
	base, err := Run(shared)
	if err != nil {
		t.Fatal(err)
	}
	if fair.Tenants[0].Summary.Attainment+1e-9 < base.Tenants[0].Summary.Attainment {
		t.Errorf("fair scheduling left gold worse off: %.3f vs shared-queue %.3f",
			fair.Tenants[0].Summary.Attainment, base.Tenants[0].Summary.Attainment)
	}
	if base.Tenants[0].PeakQueue != 0 {
		t.Errorf("shared-queue baseline reports a per-tenant queue: %d", base.Tenants[0].PeakQueue)
	}
}

func TestRunMultiTenantValidation(t *testing.T) {
	if _, err := Run(Options{Node: hw.H100Node(), Model: llm.Qwen3_32B, Tenants: []TenantConfig{}}); err == nil {
		t.Error("no tenants accepted")
	}
	o := mtOpts(t)
	o.Tenants[0].Rate = 0
	if _, err := Run(o); err == nil {
		t.Error("zero-rate tenant accepted")
	}
	o = mtOpts(t)
	o.Tenants[1].Tier = "platinum"
	if _, err := Run(o); err == nil {
		t.Error("unknown tier accepted")
	}
	o = mtOpts(t)
	o.Tenants[2].W = nil
	if _, err := Run(o); err == nil {
		t.Error("nil workload accepted")
	}
}
