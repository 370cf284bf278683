package tenant

import (
	"strings"
	"testing"
	"time"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/hitrate"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/perfmodel"
	"vectorliterag/internal/profiler"
)

func TestTierProperties(t *testing.T) {
	if Gold.Weight() <= Silver.Weight() || Silver.Weight() <= Bronze.Weight() {
		t.Errorf("weights not strictly ordered: %d %d %d", Gold.Weight(), Silver.Weight(), Bronze.Weight())
	}
	if Gold.Priority() >= Silver.Priority() || Silver.Priority() >= Bronze.Priority() {
		t.Errorf("priorities not strictly ordered")
	}
	if Gold.Target() <= Silver.Target() || Silver.Target() <= Bronze.Target() {
		t.Errorf("targets not strictly ordered")
	}
	for _, tier := range Tiers() {
		if got, err := ParseTier(string(tier)); err != nil || got != tier {
			t.Errorf("ParseTier(%s) = %v, %v", tier, got, err)
		}
	}
	if _, err := ParseTier("platinum"); err == nil {
		t.Error("unknown tier accepted")
	}
}

// sharedInput caches one tenant input; building the physical index is
// the expensive part of the fixture.
var sharedInput *Input

// testInput builds a small tenant over the Orcas1K spec.
func testInput(t *testing.T) Input {
	t.Helper()
	if sharedInput == nil {
		gc := dataset.GenConfig{NCenters: 48, PerCenter: 48, Dim: 16, PhysNList: 48, PhysNProbe: 6, Templates: 192, Seed: 3}
		w, err := dataset.Build(dataset.Orcas1K, gc)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profiler.CollectAccess(w, 1200, 5)
		if err != nil {
			t.Fatal(err)
		}
		est, err := hitrate.NewEstimator(prof)
		if err != nil {
			t.Fatal(err)
		}
		cm := costmodel.NewSearchModel(hw.H100Node().CPU, w.Spec)
		perf, err := perfmodel.Fit(profiler.ProfileLatency(cm, profiler.DefaultBatches()))
		if err != nil {
			t.Fatal(err)
		}
		prefix := make([]int64, len(prof.Counts)+1)
		for i, c := range prof.HotOrder {
			prefix[i+1] = prefix[i] + w.ClusterBytes(c)
		}
		sharedInput = &Input{
			Name: "t", Tier: Silver, Rate: 10,
			SLOSearch: 200 * time.Millisecond,
			Perf:      perf, Est: est, PrefixBytes: prefix,
		}
	}
	return *sharedInput
}

func threeTenants(t *testing.T) []Input {
	base := testInput(t)
	gold, silver, bronze := base, base, base
	gold.Name, gold.Tier = "gold", Gold
	silver.Name, silver.Tier = "silver", Silver
	bronze.Name, bronze.Tier = "bronze", Bronze
	return []Input{gold, silver, bronze}
}

func TestJointAllocateRespectsBudget(t *testing.T) {
	in := Inputs{Tenants: threeTenants(t), MemKV: 8 << 30, Mu0: 60}
	res, err := JointAllocate(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedBytes > res.BudgetBytes {
		t.Fatalf("used %d exceeds budget %d", res.UsedBytes, res.BudgetBytes)
	}
	var sum int64
	for i, a := range res.Allocations {
		if a.Bytes != in.Tenants[i].PrefixBytes[a.Clusters] {
			t.Errorf("%s: bytes %d != prefix[%d]=%d", a.Name, a.Bytes, a.Clusters, in.Tenants[i].PrefixBytes[a.Clusters])
		}
		if a.Rho < 0 || a.Rho > 1 {
			t.Errorf("%s: rho %v outside [0,1]", a.Name, a.Rho)
		}
		sum += a.Bytes
	}
	if sum != res.UsedBytes {
		t.Fatalf("allocation bytes sum %d != used %d", sum, res.UsedBytes)
	}
	if res.MuLLM <= 0 || res.MuLLM > in.Mu0 {
		t.Fatalf("MuLLM %v outside (0, Mu0]", res.MuLLM)
	}
}

func TestJointAllocatePlentyMakesAllFeasible(t *testing.T) {
	// A huge KV pool leaves a budget far beyond every tenant's need.
	in := Inputs{Tenants: threeTenants(t), MemKV: 1 << 45, Mu0: 500}
	res, err := JointAllocate(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Allocations {
		if !a.Feasible || a.Score < 1 {
			t.Errorf("%s infeasible (score %.3f) despite ample budget", a.Name, a.Score)
		}
	}
	if res.UsedBytes >= res.BudgetBytes {
		t.Fatal("greedy should stop at feasibility, not exhaust an ample budget")
	}
}

func TestJointAllocateTierOrderUnderScarcity(t *testing.T) {
	tenants := threeTenants(t)
	// Budget only fits a fraction of the combined feasible sets.
	full := tenants[0].PrefixBytes[len(tenants[0].PrefixBytes)-1]
	memKV := full // budget = a slice of one tenant's full index
	res, err := JointAllocate(Inputs{Tenants: tenants, MemKV: memKV, Mu0: 1000})
	if err != nil {
		t.Fatal(err)
	}
	gold, bronze := res.Allocations[0], res.Allocations[2]
	if gold.Score < bronze.Score {
		t.Errorf("scarce budget favored bronze: gold score %.3f < bronze %.3f", gold.Score, bronze.Score)
	}
	if gold.Bytes < bronze.Bytes {
		t.Errorf("scarce budget gave gold %d bytes < bronze %d", gold.Bytes, bronze.Bytes)
	}
}

func TestJointAllocateFloors(t *testing.T) {
	tenants := threeTenants(t)
	res, err := JointAllocate(Inputs{Tenants: tenants, MemKV: 256 << 30, Mu0: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Allocations {
		if a.Bytes < a.FloorBytes {
			t.Errorf("%s: granted %d below floor %d", a.Name, a.Bytes, a.FloorBytes)
		}
	}
	// With a budget that covers the floors, the bronze tenant's floor
	// must be non-trivial (the guarantee is the point of the floor).
	if res.Allocations[2].FloorBytes == 0 && res.BudgetBytes > 0 {
		t.Error("bronze floor is zero despite available budget")
	}
}

func TestJointAllocateDeterministic(t *testing.T) {
	in := Inputs{Tenants: threeTenants(t), MemKV: 8 << 30, Mu0: 60}
	a, err := JointAllocate(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := JointAllocate(in)
	if err != nil {
		t.Fatal(err)
	}
	if a.UsedBytes != b.UsedBytes || a.BudgetBytes != b.BudgetBytes || a.MuLLM != b.MuLLM {
		t.Fatalf("top-level results differ: %+v vs %+v", a, b)
	}
	for i := range a.Allocations {
		if a.Allocations[i] != b.Allocations[i] {
			t.Fatalf("allocation %d differs: %+v vs %+v", i, a.Allocations[i], b.Allocations[i])
		}
	}
}

func TestJointAllocateOverloadIsAnError(t *testing.T) {
	tenants := threeTenants(t)
	// Aggregate rate 30 against Mu0 20: generation cannot keep up. The
	// old behavior silently granted every tenant a zero-byte budget;
	// overload must be an explicit infeasibility error instead.
	_, err := JointAllocate(Inputs{Tenants: tenants, MemKV: 8 << 30, Mu0: 20})
	if err == nil {
		t.Fatal("overloaded node (kvNeeded >= 1) did not error")
	}
	if !strings.Contains(err.Error(), "infeasible") {
		t.Errorf("overload error does not say infeasible: %v", err)
	}
}

func TestJointAllocateValidation(t *testing.T) {
	good := threeTenants(t)
	cases := []struct {
		name string
		in   Inputs
	}{
		{"no tenants", Inputs{MemKV: 1 << 30, Mu0: 10}},
		{"zero memkv", Inputs{Tenants: good, Mu0: 10}},
		{"zero mu0", Inputs{Tenants: good, MemKV: 1 << 30}},
	}
	for _, tc := range cases {
		if _, err := JointAllocate(tc.in); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	bad := good[0]
	bad.Rate = 0
	if _, err := JointAllocate(Inputs{Tenants: []Input{bad}, MemKV: 1 << 30, Mu0: 10}); err == nil {
		t.Error("zero-rate tenant accepted")
	}
	bad = good[0]
	bad.Tier = "platinum"
	if _, err := JointAllocate(Inputs{Tenants: []Input{bad}, MemKV: 1 << 30, Mu0: 10}); err == nil {
		t.Error("unknown tier accepted")
	}
	bad = good[0]
	bad.Est = nil
	if _, err := JointAllocate(Inputs{Tenants: []Input{bad}, MemKV: 1 << 30, Mu0: 10}); err == nil {
		t.Error("nil estimator accepted")
	}
}

// TestJointAllocatePrecisionNeverLowersAttainment: the tentpole
// property. The codec-upgrade pass runs strictly after the placement
// rounds converge and spends only leftover budget, so at equal budget
// the placement×precision allocation must grant every tenant the same
// clusters and the same modeled attainment (Score) as placement-only —
// never less — while staying inside the budget and buying nonnegative
// recall. Swept over budgets from scarce to plentiful.
func TestJointAllocatePrecisionNeverLowersAttainment(t *testing.T) {
	tenants := threeTenants(t)
	// Synthetic profiler deltas: recall gain decays with hotness rank and
	// hits zero past rank 24, exercising the zero-delta skip.
	deltas := make([][]float64, len(tenants))
	for i := range deltas {
		d := make([]float64, len(tenants[i].PrefixBytes)-1)
		for r := range d {
			d[r] = 0.048 - 0.002*float64(r)
			if d[r] < 0 {
				d[r] = 0
			}
		}
		deltas[i] = d
	}
	for _, memKV := range []int64{2 << 30, 8 << 30, 32 << 30, 1 << 42} {
		base := Inputs{Tenants: tenants, MemKV: memKV, Mu0: 60}
		plain, err := JointAllocate(base)
		if err != nil {
			t.Fatal(err)
		}
		refined := base
		refined.Precision = &PrecisionOptions{SQBytesRatio: 4, RecallDelta: deltas}
		prec, err := JointAllocate(refined)
		if err != nil {
			t.Fatal(err)
		}
		if prec.BudgetBytes != plain.BudgetBytes {
			t.Fatalf("memKV=%d: budgets diverged: %d vs %d", memKV, prec.BudgetBytes, plain.BudgetBytes)
		}
		if prec.UsedBytes > prec.BudgetBytes {
			t.Errorf("memKV=%d: refined spend %d exceeds budget %d", memKV, prec.UsedBytes, prec.BudgetBytes)
		}
		if prec.RecallGain < 0 {
			t.Errorf("memKV=%d: negative aggregate recall gain %v", memKV, prec.RecallGain)
		}
		for i := range plain.Allocations {
			p, q := plain.Allocations[i], prec.Allocations[i]
			if q.Clusters != p.Clusters {
				t.Errorf("memKV=%d %s: refinement moved placement: %d vs %d clusters",
					memKV, q.Name, q.Clusters, p.Clusters)
			}
			if q.Score < p.Score {
				t.Errorf("memKV=%d %s: modeled attainment fell %.4f -> %.4f at equal budget",
					memKV, q.Name, p.Score, q.Score)
			}
			if q.Bytes != p.Bytes+q.SQBytes {
				t.Errorf("memKV=%d %s: byte accounting broken: %d != %d placement + %d SQ",
					memKV, q.Name, q.Bytes, p.Bytes, q.SQBytes)
			}
			if q.RecallGain < 0 || (q.SQClusters == 0) != (q.SQBytes == 0) {
				t.Errorf("memKV=%d %s: inconsistent precision fields: %+v", memKV, q.Name, q)
			}
		}
	}
	// With a plentiful budget the upgrade pass must actually fire.
	refined := Inputs{Tenants: tenants, MemKV: 1 << 42, Mu0: 60,
		Precision: &PrecisionOptions{SQBytesRatio: 4, RecallDelta: deltas}}
	res, err := JointAllocate(refined)
	if err != nil {
		t.Fatal(err)
	}
	var sq int
	for _, a := range res.Allocations {
		sq += a.SQClusters
	}
	if sq == 0 || res.RecallGain <= 0 {
		t.Errorf("plentiful budget bought no upgrades: %d SQ clusters, gain %v", sq, res.RecallGain)
	}
}
