package vectorliterag_test

import (
	"encoding/csv"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	vlr "vectorliterag"
)

// smallWorkload keeps API tests fast by shrinking the physical
// realization.
func smallWorkload(t *testing.T, spec vlr.Spec) *vlr.Workload {
	t.Helper()
	w, err := vlr.NewWorkloadWithGen(spec, vlr.GenConfig{
		NCenters: 64, PerCenter: 64, Dim: 16,
		PhysNList: 64, PhysNProbe: 8, Templates: 256, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestNewWorkloadWithGenRejectsBadGen: a GenConfig the physical index
// cannot realize is an error naming the field — never a panic, a
// misleading downstream message or a silent clamp.
func TestNewWorkloadWithGenRejectsBadGen(t *testing.T) {
	base := vlr.GenConfig{NCenters: 8, PerCenter: 16, Dim: 8, PhysNList: 8, PhysNProbe: 2, Templates: 32, Seed: 3}
	for _, tc := range []struct {
		field string
		mod   func(*vlr.GenConfig)
	}{
		{"Templates", func(g *vlr.GenConfig) { g.Templates = 0 }},
		{"Templates", func(g *vlr.GenConfig) { g.Templates = -1 }},
		{"PhysNList", func(g *vlr.GenConfig) { g.PhysNList = 0 }},
		{"PhysNList", func(g *vlr.GenConfig) { g.PhysNList = 8*16 + 1 }},
		{"PhysNProbe", func(g *vlr.GenConfig) { g.PhysNProbe = 0 }},
		{"PhysNProbe", func(g *vlr.GenConfig) { g.PhysNProbe = 9 }},
		{"Dim", func(g *vlr.GenConfig) { g.Dim = 12 }},
	} {
		gen := base
		tc.mod(&gen)
		_, err := vlr.NewWorkloadWithGen(vlr.WikiAll, gen)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: error %v, want one naming %s", gen, err, tc.field)
		}
	}
	if _, err := vlr.NewWorkloadWithGen(vlr.WikiAll, base); err != nil {
		t.Fatalf("valid %+v rejected: %v", base, err)
	}
}

func TestPublicSpecs(t *testing.T) {
	if vlr.WikiAll.Name != "Wiki-All" || vlr.Orcas1K.IndexBytes() < 39e9 {
		t.Fatal("dataset specs not exported correctly")
	}
	if vlr.Qwen3_32B.TP != 2 || vlr.Llama3_70B.TP != 4 {
		t.Fatal("model specs not exported correctly")
	}
	if vlr.H100Node().NumGPUs != 8 || vlr.L40SNode().NumGPUs != 8 {
		t.Fatal("nodes not exported correctly")
	}
	if s := vlr.DefaultShape(); s.InputTokens != 1024 || s.OutputTokens != 256 {
		t.Fatalf("default shape %+v", s)
	}
}

func TestBuildSystemDefaults(t *testing.T) {
	w := smallWorkload(t, vlr.Orcas1K)
	sys, err := vlr.BuildSystem(vlr.SystemOptions{Workload: w, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Rho <= 0 || sys.Rho >= 1 {
		t.Fatalf("rho = %v", sys.Rho)
	}
	if sys.PlanBytes <= 0 || sys.Plan == nil {
		t.Fatal("plan missing")
	}
	if sys.MeanHitRate < sys.TailHitRate {
		t.Fatalf("mean hit rate %v below tail %v", sys.MeanHitRate, sys.TailHitRate)
	}
	if sys.Rebuild.Total() <= 0 {
		t.Fatal("rebuild timing missing")
	}
	if _, err := vlr.BuildSystem(vlr.SystemOptions{}); err == nil {
		t.Fatal("nil workload accepted")
	}
}

// TestBuildSystemIsTheServedDecision pins Algorithm 1's outcome on the
// default workloads — the planned batch, the iteration count and the
// tail hit rate by its bits, so a cheaper Eq. 2 cannot move a decision
// unnoticed — and requires BuildSystem to report the coverage a
// vLiteRAG Serve decides on: both read internal/rag's one decision.
func TestBuildSystemIsTheServedDecision(t *testing.T) {
	for _, c := range []struct {
		spec       vlr.Spec
		rho        float64
		planBytes  int64
		batch      int
		iterations int
		etaMinBits uint64
	}{
		{vlr.Orcas1K, 0.1015625, 5_304_000_000, 4, 9, 0x3fe3f76091202b53},  // EtaMin 0.6239474138722961
		{vlr.WikiAll, 0.109375, 2_664_750_000, 3, 8, 0x3fd7e0e660f86ddf},   // 0.37310180158394063
		{vlr.Orcas2K, 0.2109375, 18_720_000_000, 6, 9, 0x3fe7e091ff8bdfad}, // 0.7461633673801679
	} {
		w, err := vlr.NewWorkload(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := vlr.BuildSystem(vlr.SystemOptions{Workload: w, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if sys.Rho != c.rho || sys.PlanBytes != c.planBytes {
			t.Errorf("%s: BuildSystem rho %v, plan %d bytes; want %v, %d", c.spec.Name, sys.Rho, sys.PlanBytes, c.rho, c.planBytes)
		}
		if p := sys.Partition; p.ExpectedBatch != c.batch || p.Iterations != c.iterations ||
			math.Float64bits(p.EtaMin) != c.etaMinBits || !p.Feasible {
			t.Errorf("%s: batch %d, %d iterations, EtaMin %v (%#x), feasible %v; want %d, %d, %v (%#x), true",
				c.spec.Name, p.ExpectedBatch, p.Iterations, p.EtaMin, math.Float64bits(p.EtaMin), p.Feasible,
				c.batch, c.iterations, math.Float64frombits(c.etaMinBits), c.etaMinBits)
		}
		rep, err := vlr.Serve(vlr.ServeOptions{
			Workload: w, System: vlr.VLiteRAG, Rate: 15, Seed: 1,
			Duration: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rho != sys.Rho {
			t.Errorf("%s: Serve decided rho %v, BuildSystem %v", c.spec.Name, rep.Rho, sys.Rho)
		}
	}
}

func TestServeAndPrebuilt(t *testing.T) {
	w := smallWorkload(t, vlr.Orcas1K)
	rep, err := vlr.Serve(vlr.ServeOptions{
		Workload: w, System: vlr.VLiteRAG, Rate: 15, Seed: 1,
		Duration: 40 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.N == 0 || rep.Summary.Attainment <= 0 {
		t.Fatalf("empty report %+v", rep.Summary)
	}
	// Prebuilt plan round trip: serving a built system must reuse its
	// coverage.
	sys, err := vlr.BuildSystem(vlr.SystemOptions{Workload: w, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := vlr.Serve(vlr.ServeOptions{
		Workload: w, System: vlr.VLiteRAG, Rate: 15, Seed: 1,
		Duration: 40 * time.Second, Prebuilt: sys,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Rho != sys.Rho {
		t.Fatalf("prebuilt rho %v not used (got %v)", sys.Rho, rep2.Rho)
	}
}

// TestPrebuiltPlanOnSmallerNode: a plan built for the 8-GPU default node
// served on a 2-GPU node is refused with an error naming both counts by
// every entry point that accepts Prebuilt, instead of indexing past the
// node's GPUs mid-run.
func TestPrebuiltPlanOnSmallerNode(t *testing.T) {
	w := smallWorkload(t, vlr.Orcas1K)
	sys, err := vlr.BuildSystem(vlr.SystemOptions{Workload: w, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	node := vlr.H100Node()
	node.NumGPUs = 2
	opts := vlr.ServeOptions{Workload: w, Node: node, Rate: 10, Seed: 1, Duration: 30 * time.Second, Prebuilt: sys}
	const want = "prebuilt plan has 8 shards, node has 2 GPUs"
	_, errServe := vlr.Serve(opts)
	_, errCluster := vlr.ServeCluster(vlr.ClusterOptions{ServeOptions: opts, Replicas: 2})
	_, errAdaptive := vlr.ServeAdaptive(vlr.AdaptiveServeOptions{ServeOptions: opts})
	for name, err := range map[string]error{"Serve": errServe, "ServeCluster": errCluster, "ServeAdaptive": errAdaptive} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, want)
		}
	}
}

func TestServeCluster(t *testing.T) {
	w := smallWorkload(t, vlr.Orcas1K)
	rep, err := vlr.ServeCluster(vlr.ClusterOptions{
		ServeOptions: vlr.ServeOptions{
			Workload: w, System: vlr.VLiteRAG, Rate: 30, Seed: 1,
			Duration: 40 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Policy != vlr.LeastLoaded {
		t.Fatalf("default policy %q", rep.Policy)
	}
	if len(rep.PerReplica) != 2 {
		t.Fatalf("default replica count: got %d reports", len(rep.PerReplica))
	}
	if rep.Summary.N == 0 || rep.Summary.Attainment <= 0 {
		t.Fatalf("empty cluster report %+v", rep.Summary)
	}
	for i, r := range rep.PerReplica {
		if r.Submitted == 0 {
			t.Fatalf("replica %d idle", i)
		}
	}
	if _, err := vlr.ServeCluster(vlr.ClusterOptions{
		ServeOptions: vlr.ServeOptions{Workload: w, Rate: 10},
		Policy:       "bogus",
	}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestTopologyOptionsRejected: a topology option the run cannot honor
// is an error naming it — never a replica count clamped to one, a
// policy left unresolved because nothing routes, or a network delay a
// single node silently drops.
func TestTopologyOptionsRejected(t *testing.T) {
	w := smallWorkload(t, vlr.Orcas1K)
	lineup := []vlr.TenantSpec{{Name: "a", Tier: vlr.GoldTier, Workload: w, Rate: 3}}
	for _, tc := range []struct {
		name, want string
		call       func() error
	}{
		{"ServeTenants Replicas -3", "Replicas", func() error {
			_, err := vlr.ServeTenants(vlr.MultiTenantServeOptions{Tenants: lineup, Replicas: -3})
			return err
		}},
		{"ServeTenants Policy bogus", "policy", func() error {
			_, err := vlr.ServeTenants(vlr.MultiTenantServeOptions{Tenants: lineup, Policy: "bogus"})
			return err
		}},
		{"Serve NetDelay 5ms", "NetDelay", func() error {
			_, err := vlr.Serve(vlr.ServeOptions{Workload: w, Rate: 5, NetDelay: 5 * time.Millisecond})
			return err
		}},
	} {
		if err := tc.call(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}

// TestServeClusterReportsPrecision: the cluster entry point carries the
// precision refinement's outcome into its report, on the plain front
// and behind the resilient one.
func TestServeClusterReportsPrecision(t *testing.T) {
	w := smallWorkload(t, vlr.Orcas1K)
	for name, res := range map[string]*vlr.ResilienceConfig{"plain": nil, "resilient": {}} {
		rep, err := vlr.ServeCluster(vlr.ClusterOptions{
			ServeOptions: vlr.ServeOptions{
				Workload: w, System: vlr.VLiteRAG, Rate: 30, Seed: 1,
				Duration: 40 * time.Second, Precision: &vlr.PrecisionOptions{},
			},
			Resilience: res,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.SQClusters <= 0 || rep.RecallGain <= 0 {
			t.Errorf("%s router: report dropped the precision outcome: %d SQ8 clusters, recall gain %v",
				name, rep.SQClusters, rep.RecallGain)
		}
	}
}

// TestServeLeavesOptionsAlone: validation fills defaults on private
// copies, so one options pointer can be shared by concurrent Serve
// calls (each on its own Workload — the drift restore hook writes the
// workload's rotation) and comes back as the caller wrote it.
func TestServeLeavesOptionsAlone(t *testing.T) {
	prec, over := &vlr.PrecisionOptions{}, &vlr.OverloadOptions{}
	var wg sync.WaitGroup
	for _, w := range []*vlr.Workload{smallWorkload(t, vlr.Orcas1K), smallWorkload(t, vlr.Orcas1K)} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := vlr.Serve(vlr.ServeOptions{
				Workload: w, System: vlr.VLiteRAG, Rate: 15, Seed: 1,
				Duration: 30 * time.Second, Precision: prec, Overload: over,
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if *prec != (vlr.PrecisionOptions{}) || *over != (vlr.OverloadOptions{}) {
		t.Fatalf("Serve wrote defaults through the caller's options: %+v %+v", *prec, *over)
	}
}

func TestServeDefaultsToVLiteRAG(t *testing.T) {
	w := smallWorkload(t, vlr.WikiAll)
	rep, err := vlr.Serve(vlr.ServeOptions{Workload: w, Rate: 10, Duration: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rho <= 0 {
		t.Fatal("default system did not partition")
	}
}

func TestCapacity(t *testing.T) {
	mu, err := vlr.Capacity(vlr.H100Node(), vlr.Qwen3_32B)
	if err != nil {
		t.Fatal(err)
	}
	if mu < 20 || mu > 60 {
		t.Fatalf("capacity %v outside plausible band", mu)
	}
}

func TestExperimentRegistry(t *testing.T) {
	names := vlr.Experiments()
	if len(names) != 23 {
		t.Fatalf("got %d experiments, want 23: %v", len(names), names)
	}
	_, err := vlr.RunExperiment("nope", true)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(err.Error(), "adapt") || !strings.Contains(err.Error(), "fig11") {
		t.Fatalf("unknown-experiment error does not list valid ids: %v", err)
	}
	out, err := vlr.RunExperiment("fig3", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Fig 3") {
		t.Fatalf("unexpected output: %q", out)
	}
}

func TestServeAdaptiveAPI(t *testing.T) {
	w := smallWorkload(t, vlr.Orcas1K)
	rep, err := vlr.ServeAdaptive(vlr.AdaptiveServeOptions{
		ServeOptions: vlr.ServeOptions{
			Workload: w, Rate: 28, Seed: 1,
			Duration: 240 * time.Second, SLOSearch: 100 * time.Millisecond,
			Drift: []vlr.DriftEvent{{At: 45 * time.Second, Rotate: w.DefaultDriftRotation()}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExpectedHitRate <= 0 || rep.ExpectedHitRate > 1 {
		t.Fatalf("expected hit rate %v", rep.ExpectedHitRate)
	}
	if len(rep.Rebuilds) == 0 {
		t.Fatal("drift did not trigger a rebuild through the public API")
	}
	if len(rep.Timeline) == 0 {
		t.Fatal("report has no attainment timeline")
	}
	last := rep.Timeline[len(rep.Timeline)-1]
	if last.MeanHitRate < rep.ExpectedHitRate-0.1 {
		t.Fatalf("final window hit %.3f never recovered toward %.3f", last.MeanHitRate, rep.ExpectedHitRate)
	}
	// Non-hybrid systems are rejected.
	if _, err := vlr.ServeAdaptive(vlr.AdaptiveServeOptions{
		ServeOptions: vlr.ServeOptions{Workload: w, System: vlr.CPUOnly, Rate: 10},
	}); err == nil {
		t.Fatal("adaptive CPU-only accepted")
	}
}

func TestRateScheduleAPI(t *testing.T) {
	w := smallWorkload(t, vlr.Orcas1K)
	rep, err := vlr.Serve(vlr.ServeOptions{
		Workload: w, Rate: 12, Seed: 1, Duration: 60 * time.Second,
		RateSchedule: vlr.BurstRate(10, 25, 30*time.Second, 8*time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.N == 0 {
		t.Fatal("scheduled arrivals produced no requests")
	}
}

func TestDriftRotationAPI(t *testing.T) {
	w := smallWorkload(t, vlr.Orcas1K)
	w.SetPopularityRotation(100)
	if w.PopularityRotation() != 100 {
		t.Fatal("rotation not recorded")
	}
	w.SetPopularityRotation(-1)
	if w.PopularityRotation() != w.Templates()-1 {
		t.Fatalf("negative rotation not normalized: %d", w.PopularityRotation())
	}
}

func TestServeTenantsAPI(t *testing.T) {
	gold := smallWorkload(t, vlr.Orcas1K)
	bronze := smallWorkload(t, vlr.WikiAll)
	opts := vlr.MultiTenantServeOptions{
		Tenants: []vlr.TenantSpec{
			{Name: "gold", Tier: vlr.GoldTier, Workload: gold, Rate: 8},
			{Name: "bronze", Tier: vlr.BronzeTier, Workload: bronze, Rate: 4,
				RateSchedule: vlr.BurstRate(4, 25, 30*time.Second, 10*time.Second)},
		},
		Duration: 40 * time.Second, Seed: 1, Workers: 1,
	}
	rep, err := vlr.ServeTenants(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Workers is wall-clock only: it never puts one node behind a network.
	opts.Workers = 4
	if rep4, err := vlr.ServeTenants(opts); err != nil || !reflect.DeepEqual(rep4, rep) || rep4.Replicas != 0 {
		t.Fatalf("Workers 4 changed the single-node run (err %v):\n%+v\nvs Workers 1\n%+v", err, rep4, rep)
	}
	if len(rep.Tenants) != 2 {
		t.Fatalf("got %d tenant reports", len(rep.Tenants))
	}
	for _, tr := range rep.Tenants {
		if tr.Summary.N == 0 {
			t.Errorf("tenant %s saw no traffic", tr.Name)
		}
		if tr.Target <= 0 || tr.SLOTotal <= 0 {
			t.Errorf("tenant %s report incomplete: %+v", tr.Name, tr)
		}
	}
	if rep.Fairness <= 0 || rep.Fairness > 1 {
		t.Fatalf("fairness %v outside (0,1]", rep.Fairness)
	}
	if rep.UsedBytes > rep.BudgetBytes {
		t.Fatalf("allocation overran budget")
	}

	// The tier helpers round-trip.
	if len(vlr.Tiers()) != 3 {
		t.Fatalf("tiers: %v", vlr.Tiers())
	}
	if tier, err := vlr.ParseTier("silver"); err != nil || tier != vlr.SilverTier {
		t.Fatalf("ParseTier: %v %v", tier, err)
	}
	if _, err := vlr.ParseTier("platinum"); err == nil {
		t.Fatal("unknown tier accepted")
	}

	// Validation propagates.
	if _, err := vlr.ServeTenants(vlr.MultiTenantServeOptions{}); err == nil {
		t.Fatal("empty tenant set accepted")
	}
}

func TestServeLiveAPI(t *testing.T) {
	w := smallWorkload(t, vlr.Orcas1K)
	opts := vlr.ServeOptions{
		Workload: w, System: vlr.VLiteRAG, Rate: 15, Seed: 1,
		Duration: 40 * time.Second, Drain: 20 * time.Second,
	}
	rep, err := vlr.ServeLive(vlr.LiveServeOptions{
		ServeOptions: opts,
		Ingest: vlr.LiveIngestOptions{
			InsertRate: 3, DeleteRate: 1,
			ReencodeEvery: 10 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.N == 0 || rep.Summary.Attainment <= 0 {
		t.Fatalf("empty report %+v", rep.Summary)
	}
	if rep.Freshness.Inserts == 0 || rep.Freshness.Deletes == 0 {
		t.Fatalf("no mutations recorded: %+v", rep.Freshness)
	}
	if rep.Freshness.TTS.P50 <= 0 || rep.FreshnessSLO != 500*time.Millisecond {
		t.Fatalf("freshness summary wrong: %+v (SLO %v)", rep.Freshness, rep.FreshnessSLO)
	}
	// Freshness excludes warmup arrivals; the raw count covers them all.
	if rep.Mutations < rep.Freshness.Inserts+rep.Freshness.Deletes {
		t.Fatalf("mutation count %d below freshness window's %d+%d",
			rep.Mutations, rep.Freshness.Inserts, rep.Freshness.Deletes)
	}
	if rep.Reencodes == 0 || rep.SizeSkew <= 0 || rep.ResidualRatio <= 0 {
		t.Fatalf("live trackers empty: reencodes %d, skew %v, residual %v",
			rep.Reencodes, rep.SizeSkew, rep.ResidualRatio)
	}
	inserts := 0
	for _, win := range rep.Timeline {
		inserts += win.Inserts
	}
	if inserts == 0 {
		t.Fatal("timeline windows carry no insert annotations")
	}
	// No ingest configured ⇒ exactly Serve.
	frozen, err := vlr.ServeLive(vlr.LiveServeOptions{ServeOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := vlr.Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if frozen.Summary != plain.Summary || frozen.Mutations != 0 {
		t.Fatalf("frozen live run differs from Serve: %+v vs %+v", frozen.Summary, plain.Summary)
	}
}

func TestPublicHelpers(t *testing.T) {
	if got := vlr.Systems(); len(got) != 4 {
		t.Fatalf("Systems() = %v", got)
	}
	if got := vlr.AllSystems(); len(got) != 5 {
		t.Fatalf("AllSystems() = %v", got)
	}
}

// TestServeClusterRejectsBadFaultFactors: a slowdown factor that is not
// finite, or large enough to overflow a stretched service interval,
// parses (the grammar is fine) but fails validation, and ServeCluster
// refuses the storm before it runs.
func TestServeClusterRejectsBadFaultFactors(t *testing.T) {
	w := smallWorkload(t, vlr.Orcas1K)
	for _, faults := range []string{
		"straggler@10s:r0:5s:xNaN",
		"bandwidth@10s:r0:5s:x+Inf",
		"straggler@10s:r0:5s:x1e300",
		"bandwidth@10s:r1:5s:x1000.5",
	} {
		_, err := vlr.ServeCluster(vlr.ClusterOptions{
			ServeOptions: vlr.ServeOptions{Workload: w, Rate: 10, Seed: 1, Duration: 30 * time.Second},
			Faults:       faults,
		})
		if err == nil || !strings.Contains(err.Error(), "factor") {
			t.Errorf("%s: ServeCluster error %v, want one naming the factor", faults, err)
		}
	}
}

// TestRunExperimentCSV: every registered experiment exports CSV through
// the public entry point — each table a blank-line-separated block that
// parses back with a header row and uniform width.
func TestRunExperimentCSV(t *testing.T) {
	for _, id := range vlr.Experiments() {
		out, err := vlr.RunExperimentCSV(id, true)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, block := range strings.Split(out, "\n\n") {
			recs, err := csv.NewReader(strings.NewReader(block)).ReadAll()
			if err != nil || len(recs) < 2 {
				t.Errorf("%s: CSV block does not parse to header + rows (%v):\n%s", id, err, block)
			}
		}
		if id == "ingest" && (!strings.HasPrefix(out, "arm,attainment") || !strings.Contains(out, "streaming+compaction")) {
			t.Errorf("ingest CSV output malformed: %q", out)
		}
	}
	if _, err := vlr.RunExperimentCSV("nope", true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestPartialDeploymentRejected: a partly filled Node or Model — the
// struct literal a caller writes when overriding one field — is an
// error from every public entry point, never a division by zero (TP,
// Layers, KVHeads, HeadDim, BytesElem) or an out-of-range make
// (NumGPUs) deep inside the engines.
func TestPartialDeploymentRejected(t *testing.T) {
	w := smallWorkload(t, vlr.Orcas1K)
	full := vlr.Llama3_8B
	models := map[string]func(m *vlr.ModelSpec){
		"params only":        func(m *vlr.ModelSpec) { *m = vlr.ModelSpec{Params: 7e9} },
		"zero TP":            func(m *vlr.ModelSpec) { m.TP = 0 },
		"negative TP":        func(m *vlr.ModelSpec) { m.TP = -2 },
		"zero Layers":        func(m *vlr.ModelSpec) { m.Layers = 0 },
		"zero KVHeads":       func(m *vlr.ModelSpec) { m.KVHeads = 0 },
		"zero HeadDim":       func(m *vlr.ModelSpec) { m.HeadDim = 0 },
		"zero BytesElem":     func(m *vlr.ModelSpec) { m.BytesElem = 0 },
		"negative BytesElem": func(m *vlr.ModelSpec) { m.BytesElem = -1 },
	}
	nodes := map[string]vlr.Node{
		"negative NumGPUs": {Name: "bad", NumGPUs: -1},
		"GPU count only":   {NumGPUs: 2},
	}
	entries := map[string]func(node vlr.Node, model vlr.ModelSpec) error{
		"Serve": func(n vlr.Node, m vlr.ModelSpec) error {
			_, err := vlr.Serve(vlr.ServeOptions{Workload: w, Rate: 5, Node: n, Model: m})
			return err
		},
		"ServeAdaptive": func(n vlr.Node, m vlr.ModelSpec) error {
			_, err := vlr.ServeAdaptive(vlr.AdaptiveServeOptions{ServeOptions: vlr.ServeOptions{Workload: w, Rate: 5, Node: n, Model: m}})
			return err
		},
		"ServeLive": func(n vlr.Node, m vlr.ModelSpec) error {
			_, err := vlr.ServeLive(vlr.LiveServeOptions{
				ServeOptions: vlr.ServeOptions{Workload: w, Rate: 5, Node: n, Model: m},
				Ingest:       vlr.LiveIngestOptions{InsertRate: 5},
			})
			return err
		},
		"ServeCluster": func(n vlr.Node, m vlr.ModelSpec) error {
			_, err := vlr.ServeCluster(vlr.ClusterOptions{ServeOptions: vlr.ServeOptions{Workload: w, Rate: 5, Node: n, Model: m}})
			return err
		},
		"ServeCluster sharded": func(n vlr.Node, m vlr.ModelSpec) error {
			_, err := vlr.ServeCluster(vlr.ClusterOptions{
				ServeOptions: vlr.ServeOptions{Workload: w, Rate: 5, Node: n, Model: m, NetDelay: time.Millisecond},
				Policy:       vlr.RoundRobin,
			})
			return err
		},
		"ServeCluster resilient": func(n vlr.Node, m vlr.ModelSpec) error {
			_, err := vlr.ServeCluster(vlr.ClusterOptions{
				ServeOptions: vlr.ServeOptions{Workload: w, Rate: 5, Node: n, Model: m},
				Resilience:   &vlr.ResilienceConfig{},
			})
			return err
		},
		"ServeTenants": func(n vlr.Node, m vlr.ModelSpec) error {
			_, err := vlr.ServeTenants(vlr.MultiTenantServeOptions{
				Node: n, Model: m,
				Tenants: []vlr.TenantSpec{{Name: "a", Tier: vlr.Tiers()[0], Workload: w, Rate: 3}},
			})
			return err
		},
		"BuildSystem": func(n vlr.Node, m vlr.ModelSpec) error {
			_, err := vlr.BuildSystem(vlr.SystemOptions{Workload: w, Node: n, Model: m})
			return err
		},
		"Capacity": func(n vlr.Node, m vlr.ModelSpec) error {
			_, err := vlr.Capacity(n, m)
			return err
		},
	}
	check := func(label string, call func() error) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s: panic: %v", label, r)
			}
		}()
		if err := call(); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
	for ename, entry := range entries {
		for mname, mod := range models {
			m := full
			mod(&m)
			check(ename+" / model "+mname, func() error { return entry(vlr.H100Node(), m) })
		}
		for nname, n := range nodes {
			check(ename+" / node "+nname, func() error { return entry(n, full) })
		}
	}
}
