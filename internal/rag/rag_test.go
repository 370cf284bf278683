package rag

import (
	"math"
	"strings"
	"testing"
	"time"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/workload"
)

// sharedW caches the workload across tests in this package (building
// the physical index is the expensive part).
var sharedW *dataset.Workload

func testW(t *testing.T) *dataset.Workload {
	t.Helper()
	if sharedW == nil {
		gc := dataset.GenConfig{NCenters: 64, PerCenter: 64, Dim: 16, PhysNList: 64, PhysNProbe: 8, Templates: 256, Seed: 2}
		w, err := dataset.Build(dataset.Orcas1K, gc)
		if err != nil {
			t.Fatal(err)
		}
		sharedW = w
	}
	return sharedW
}

func baseOpts(t *testing.T, kind Kind, rate float64) Options {
	return Options{
		Node: hw.H100Node(), Model: llm.Qwen3_32B, W: testW(t),
		Kind: kind, Rate: rate, Seed: 1,
		Duration: 60 * time.Second, Warmup: 10 * time.Second, Drain: 90 * time.Second,
	}
}

// decidedCorpus validates o, fills its generation SLO and returns the
// single corpus of its decision, as Run would serve it.
func decidedCorpus(t *testing.T, o *Options) *corpus {
	t.Helper()
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	slo, err := GenSLO(o.Node, o.Model, o.Shape)
	if err != nil {
		t.Fatal(err)
	}
	o.SLOGen = slo
	d, err := decide(o)
	if err != nil {
		t.Fatal(err)
	}
	return o.corpus(d, nil, nil)
}

// routed is o served on replicas nodes behind a policy router.
func routed(o Options, replicas int, policy serve.Policy) Options {
	o.Replicas, o.Policy = replicas, policy
	return o
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Fatal("nil workload accepted")
	}
	o := baseOpts(t, CPUOnly, 0)
	if _, err := Run(o); err == nil {
		t.Fatal("zero rate accepted")
	}
	o = baseOpts(t, Kind("bogus"), 10)
	if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "[CPU-Only DED-GPU ALL-GPU vLiteRAG HedraRAG]") {
		t.Fatalf("unknown kind: error %v does not list the kinds", err)
	}
	// A warm-up as long as the window once reported attainment 0 over 0
	// requests.
	o = baseOpts(t, AllGPU, 10)
	o.Warmup = o.Duration
	if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "Warmup 1m0s covers the whole Duration 1m0s") {
		t.Fatalf("a warm-up covering the window: error %v", err)
	}
	// The decision's own inputs are refused by Run and Decide alike: a
	// negative or NaN queuing factor once bought τ_s past the SLO (or a
	// negative one), and a negative sample size silently became 4000.
	for _, bad := range []func(*Options){
		func(o *Options) { o.Epsilon = -1 },
		func(o *Options) { o.Epsilon = -0.5 },
		func(o *Options) { o.Epsilon = math.NaN() },
		func(o *Options) { o.ProfileQueries = -1 },
	} {
		o := baseOpts(t, VLiteRAG, 10)
		bad(&o)
		if _, err := Run(o); err == nil {
			t.Errorf("Run accepted Epsilon %v, ProfileQueries %d", o.Epsilon, o.ProfileQueries)
		}
		if _, err := Decide(o); err == nil {
			t.Errorf("Decide accepted Epsilon %v, ProfileQueries %d", o.Epsilon, o.ProfileQueries)
		}
	}
	// Negative windows, SLOs, worker and token counts are refused before
	// any work: a negative Duration or Drain once served N=0 without an
	// error, a negative SLOGen served at attainment 0, a negative
	// SLOSearch was judged against a total SLO below the generation
	// one, and a negative token count reached the LLM engine's KV and
	// prefill accounting.
	for _, bad := range []struct {
		name string
		mut  func(*Options)
	}{
		{"Duration", func(o *Options) { o.Duration = -10 * time.Second }},
		{"Warmup", func(o *Options) { o.Warmup = -time.Second }},
		{"Drain", func(o *Options) { o.Drain = -200 * time.Second }},
		{"SLOSearch", func(o *Options) { o.SLOSearch = -50 * time.Millisecond }},
		{"SLOGen", func(o *Options) { o.SLOGen = -50 * time.Millisecond }},
		{"Workers", func(o *Options) { o.Workers = -1 }},
		{"routed Workers", func(o *Options) { o.Replicas, o.Workers = 2, -1 }},
		{"token count", func(o *Options) { o.Shape = workload.Shape{InputTokens: -1, OutputTokens: 256} }},
		{"token count", func(o *Options) { o.Shape = workload.Shape{InputTokens: 1024, OutputTokens: -256} }},
	} {
		o := baseOpts(t, AllGPU, 10)
		bad.mut(&o)
		if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "negative "+strings.TrimPrefix(bad.name, "routed ")) {
			t.Errorf("Run with a negative %s: error %v", bad.name, err)
		}
	}
	// A resilience timeout shorter than any attempt's decode timed out
	// every attempt on healthy replicas: at 256 output tokens Qwen3-32B
	// decodes 255 steps of at least 11.05 ms each, 2.82 s in all.
	for _, tc := range []struct {
		timeout time.Duration
		refused bool
	}{{900 * time.Millisecond, true}, {2818 * time.Millisecond, true}, {2819 * time.Millisecond, false}, {3 * time.Second, false}} {
		o := routed(baseOpts(t, VLiteRAG, 10), 3, serve.LeastLoaded)
		o.Resilience = &serve.ResilienceConfig{Timeout: tc.timeout, MaxRetries: 1}
		err := o.validate()
		if (err != nil) != tc.refused || (err != nil && !strings.Contains(err.Error(), "255 decode steps of Qwen3-32B take at least 2.81832069s")) {
			t.Errorf("Timeout %v: error %v, want refused %v", tc.timeout, err, tc.refused)
		}
	}
	if _, err := Decide(Options{Node: hw.H100Node(), Model: llm.Qwen3_32B, W: testW(t), SLOSearch: -time.Millisecond}); err == nil {
		t.Error("Decide accepted a negative SLOSearch")
	}
	mt := mtOpts(t)
	mt.Tenants = append([]TenantConfig(nil), mt.Tenants...)
	mt.Tenants[1].SLOSearch = -50 * time.Millisecond
	if _, err := Run(mt); err == nil || !strings.Contains(err.Error(), "negative SLOSearch") {
		t.Errorf("Run with a tenant's negative SLOSearch: error %v", err)
	}
}

func TestAllSystemsServeTraffic(t *testing.T) {
	for _, kind := range []Kind{CPUOnly, DedGPU, AllGPU, VLiteRAG, HedraRAG} {
		res, err := Run(baseOpts(t, kind, 10))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Generated < 400 {
			t.Fatalf("%s: only %d arrivals in 60s at 10 rps", kind, res.Generated)
		}
		if res.Summary.Unserved > res.Generated/10 {
			t.Fatalf("%s: %d unserved at light load", kind, res.Summary.Unserved)
		}
		if res.Summary.TTFT.P50 <= 0 {
			t.Fatalf("%s: no TTFT measured", kind)
		}
	}
}

func TestTimestampOrderingInvariant(t *testing.T) {
	res, err := Run(baseOpts(t, VLiteRAG, 15))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Requests {
		if r.FirstToken == 0 {
			continue
		}
		if !(r.ArrivalAt <= r.SearchStart && r.SearchStart < r.SearchDone &&
			r.SearchDone <= r.LLMStart && r.LLMStart < r.FirstToken && r.FirstToken < r.Done) {
			t.Fatalf("timestamp ordering violated: %+v", r)
		}
	}
}

func TestVLiteRAGPicksInteriorRho(t *testing.T) {
	res, err := Run(baseOpts(t, VLiteRAG, 15))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho <= 0 || res.Rho >= 0.9 {
		t.Fatalf("vLiteRAG rho = %v, expected an interior partitioning point", res.Rho)
	}
	if res.Partition == nil || !res.Partition.Feasible {
		t.Fatalf("partition diagnostics missing or infeasible: %+v", res.Partition)
	}
	if res.PlanBytes <= 0 || res.PlanBytes >= testW(t).TotalIndexBytes() {
		t.Fatalf("plan bytes = %d", res.PlanBytes)
	}
}

func TestVLiteRAGBeatsCPUOnlyOnSearch(t *testing.T) {
	cpu, err := Run(baseOpts(t, CPUOnly, 15))
	if err != nil {
		t.Fatal(err)
	}
	vl, err := Run(baseOpts(t, VLiteRAG, 15))
	if err != nil {
		t.Fatal(err)
	}
	if vl.Summary.Breakdown.Search >= cpu.Summary.Breakdown.Search {
		t.Fatalf("hybrid search %v not faster than CPU-only %v",
			vl.Summary.Breakdown.Search, cpu.Summary.Breakdown.Search)
	}
	if vl.Summary.Attainment <= cpu.Summary.Attainment {
		t.Fatalf("vLiteRAG attainment %v <= CPU-only %v", vl.Summary.Attainment, cpu.Summary.Attainment)
	}
}

func TestDedGPUReducesLLMCapacity(t *testing.T) {
	res, err := Run(baseOpts(t, DedGPU, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.LLMGPUs >= hw.H100Node().NumGPUs {
		t.Fatalf("DED-GPU left %d GPUs to the LLM", res.LLMGPUs)
	}
}

func TestAttainmentFallsWithRate(t *testing.T) {
	low, err := Run(baseOpts(t, VLiteRAG, 10))
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(baseOpts(t, VLiteRAG, 40)) // above capacity
	if err != nil {
		t.Fatal(err)
	}
	if high.Summary.Attainment >= low.Summary.Attainment {
		t.Fatalf("attainment did not fall above capacity: low=%v high=%v",
			low.Summary.Attainment, high.Summary.Attainment)
	}
	if high.Summary.Attainment > 0.3 {
		t.Fatalf("attainment %v too high above capacity", high.Summary.Attainment)
	}
}

func TestDispatcherAblationWiring(t *testing.T) {
	on, err := Run(baseOpts(t, VLiteRAG, 25))
	if err != nil {
		t.Fatal(err)
	}
	o := baseOpts(t, VLiteRAG, 25)
	o.DisableDispatcher = true
	off, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	// Dispatcher should not hurt mean search latency (Fig. 14).
	if on.Summary.Breakdown.Search > off.Summary.Breakdown.Search+time.Millisecond {
		t.Fatalf("dispatcher hurt search latency: on=%v off=%v",
			on.Summary.Breakdown.Search, off.Summary.Breakdown.Search)
	}
}

func TestSLOSearchOverrideChangesRho(t *testing.T) {
	tight := baseOpts(t, VLiteRAG, 15)
	tight.SLOSearch = 100 * time.Millisecond
	loose := baseOpts(t, VLiteRAG, 15)
	loose.SLOSearch = 400 * time.Millisecond
	rt, err := Run(tight)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(loose)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Rho <= rl.Rho {
		t.Fatalf("tighter SLO did not increase coverage: %v vs %v", rt.Rho, rl.Rho)
	}
}

func TestBareCapacityCached(t *testing.T) {
	shape := workload.DefaultShape()
	a, err := BareCapacity(hw.H100Node(), llm.Qwen3_32B, shape)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BareCapacity(hw.H100Node(), llm.Qwen3_32B, shape)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("capacity cache returned different values")
	}
	if a < 20 || a > 60 {
		t.Fatalf("Qwen3-32B capacity %v outside plausible band", a)
	}
}

func TestGenSLOMeasured(t *testing.T) {
	slo, err := GenSLO(hw.H100Node(), llm.Qwen3_32B, workload.DefaultShape())
	if err != nil {
		t.Fatal(err)
	}
	if slo < 50*time.Millisecond || slo > 2*time.Second {
		t.Fatalf("measured gen SLO %v implausible", slo)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(baseOpts(t, VLiteRAG, 20))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseOpts(t, VLiteRAG, 20))
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.Attainment != b.Summary.Attainment || a.Summary.TTFT.P90 != b.Summary.TTFT.P90 {
		t.Fatal("identical runs differ")
	}
}
