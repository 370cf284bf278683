package llm

import (
	"strings"
	"testing"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/workload"
)

func TestKVBytesPerToken(t *testing.T) {
	// Llama3-8B: 2 x 32 layers x 8 heads x 128 dim x 2 B = 128 KiB.
	if got := Llama3_8B.KVBytesPerToken(); got != 131072 {
		t.Fatalf("Llama3-8B KV/token = %d, want 131072", got)
	}
	if got := Qwen3_32B.KVBytesPerToken(); got != 262144 {
		t.Fatalf("Qwen3-32B KV/token = %d, want 262144", got)
	}
}

func TestWeightBytes(t *testing.T) {
	if got := Llama3_70B.WeightBytes(); got != 140_000_000_000 {
		t.Fatalf("70B weights = %d", got)
	}
	if got := Llama3_70B.WeightBytesPerGPU(); got != 35_000_000_000 {
		t.Fatalf("70B weights/GPU = %d", got)
	}
}

// TestKVBytesPerGPU: the one HBM baseline. The decision's MemKV and the
// engine's pool both start from it, a resident shard is deducted from
// the pool, and every difference clamps at zero.
func TestKVBytesPerGPU(t *testing.T) {
	h100 := hw.H100()
	base := Qwen3_32B.KVBytesPerGPU(h100)
	if base != h100.UsableMem()-Qwen3_32B.WeightBytesPerGPU() {
		t.Fatalf("baseline KV/GPU = %d", base)
	}
	oversized := Llama3_70B
	oversized.TP = 1
	if got := oversized.KVBytesPerGPU(hw.L40S()); got != 0 {
		t.Fatalf("negative baseline not clamped: %d", got)
	}
	node := hw.H100Node()
	if got := Qwen3_32B.NodeKVBytes(node); got != base*int64(node.NumGPUs) {
		t.Fatalf("node MemKV = %d", got)
	}
	node.NumGPUs = 3 // one GPU left over by TP=2 holds no KV
	if got := Qwen3_32B.NodeKVBytes(node); got != 2*base {
		t.Fatalf("node MemKV over whole instances = %d", got)
	}
	if f := KVFraction(100, 25); f != 0.75 {
		t.Fatalf("KVFraction(100, 25) = %v", f)
	}
	if f := KVFraction(100, 150); f != 0 {
		t.Fatalf("KVFraction past the pool = %v, want 0", f)
	}

	states := gpu.NewStates(hw.H100Node())[:Qwen3_32B.TP]
	states[1].ShardBytes = 10 << 30
	var sim des.Sim
	inst, err := NewInstance(&sim, hw.H100Node(), Qwen3_32B, states, DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := (base - 10<<30) * int64(Qwen3_32B.TP) / Qwen3_32B.KVBytesPerToken(); inst.kvCapacityTokens != want {
		t.Fatalf("pool %d tokens, want %d (the fullest GPU bounds the share)", inst.kvCapacityTokens, want)
	}
	states[1].ShardBytes = 2 * base
	if _, err := NewInstance(&sim, hw.H100Node(), Qwen3_32B, states, DefaultEngineConfig()); err == nil {
		t.Fatal("an instance with no KV space left was built")
	}
}

func newIdleStates(node hw.Node) []*gpu.State { return gpu.NewStates(node) }

func TestInstanceRejectsWrongGPUCount(t *testing.T) {
	var sim des.Sim
	node := hw.H100Node()
	if _, err := NewInstance(&sim, node, Qwen3_32B, newIdleStates(node)[:1], DefaultEngineConfig()); err == nil {
		t.Fatal("TP=2 instance accepted 1 GPU")
	}
}

func TestInstanceRejectsNoKVSpace(t *testing.T) {
	var sim des.Sim
	node := hw.L40SNode()
	states := newIdleStates(node)
	// 70B weights cannot fit a single L40S under TP=1.
	spec := Llama3_70B
	spec.TP = 1
	if _, err := NewInstance(&sim, node, spec, states[:1], DefaultEngineConfig()); err == nil {
		t.Fatal("oversized model accepted")
	}
}

func TestSingleRequestLifecycle(t *testing.T) {
	var sim des.Sim
	node := hw.L40SNode()
	inst, err := NewInstance(&sim, node, Llama3_8B, newIdleStates(node)[:1], DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	req := &workload.Request{ID: 1, Shape: workload.DefaultShape(), ArrivalAt: 0}
	var done bool
	inst.onDone = func(r *workload.Request) { done = true }
	sim.At(0, func() { inst.Submit(req) })
	sim.Run()
	if !done {
		t.Fatal("request never completed")
	}
	if req.FirstToken <= 0 || req.Done <= req.FirstToken {
		t.Fatalf("bad timestamps: first=%d done=%d", req.FirstToken, req.Done)
	}
	// TTFT should be roughly the prefill time: >50ms, <1s for 8B/1024 in.
	ttft := time.Duration(req.TTFT())
	if ttft < 50*time.Millisecond || ttft > time.Second {
		t.Fatalf("TTFT = %v implausible for Llama3-8B @1024 tokens", ttft)
	}
	// Decode of 256 tokens at ~19ms weight-read floor: E2E >= 2s.
	if e2e := time.Duration(req.E2E()); e2e < 2*time.Second || e2e > 30*time.Second {
		t.Fatalf("E2E = %v implausible", e2e)
	}
}

func TestKVAccounting(t *testing.T) {
	var sim des.Sim
	node := hw.L40SNode()
	inst, err := NewInstance(&sim, node, Llama3_8B, newIdleStates(node)[:1], DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	shape := workload.Shape{InputTokens: 128, OutputTokens: 16, TopK: 5}
	for i := 0; i < 10; i++ {
		req := &workload.Request{ID: i, Shape: shape}
		sim.At(0, func() { inst.Submit(req) })
	}
	sim.Run()
	if inst.kvUsedTokens != 0 {
		t.Fatalf("KV leak: %d tokens still reserved after drain", inst.kvUsedTokens)
	}
	if inst.sumCtx != 0 {
		t.Fatalf("context accounting leak: %d", inst.sumCtx)
	}
	if inst.Completed() != 10 {
		t.Fatalf("completed = %d", inst.Completed())
	}
}

func TestThroughputDropsWithShardBytes(t *testing.T) {
	// Fig. 4 right: carving index shards out of KV space reduces LLM
	// throughput, and the loss is steep once KV gets small.
	node := hw.H100Node()
	shape := workload.DefaultShape()
	cfg := DefaultEngineConfig()

	measure := func(shard int64) float64 {
		states := gpu.NewStates(node)
		for _, s := range states {
			s.ShardBytes = shard
		}
		rps, err := MeasureCapacity(node, Qwen3_32B, states, shape, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rps
	}
	full := measure(0)
	if full < 10 || full > 120 {
		t.Fatalf("bare Qwen3-32B capacity = %.1f RPS implausible", full)
	}
	// Qwen3-32B TP=2 on H100: per-GPU free ≈ 76-32 = 44 GB. Take most
	// of it for shards.
	small := measure(40 << 30)
	if small >= full*0.8 {
		t.Fatalf("shrinking KV did not reduce throughput: full=%.1f small=%.1f", full, small)
	}
	// Monotone within measurement noise (batch-wave synchronization in
	// the saturation harness causes a few percent of jitter).
	mid := measure(20 << 30)
	if mid < small*0.95 || mid > full*1.10 {
		t.Fatalf("throughput not ~monotone in KV: full=%.1f mid=%.1f small=%.1f", full, mid, small)
	}
}

func TestCapacityOrdering(t *testing.T) {
	// Smaller models on their node sustain higher RPS than 70B.
	shape := workload.DefaultShape()
	cfg := DefaultEngineConfig()
	l40s := hw.L40SNode()
	h100 := hw.H100Node()
	cap8B, err := MeasureCapacity(l40s, Llama3_8B, gpu.NewStates(l40s), shape, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cap70B, err := MeasureCapacity(h100, Llama3_70B, gpu.NewStates(h100), shape, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cap8B <= cap70B {
		t.Fatalf("8B capacity %.1f <= 70B capacity %.1f", cap8B, cap70B)
	}
	// Paper anchors: 8B node ≈ 40 RPS, 70B ≈ 8-20 RPS. Allow generous bands.
	if cap8B < 20 || cap8B > 80 {
		t.Errorf("Llama3-8B capacity %.1f RPS outside plausible band", cap8B)
	}
	if cap70B < 4 || cap70B > 30 {
		t.Errorf("Llama3-70B capacity %.1f RPS outside plausible band", cap70B)
	}
}

func TestContentionStretchesIterations(t *testing.T) {
	node := hw.L40SNode()
	shape := workload.Shape{InputTokens: 512, OutputTokens: 64, TopK: 5}

	run := func(contend bool) des.Time {
		var sim des.Sim
		states := gpu.NewStates(node)
		inst, err := NewInstance(&sim, node, Llama3_8B, states[:1], DefaultEngineConfig())
		if err != nil {
			t.Fatal(err)
		}
		req := &workload.Request{ID: 0, Shape: shape}
		sim.At(0, func() {
			if contend {
				states[0].MarkRetrievalBusy(des.Time(10 * time.Second))
			}
			inst.Submit(req)
		})
		sim.Run()
		return req.Done
	}
	free := run(false)
	busy := run(true)
	if busy <= free {
		t.Fatalf("contention did not slow generation: free=%v busy=%v", free, busy)
	}
	wantRatio := 1 + node.ContentionFactor
	ratio := float64(busy) / float64(free)
	if ratio < wantRatio*0.9 || ratio > wantRatio*1.1 {
		t.Fatalf("contention ratio = %.2f, want ~%.2f", ratio, wantRatio)
	}
}

func TestClusterLeastLoadedDispatch(t *testing.T) {
	var sim des.Sim
	node := hw.L40SNode()
	cluster, err := NewCluster(&sim, node, Llama3_8B, gpu.NewStates(node), DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cluster.Instances) != 8 {
		t.Fatalf("instances = %d, want 8 (TP=1 on 8 GPUs)", len(cluster.Instances))
	}
	shape := workload.Shape{InputTokens: 64, OutputTokens: 4, TopK: 5}
	sim.At(0, func() {
		for i := 0; i < 16; i++ {
			cluster.Submit(&workload.Request{ID: i, Shape: shape})
		}
	})
	// Before running: every instance should have exactly 2 requests.
	sim.Step()
	for i, in := range cluster.Instances {
		if in.Load() != 2 {
			t.Fatalf("instance %d load = %d, want 2", i, in.Load())
		}
	}
	sim.Run()
	if cluster.Completed() != 16 {
		t.Fatalf("completed = %d", cluster.Completed())
	}
}

func TestClusterTPPacking(t *testing.T) {
	var sim des.Sim
	node := hw.H100Node()
	states := gpu.NewStates(node)
	// 7 GPUs with TP=4 -> 1 instance (3 GPUs stranded), the DED-GPU
	// rigidity of §VI-B.
	cluster, err := NewCluster(&sim, node, Llama3_70B, states[:7], DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cluster.Instances) != 1 {
		t.Fatalf("instances = %d, want 1", len(cluster.Instances))
	}
	if _, err := NewCluster(&sim, node, Llama3_70B, states[:3], DefaultEngineConfig()); err == nil {
		t.Fatal("3 GPUs accepted for TP=4 model")
	}
}

func TestSLOGenTable(t *testing.T) {
	if SLOGen(Llama3_8B) != 217 || SLOGen(Qwen3_32B) != 191 || SLOGen(Llama3_70B) != 311 {
		t.Fatal("Table I SLO_LLM values wrong")
	}
}

func TestModelSpecValidate(t *testing.T) {
	for _, m := range []ModelSpec{Llama3_8B, Qwen3_32B, Llama3_70B} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
	for name, mod := range map[string]func(*ModelSpec){
		"TP":        func(m *ModelSpec) { m.TP = 0 },
		"Layers":    func(m *ModelSpec) { m.Layers = -1 },
		"KVHeads":   func(m *ModelSpec) { m.KVHeads = 0 },
		"HeadDim":   func(m *ModelSpec) { m.HeadDim = 0 },
		"BytesElem": func(m *ModelSpec) { m.BytesElem = 0 },
	} {
		m := Qwen3_32B
		mod(&m)
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("bad %s: error %v does not name the field", name, err)
		}
	}
}
