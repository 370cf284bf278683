// Package llm models LLM serving with iteration-level continuous
// batching (vLLM-style, the serving stack of the paper §V-A): requests
// are admitted into an instance when KV-cache space allows, prefill
// iterations are compute-bound in the prompt length, and decode
// iterations are memory-bandwidth-bound in weight and KV reads. The
// engine runs in virtual time on the discrete-event simulator and is
// coupled to retrieval through the shared per-GPU state (memory
// partitioning and compute contention).
package llm

import (
	"fmt"

	"vectorliterag/internal/hw"
)

// ModelSpec describes one served model.
type ModelSpec struct {
	Name      string
	Params    int64 // parameter count
	Layers    int
	KVHeads   int // grouped-query KV heads
	HeadDim   int
	TP        int // tensor-parallel degree (GPUs per instance)
	BytesElem int // weight/KV element size (2 for bf16)
}

// Validate rejects a spec the engine would divide by zero on: a partly
// filled struct literal is the usual way to get one.
func (m ModelSpec) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"TP", m.TP}, {"Layers", m.Layers}, {"KVHeads", m.KVHeads}, {"HeadDim", m.HeadDim}, {"BytesElem", m.BytesElem}} {
		if f.v < 1 {
			return fmt.Errorf("llm: model %q needs %s >= 1, got %d", m.Name, f.name, f.v)
		}
	}
	return nil
}

// WeightBytes returns the total model weight footprint.
func (m ModelSpec) WeightBytes() int64 { return m.Params * int64(m.BytesElem) }

// WeightBytesPerGPU returns each GPU's share under TP sharding.
func (m ModelSpec) WeightBytesPerGPU() int64 { return m.WeightBytes() / int64(m.TP) }

// KVBytesPerGPU returns the HBM one GPU of spec g leaves to the KV pool
// with no index loaded: usable memory less the GPU's weight share, never
// negative. It is the one baseline both NewInstance's pool and the
// partitioners' MemKV start from.
func (m ModelSpec) KVBytesPerGPU(g hw.GPU) int64 {
	return max(g.UsableMem()-m.WeightBytesPerGPU(), 0)
}

// NodeKVBytes returns the node-wide baseline KV capacity over the GPUs
// whole instances occupy — the MemKV input of Algorithm 1, the HedraRAG
// rule and the joint allocator.
func (m ModelSpec) NodeKVBytes(node hw.Node) int64 {
	return m.KVBytesPerGPU(node.GPU) * int64(node.NumGPUs/m.TP*m.TP)
}

// KVFraction is the linear KV→throughput model every partitioner prices
// index bytes with: the share of the bare LLM throughput left when
// indexBytes of a memKV pool hold index (the true curve is convex, so
// linear is a lower bound — paper §IV-A3).
func KVFraction(memKV, indexBytes int64) float64 {
	return max(float64(memKV-indexBytes)/float64(memKV), 0)
}

// KVBytesPerToken returns KV-cache bytes per token across the whole
// model: 2 (K and V) x layers x kvHeads x headDim x elemBytes.
func (m ModelSpec) KVBytesPerToken() int64 {
	return int64(2*m.Layers*m.KVHeads*m.HeadDim) * int64(m.BytesElem)
}

func (m ModelSpec) String() string { return fmt.Sprintf("%s(TP=%d)", m.Name, m.TP) }

// The three evaluation models (paper §V-A). TP degrees follow the
// paper's deployment: Llama3-8B fits one GPU; Qwen3-32B uses TP=2 on
// H100s; Llama3-70B needs TP=4 for efficient execution (§VI-B).
var (
	Llama3_8B = ModelSpec{
		Name: "Llama3-8B", Params: 8_000_000_000,
		Layers: 32, KVHeads: 8, HeadDim: 128, TP: 1, BytesElem: 2,
	}
	Qwen3_32B = ModelSpec{
		Name: "Qwen3-32B", Params: 32_000_000_000,
		Layers: 64, KVHeads: 8, HeadDim: 128, TP: 2, BytesElem: 2,
	}
	Llama3_70B = ModelSpec{
		Name: "Llama3-70B", Params: 70_000_000_000,
		Layers: 80, KVHeads: 8, HeadDim: 128, TP: 4, BytesElem: 2,
	}
)

// SLOGen returns the generation-stage TTFT SLO the paper assigns each
// model (Table I): the prefill latency measured at the model's
// throughput limit.
func SLOGen(m ModelSpec) (ms int) {
	switch m.Name {
	case Llama3_8B.Name:
		return 217
	case Qwen3_32B.Name:
		return 191
	case Llama3_70B.Name:
		return 311
	default:
		return 250
	}
}
