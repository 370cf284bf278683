package experiments

import (
	"fmt"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/rag"
)

// Ablations covers the design-choice ablations this repo tracks beyond
// the paper's own Fig. 14, all on ORCAS-1K + Qwen3-32B at 32 req/s:
//
//   - queuing factor eps: Algorithm 1 budgets tau_s = SLO/(1+eps); the
//     paper fixes eps=1 as the empirically observed worst case (§IV-A3).
//     The sweep shows what the knob buys and costs.
//   - probe pruning + dispatcher: the hybrid runtime vs the same
//     coverage executed with IndexIVFShards semantics (HedraRAG's
//     runtime), isolating the router/dispatcher contribution from the
//     partitioning policy.
//   - system enumeration: every implemented pipeline composition —
//     including HedraRAG, which the main-evaluation Kinds() omits — at
//     the same operating point.
func Ablations(cfg Config) (*Report, error) {
	point := grid{dep: qwenH100(), spec: dataset.Orcas1K, rates: []float64{32}}
	rep := &Report{}

	epsValues := []float64{0.5, 1.0, 2.0}
	if cfg.Quick {
		epsValues = []float64{0.5, 2.0}
	}
	rep.Printf("Ablation A: queuing factor eps (tau_s = SLO/(1+eps)), ORCAS-1K + Qwen3-32B @32 rps\n")
	epsT := rep.Table(
		col("eps", "%.1f", "eps", "%.1f"),
		col("rho", "%.3f", "rho", ""),
		col("attainment", "%.2f", "attainment", ""),
		col("avg search", "%.0fms", "search_mean_s", ""),
	)
	for _, eps := range epsValues {
		point.arms = append(point.arms, arm[rag.Options]{fmt.Sprintf("eps=%.1f", eps), func(o *rag.Options) { o.Epsilon = eps }})
	}
	err := cfg.sweep(point, single(func(_ string, o rag.Options, r *rag.Result) {
		epsT.Add(o.Epsilon, r.Rho, r.Summary.Attainment, r.Summary.Breakdown.Search)
	}))
	if err != nil {
		return nil, err
	}

	// Runtime ablation: the first arm makes vLiteRAG's decision (vl),
	// the last serves that very decision on the unpruned/undispatched
	// runtime, so both run at the same coverage.
	rep.Printf("\nAblation B: runtime pipeline at equal coverage\n")
	runtimeT := rep.Table(
		col("pipeline", "", "pipeline", ""),
		col("attainment", "%.2f", "attainment", ""),
		col("avg search", "%.0fms", "search_mean_s", ""),
		col("TTFT p90", "%.0fms", "ttft_p90_s", ""),
	)
	var vl *rag.Decision
	point.arms = []arm[rag.Options]{
		{name: "router+dispatcher (vLiteRAG)"},
		{"no dispatcher", func(o *rag.Options) { o.DisableDispatcher = true }},
		{"unpruned probes, no dispatcher", func(o *rag.Options) { o.Kind, o.Decision = rag.HedraRAG, vl }},
	}
	err = cfg.sweep(point, single(func(pipeline string, o rag.Options, r *rag.Result) {
		if vl == nil {
			vl = o.Decision
		}
		runtimeT.Add(pipeline, r.Summary.Attainment, r.Summary.Breakdown.Search, r.Summary.TTFT.P90)
	}))
	if err != nil {
		return nil, err
	}

	rep.Printf("\nAblation C: all systems at one operating point\n")
	systems := rep.Table(
		col("system", "", "system", ""),
		col("rho", "%.3f", "rho", ""),
		col("attainment", "%.2f", "attainment", ""),
		col("avg search", "%.0fms", "search_mean_s", ""),
	)
	point.arms, point.kinds = nil, rag.AllKinds()
	err = cfg.sweep(point, single(func(_ string, o rag.Options, r *rag.Result) {
		systems.Add(string(o.Kind), r.Rho, r.Summary.Attainment, r.Summary.Breakdown.Search)
	}))
	if err != nil {
		return nil, err
	}
	return rep, nil
}
