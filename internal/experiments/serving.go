package experiments

import (
	"fmt"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/rag"
	"vectorliterag/internal/workload"
)

// Fig11 reproduces the main evaluation (Fig. 11): SLO attainment and
// end-to-end latency under increasing arrival rates, for every
// (dataset, LLM, system) combination — the 3x3 grid across the four
// main systems, one subplot per dataset x model pair.
func Fig11(cfg Config) (*Report, error) {
	specs := []dataset.Spec{dataset.WikiAll, dataset.Orcas1K, dataset.Orcas2K}
	deps := deployments()
	if cfg.Quick {
		specs = specs[1:2] // ORCAS-1K only
		deps = deps[1:2]   // Qwen3-32B only
	}
	rep := &Report{}
	rep.Printf("Fig 11: SLO attainment (left metric) and E2E latency (right metric)\n")
	t := rep.Table(
		csvCol("dataset", ""),
		csvCol("model", ""),
		col("system", "", "system", ""),
		col("rate", "%.1f", "rate_rps", "%.1f"),
		col("attainment", "%.2f", "attainment", ""),
		col("TTFT p90", "%.0fms", "ttft_p90_s", ""),
		col("E2E p90", "%.1fs", "e2e_p90_s", ""),
		col("search", "%.0fms", "search_mean_s", ""),
		col("rho", "%.3f", "rho", ""),
	)
	for _, spec := range specs {
		for _, dep := range deps {
			// mu is the standalone LLM throughput (the vertical dashed line).
			rates, mu, err := ratesFor(dep, cfg.Quick)
			if err != nil {
				return nil, err
			}
			t.Notef("\n-- %s + %s (bare capacity %.1f rps)\n", spec.Name, dep.Model.Name, mu)
			first := len(t.rows)
			err = cfg.sweep(grid{dep: dep, spec: spec, kinds: rag.Kinds(), rates: rates},
				single(func(_ string, o rag.Options, r *rag.Result) {
					s := r.Summary
					t.Add(spec.Name, dep.Model.Name, string(o.Kind), o.Rate, s.Attainment,
						s.TTFT.P90, s.E2E.P90, s.Breakdown.Search, r.Rho)
				}))
			if err != nil {
				return nil, err
			}
			// Headline: SLO-bound throughput ratio vs best baseline.
			cell := t.Rows()[first:]
			vl := maxAttainedRate(cell, rag.VLiteRAG, 0.5)
			bestBase := 0.0
			for _, k := range []rag.Kind{rag.CPUOnly, rag.DedGPU, rag.AllGPU} {
				bestBase = max(bestBase, maxAttainedRate(cell, k, 0.5))
			}
			if bestBase > 0 {
				t.Notef("SLO-bound (att>=0.5) rate: vLiteRAG %.1f vs best baseline %.1f (%.2fx)\n",
					vl, bestBase, vl/bestBase)
			}
		}
	}
	return rep, nil
}

// maxAttainedRate returns the highest rate at which the system kept
// attainment >= level among the rows, or 0 if it never did.
func maxAttainedRate(rows []Row, kind rag.Kind, level float64) float64 {
	best := 0.0
	for _, r := range rows {
		if r.Str("system") == string(kind) && r.Float("attainment") >= level {
			best = max(best, r.Float("rate"))
		}
	}
	return best
}

// Fig12 reproduces the TTFT breakdown (Fig. 12) for Wiki-All and
// ORCAS-1K with Qwen3-32B at three arrival rates: one stacked bar per
// row.
func Fig12(cfg Config) (*Report, error) {
	rates := []float64{19, 32, 38}
	if cfg.Quick {
		rates = []float64{19, 32}
	}
	rep := &Report{}
	rep.Printf("Fig 12: TTFT breakdown with Qwen3-32B\n")
	t := rep.Table(
		col("dataset", "", "dataset", ""),
		col("system", "", "system", ""),
		col("rate", "%.0f", "rate_rps", "%.1f"),
		col("queueing", "%.0fms", "queueing_s", ""),
		col("search", "%.0fms", "search_s", ""),
		col("LLM(prefill)", "%.0fms", "llm_s", ""), // wait + prefill (the grey segment)
		textCol("total", "%.0fms"),
	)
	for _, spec := range []dataset.Spec{dataset.WikiAll, dataset.Orcas1K} {
		err := cfg.sweep(grid{dep: qwenH100(), spec: spec, kinds: rag.Kinds(), rates: rates},
			single(func(_ string, o rag.Options, r *rag.Result) {
				bd := r.Summary.Breakdown
				llm := bd.LLMWait + bd.Prefill
				t.Add(spec.Name, string(o.Kind), o.Rate, bd.Queueing, bd.Search, llm, bd.Queueing+bd.Search+llm)
			}))
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// Fig14 reproduces the dispatcher ablation (Fig. 14) on the ORCAS-2K
// index, as in the paper: average and P90 search latency with the
// dispatcher on vs off, plus batch sizes.
func Fig14(cfg Config) (*Report, error) {
	rates := []float64{24, 32, 41}
	if cfg.Quick {
		rates = []float64{24, 32}
	}
	rep := &Report{}
	rep.Printf("Fig 14: dynamic dispatcher ablation (ORCAS-2K)\n")
	t := rep.Table(
		col("rate", "%.0f", "rate_rps", "%.1f"),
		col("dispatcher", "", "dispatcher", ""),
		col("avg search", "%.0fms", "search_mean_s", ""),
		col("p90 search", "%.0fms", "search_p90_s", ""),
		col("avg batch", "%.2f", "avg_batch", ""),
	)
	for _, disp := range []string{"on", "off"} {
		arms := []arm[rag.Options]{{disp, func(o *rag.Options) { o.DisableDispatcher = disp == "off" }}}
		err := cfg.sweep(grid{dep: qwenH100(), spec: dataset.Orcas2K, rates: rates, arms: arms},
			single(func(disp string, o rag.Options, r *rag.Result) {
				t.Add(o.Rate, disp, r.Summary.Breakdown.Search, r.Summary.Search.P90, r.AvgBatch)
			}))
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// Fig15 reproduces the input/output length ablation (Fig. 15): P90 TTFT
// across arrival rates for token shapes {512,1024,2048}/256 and
// 1024/{128,256,512}, on Llama3-8B and Llama3-70B with the ORCAS-2K
// index.
func Fig15(cfg Config) (*Report, error) {
	shapes := []workload.Shape{
		{InputTokens: 512, OutputTokens: 256},
		{InputTokens: 1024, OutputTokens: 256},
		{InputTokens: 2048, OutputTokens: 256},
		{InputTokens: 1024, OutputTokens: 128},
		{InputTokens: 1024, OutputTokens: 512},
	}
	deps := []deployment{deployments()[0], deployments()[2]} // 8B and 70B
	fracs := []float64{0.4, 0.6, 0.8, 0.95, 1.05}
	if cfg.Quick {
		shapes, deps, fracs = shapes[1:2], deps[:1], []float64{0.5, 0.8, 1.0}
	}
	rep := &Report{}
	rep.Printf("Fig 15: input/output length ablation (ORCAS-2K)\n")
	t := rep.Table(
		col("model", "", "model", ""),
		col("shape", "", "shape", ""),
		col("system", "", "system", ""),
		col("rate", "%.1f", "rate_rps", "%.1f"),
		col("TTFT p90", "%.0fms", "ttft_p90_s", ""),
		col("attainment", "%.2f", "attainment", ""),
	)
	for _, dep := range deps {
		for _, shape := range shapes {
			mu, err := rag.BareCapacity(dep.Node, dep.Model, shape)
			if err != nil {
				return nil, err
			}
			err = cfg.sweep(grid{
				dep: dep, spec: dataset.Orcas2K, rates: scaled(mu, fracs),
				kinds: []rag.Kind{rag.CPUOnly, rag.AllGPU, rag.VLiteRAG},
				base:  func(o *rag.Options) { o.Shape = shape },
			}, single(func(_ string, o rag.Options, r *rag.Result) {
				t.Add(dep.Model.Name, fmt.Sprintf("%d/%d", shape.InputTokens, shape.OutputTokens),
					string(o.Kind), o.Rate, r.Summary.TTFT.P90, r.Summary.Attainment)
			}))
			if err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

// Fig17 reproduces the hardware-capacity robustness study (Fig. 17):
// Qwen3-32B + ORCAS-2K on 4, 6, and 8 GPUs with the paper's
// proportionally scaled CPU cores (§VI-E4).
func Fig17(cfg Config) (*Report, error) {
	gpuCounts := []int{4, 6, 8}
	if cfg.Quick {
		gpuCounts = []int{4, 8}
	}
	rep := &Report{}
	rep.Printf("Fig 17: robustness to hardware capacity (Qwen3-32B + ORCAS-2K)\n")
	t := rep.Table(
		col("GPUs", "", "gpus", ""),
		col("system", "", "system", ""),
		col("rate", "%.1f", "rate_rps", "%.1f"),
		col("attainment", "%.2f", "attainment", ""),
		col("E2E mean", "%.1fs", "e2e_mean_s", ""),
		col("rho", "%.3f", "rho", ""),
	)
	for _, g := range gpuCounts {
		node, err := hw.H100Node().WithGPUs(g)
		if err != nil {
			return nil, err
		}
		dep := deployment{Model: qwenH100().Model, Node: node}
		rates, _, err := ratesFor(dep, cfg.Quick)
		if err != nil {
			return nil, err
		}
		err = cfg.sweep(grid{
			dep: dep, spec: dataset.Orcas2K, rates: rates,
			kinds: []rag.Kind{rag.CPUOnly, rag.AllGPU, rag.VLiteRAG},
		}, single(func(_ string, o rag.Options, r *rag.Result) {
			t.Add(g, string(o.Kind), o.Rate, r.Summary.Attainment, r.Summary.E2E.Mean, r.Rho)
		}))
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}
