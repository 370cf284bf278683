package experiments

import (
	"time"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/rag"
)

// The §VI-D replication uses two different index builds, as the paper
// does: HedraRAG runs on its own sqrt(N)-cluster index (nlist≈12k,
// nprobe=256 — the setting where the paper measures 35 RPS CPU-only
// retrieval), whose coarse clusters flatten per-cluster access skew to
// Wiki-All-like levels; VectorLiteRAG keeps its fine 131k-cluster index
// and raises nprobe to 6144 to match retrieval accuracy.

// hedraIndexSpec is HedraRAG's sqrt(N)-cluster build.
func hedraIndexSpec() dataset.Spec {
	s := dataset.Orcas1K
	s.Name = "ORCAS 1K (sqrtN clusters)"
	s.NList = 12288
	s.NProbe = 256
	s.SLOSearch = 400 * time.Millisecond
	s.SkewS = dataset.WikiAll.SkewS
	s.QueryNoise = dataset.WikiAll.QueryNoise
	return s
}

// vliteHeavySpec is VectorLiteRAG's accuracy-matched configuration.
func vliteHeavySpec() dataset.Spec {
	s := dataset.Orcas1K
	s.Name = "ORCAS 1K (nprobe 6144)"
	s.NProbe = 6144
	s.SLOSearch = 400 * time.Millisecond
	return s
}

// Fig13 reproduces the HedraRAG comparison (Fig. 13): TTFT and E2E
// latency across arrival rates, plus the two partitioning points, each
// system on its own index build.
func Fig13(cfg Config) (*Report, error) {
	dep := qwenH100()
	rates, _, err := ratesFor(dep, cfg.Quick)
	if err != nil {
		return nil, err
	}
	t := &Table{Cols: []Col{
		col("system", "", "system", ""),
		col("rate", "%.1f", "rate_rps", "%.1f"),
		col("TTFT p90", "%.0fms", "ttft_p90_s", ""),
		col("E2E mean", "%.1fs", "e2e_mean_s", ""),
		col("attainment", "%.2f", "attainment", ""),
		csvCol("rho", ""),
	}}
	for _, sys := range []struct {
		kind rag.Kind
		spec dataset.Spec
	}{
		{rag.HedraRAG, hedraIndexSpec()},
		{rag.VLiteRAG, vliteHeavySpec()},
	} {
		err := cfg.sweep(grid{
			dep: dep, spec: sys.spec, kinds: []rag.Kind{sys.kind}, rates: rates,
			base: func(o *rag.Options) { o.SLOSearch = 400 * time.Millisecond },
		}, single(func(_ string, o rag.Options, r *rag.Result) {
			t.Add(string(o.Kind), o.Rate, r.Summary.TTFT.P90, r.Summary.E2E.Mean, r.Summary.Attainment, r.Rho)
		}))
		if err != nil {
			return nil, err
		}
	}
	// The partitioning line prints above the table it is read from.
	rep := &Report{}
	rep.Printf("Fig 13: comparison with HedraRAG (sqrt(N)-cluster setting, SLO_search=400ms)\n")
	rep.Printf("partitioning points: HedraRAG rho=%.3f (paper 0.73), vLiteRAG rho=%.3f (paper 0.315)\n",
		t.Row("system", string(rag.HedraRAG)).Float("rho"), t.Row("system", string(rag.VLiteRAG)).Float("rho"))
	rep.add(t)
	return rep, nil
}

// Fig16 reproduces the SLO_search sensitivity study (Fig. 16) — one
// (SLO, system, rate) sample per row, SLO_search swept over
// {100,150,200,250} ms on Qwen3-32B + ORCAS-1K — and Table II, the
// per-GPU memory split per SLO.
func Fig16(cfg Config) (*Report, error) {
	dep := qwenH100()
	slos := []time.Duration{100 * time.Millisecond, 150 * time.Millisecond, 200 * time.Millisecond, 250 * time.Millisecond}
	if cfg.Quick {
		slos = []time.Duration{100 * time.Millisecond, 250 * time.Millisecond}
	}
	rates, _, err := ratesFor(dep, cfg.Quick)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	rep.Printf("Fig 16: P95 (and P90) TTFT under different SLO_search targets (Qwen3-32B + ORCAS-1K)\n")
	curves := rep.Table(
		col("SLO_search", "%.0fms", "slo_search_ms", "%.0f"),
		col("system", "", "system", ""),
		col("rate", "%.1f", "rate_rps", "%.1f"),
		col("TTFT p95", "%.0fms", "ttft_p95_s", ""),
		col("TTFT p90", "%.0fms", "ttft_p90_s", ""),
	)
	rep.Printf("\nTable II: SLO targets and per-GPU memory split (vLiteRAG)\n")
	split := rep.Table(
		col("SLO (ms)", "%.0f", "slo_search_ms", "%.0f"),
		col("Index (GB)", "%.2f", "index_gb", ""),
		col("Param (GB)", "%.2f", "param_gb", ""),
		col("KV Cache (GB)", "%.2f", "kv_cache_gb", ""),
		col("rho", "%.3f", "rho", ""),
	)
	for _, slo := range slos {
		sloMS := slo.Seconds() * 1000
		err := cfg.sweep(grid{
			dep: dep, spec: dataset.Orcas1K, rates: rates,
			kinds: []rag.Kind{rag.CPUOnly, rag.AllGPU, rag.VLiteRAG},
			base:  func(o *rag.Options) { o.SLOSearch = slo },
		}, single(func(_ string, o rag.Options, r *rag.Result) {
			curves.Add(sloMS, string(o.Kind), o.Rate, r.Summary.TTFT.P95, r.Summary.TTFT.P90)
			if o.Kind == rag.VLiteRAG && o.Rate == rates[0] {
				// The Table-II memory split reads vLiteRAG's decision,
				// which every rate shares.
				weights := float64(dep.Model.WeightBytesPerGPU())
				perGPUShard := float64(r.PlanBytes) / float64(dep.Node.NumGPUs)
				kv := float64(dep.Model.KVBytesPerGPU(dep.Node.GPU)) - perGPUShard
				split.Add(sloMS, perGPUShard/1e9, weights/1e9, kv/1e9, r.Rho)
			}
		}))
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}
