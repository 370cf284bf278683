package experiments

import (
	"fmt"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/hitrate"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/stats"
	"vectorliterag/internal/workload"
)

// fig3Spec is the 128M-vector index of the paper's motivation
// microbenchmarks (§II-B, Fig. 3/4): ORCAS-class geometry at 128M
// vectors.
func fig3Spec() dataset.Spec {
	s := dataset.Orcas1K
	s.Name = "128M microbench"
	s.NVectors = 128_000_000
	return s
}

// Fig3 reproduces Fig. 3: IVF fast-scan latency normalized to standard
// IVF at each batch size (left; paper: ~0.2) and the stage breakdown of
// IVF fast scan (right).
func Fig3(cfg Config) (*Report, error) {
	fs := costmodel.NewSearchModel(hw.Xeon8462Y(), fig3Spec())
	std := fs
	std.FastScan = false
	rep := &Report{}
	rep.Printf("Fig 3 (left): IVF-FS latency normalized to standard IVF\n")
	left := rep.Table(
		col("batch", "", "batch", ""),
		textCol("IVF", ""),
		col("IVF-FS", "%.2f", "ivf_fs_normalized", ""),
	)
	for _, b := range []int{4, 16} {
		left.Add(b, "1.00", float64(fs.SearchTime(b))/float64(std.SearchTime(b)))
	}
	rep.Printf("\nFig 3 (right): IVF-FS breakdown on 128M index\n")
	right := rep.Table(
		col("batch", "", "batch", ""),
		col("CQ", "%.0fms", "cq_s", ""),
		col("LUT-build", "%.0fms", "lut_build_s", ""),
		col("LUT-scan", "%.0fms", "lut_scan_s", ""),
		col("total", "%.0fms", "total_s", ""),
	)
	for _, b := range []int{2, 8} {
		br := fs.SearchBreakdown(b)
		right.Add(b, br.CQ, br.LUTBuild, br.LUTScan, br.Total())
	}
	return rep, nil
}

// Fig4 reproduces Fig. 4: CPU fast-scan vs GPU IVF search (left) and
// LLM throughput, normalized to the full-KV throughput, vs relative KV
// space (right). The right panel serves Qwen3-30B-class work on two
// H100s as in the paper's figure caption.
func Fig4(cfg Config) (*Report, error) {
	spec := fig3Spec()
	cpu := costmodel.NewSearchModel(hw.Xeon8462Y(), spec)
	g := costmodel.GPUScanModel{GPU: hw.H100()}
	// The GPU bar is a standalone Faiss-GPU IVF search: coarse
	// quantization also runs on-device at HBM rates, so its cost is
	// folded into the kernel term rather than the CPU CQ curve.
	cpuSearch := cpu.SearchTime(4)
	gpuSearch := g.ShardScanTime(4*cpu.QueryScanBytes(), 4*spec.NProbe)
	rep := &Report{}
	rep.Printf("Fig 4 (left): search time on 128M index — CPU fast scan %s vs GPU %s (%.1fx)\n",
		format("%.0fms", cpuSearch, false), format("%.0fms", gpuSearch, false), float64(cpuSearch)/float64(gpuSearch))
	rep.Table(csvCol("cpu_search_s", ""), csvCol("gpu_search_s", "")).Add(cpuSearch, gpuSearch)

	node := hw.H100Node()
	node.NumGPUs = 2
	model := llm.Qwen3_32B
	fracs := []float64{0.05, 0.1, 0.2, 0.4, 0.7, 1.0}
	if cfg.Quick {
		fracs = []float64{0.1, 0.4, 1.0}
	}
	baselineFree := model.KVBytesPerGPU(node.GPU)
	throughput := make([]float64, len(fracs))
	for i, f := range fracs {
		states := gpu.NewStates(node)
		shard := int64(float64(baselineFree) * (1 - f))
		for _, s := range states {
			s.ShardBytes = shard
		}
		mu, err := llm.MeasureCapacity(node, model, states, workload.DefaultShape(), llm.DefaultEngineConfig())
		if err != nil {
			return nil, err
		}
		throughput[i] = mu
	}
	rep.Printf("\nFig 4 (right): normalized LLM throughput vs relative KV space\n")
	right := rep.Table(
		col("rel KV", "%.2f", "rel_kv", ""),
		col("norm throughput", "%.2f", "norm_throughput", ""),
	)
	base := throughput[len(fracs)-1]
	for i, f := range fracs {
		if base > 0 {
			throughput[i] /= base
		}
		right.Add(f, throughput[i])
	}
	return rep, nil
}

// Fig5 reproduces Fig. 5: the cluster access-frequency CDF — the
// cumulative access share of the top fraction of clusters, printed at
// decile points and exported per cluster rank — and the headline
// number, the share carried by the top 20%.
func Fig5(cfg Config) (*Report, error) {
	n := 20000
	if cfg.Quick {
		n = 4000
	}
	r := rng.New(cfg.Seed + 5)
	specs := []dataset.Spec{dataset.WikiAll, dataset.Orcas1K}
	var share [2][]float64
	var top20 [2]float64
	rep := &Report{}
	cdf := rep.Table(
		csvCol("dataset", ""),
		csvCol("cluster_percentile", "%.4f"),
		csvCol("cumulative_share", "%.6f"),
		dataCol("top20"),
	)
	for i, spec := range specs {
		w, err := WorkloadFor(spec)
		if err != nil {
			return nil, err
		}
		counts := w.AccessCounts(w.SampleMany(r, n))
		weights := make([]float64, len(counts))
		for c, cnt := range counts {
			weights[c] = float64(cnt) * float64(w.Index.ClusterSize(c))
		}
		share[i] = stats.CDFPoints(weights)
		top20[i] = stats.ShareOfTopFraction(weights, 0.20)
		for rank, s := range share[i] {
			cdf.Add(spec.Name, float64(rank+1)/float64(len(share[i])), s, top20[i])
		}
	}
	rep.Printf("Fig 5: CDF of cluster access frequency (share of distance computations)\n")
	deciles := rep.Table(
		textCol("cluster percentile", "%d%%"),
		textCol(specs[0].Name, "%.3f"),
		textCol(specs[1].Name, "%.3f"),
	)
	for _, pct := range []int{5, 10, 20, 30, 50, 75, 100} {
		at := func(share []float64) float64 {
			return share[max(int(float64(pct)/100*float64(len(share)))-1, 0)]
		}
		deciles.Add(pct, at(share[0]), at(share[1]))
	}
	rep.Printf("top-20%% share: %s=%.3f (paper ~0.59), %s=%.3f (paper ~0.93)\n",
		specs[0].Name, top20[0], specs[1].Name, top20[1])
	return rep, nil
}

// Fig6 reproduces Fig. 6: the per-query hit-rate distribution at 5/10/20 %
// cache coverage, one violin summary per row.
func Fig6(cfg Config) (*Report, error) {
	n := 8000
	if cfg.Quick {
		n = 2000
	}
	r := rng.New(cfg.Seed + 6)
	rep := &Report{}
	rep.Printf("Fig 6: per-query hit-rate distribution vs cache coverage\n")
	t := rep.Table(
		col("dataset", "", "dataset", ""),
		col("coverage", "%d%%", "coverage_pct", ""),
		col("median", "%.2f", "median", ""),
		textCol("IQR", ""),
		csvCol("p25", ""),
		csvCol("p75", ""),
		col("min", "%.2f", "min", ""),
		col("max", "%.2f", "max", ""),
		col("mean", "%.2f", "mean", ""),
	)
	for _, spec := range []dataset.Spec{dataset.WikiAll, dataset.Orcas1K} {
		w, err := WorkloadFor(spec)
		if err != nil {
			return nil, err
		}
		prof, err := profiler.CollectAccess(w, n, cfg.Seed+61)
		if err != nil {
			return nil, err
		}
		test := w.SampleMany(r, n)
		for _, pct := range []int{5, 10, 20} {
			mask := prof.HotMask(int(float64(pct)/100*float64(w.Index.NList()) + 0.5))
			rates := make([]float64, len(test))
			for i, q := range test {
				rates[i] = w.HitRate(q, mask) // count-based, as in Fig. 6
			}
			s := stats.Summarize(rates)
			t.Add(spec.Name, pct, s.Median, fmt.Sprintf("[%.2f,%.2f]", s.P25, s.P75), s.P25, s.P75, s.Min, s.Max, s.Mean)
		}
	}
	return rep, nil
}

// Fig8 reproduces Fig. 8: the ORCAS-class CPU search latency vs batch
// size (left), and on Wiki-All, the paper's right-panel dataset, the
// empirical hit-rate variance beside the 4*sigmaMax2*m(1-m) model at
// each measured mean (right).
func Fig8(cfg Config) (*Report, error) {
	sm := costmodel.NewSearchModel(hw.Xeon8462Y(), dataset.Orcas1K)
	rep := &Report{}
	rep.Printf("Fig 8 (left): CPU search latency vs batch size (ORCAS-1K class)\n")
	left := rep.Table(
		col("batch", "", "batch", ""),
		col("CQ", "%.0fms", "cq_s", ""),
		col("LUT", "%.0fms", "lut_s", ""),
		col("search", "%.0fms", "search_s", ""),
	)
	for b := 1; b <= 32; b += 3 {
		left.Add(b, sm.CQTime(b), sm.LUTTime(int64(b)*sm.QueryScanBytes(), b), sm.SearchTime(b))
	}
	w, err := WorkloadFor(dataset.WikiAll)
	if err != nil {
		return nil, err
	}
	n := 6000
	if cfg.Quick {
		n = 1500
	}
	prof, err := profiler.CollectAccess(w, n, cfg.Seed+8)
	if err != nil {
		return nil, err
	}
	est, err := hitrate.NewEstimator(prof)
	if err != nil {
		return nil, err
	}
	rep.Printf("\nFig 8 (right): hit-rate variance vs mean (Wiki-All)\n")
	right := rep.Table(
		col("mean", "%.3f", "mean", "%.6f"),
		col("empirical var", "%.4f", "empirical_var", "%.6f"),
		col("4*s2max*m(1-m)", "%.4f", "model_var", "%.6f"),
	)
	nlist := w.Index.NList()
	for k := 2; k < nlist; k += nlist / 12 {
		mean := est.MeanHitRate(float64(k) / float64(nlist))
		if mean < 0.02 || mean > 0.98 {
			continue
		}
		right.Add(mean, est.EmpiricalVariance(prof, k), est.Variance(mean))
	}
	return rep, nil
}
