package experiments

import (
	"time"

	"vectorliterag/internal/adapt"
	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/hitrate"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/partition"
	"vectorliterag/internal/perfmodel"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/splitter"
)

// Fig9 reproduces Fig. 9: time to rebuild the GPU index shards with
// updated access data, broken into profiling / algorithm / splitting /
// loading, for the paper's six (dataset, SLO) bars.
func Fig9(cfg Config) (*Report, error) {
	cases := []struct {
		spec dataset.Spec
		slos []time.Duration
	}{
		{dataset.WikiAll, []time.Duration{100 * time.Millisecond, 150 * time.Millisecond}},
		{dataset.Orcas1K, []time.Duration{150 * time.Millisecond, 200 * time.Millisecond}},
		{dataset.Orcas2K, []time.Duration{200 * time.Millisecond, 300 * time.Millisecond}},
	}
	node := hw.H100Node()
	rep := &Report{}
	rep.Printf("Fig 9: index rebuild time breakdown (background update cycle)\n")
	t := rep.Table(
		col("dataset", "", "dataset", ""),
		col("SLO", "%.0fms", "slo_search_s", ""),
		col("rho", "%.3f", "rho", ""),
		col("profiling", "%.1fs", "profiling_s", ""),
		col("algorithm", "%.1fs", "algorithm_s", ""),
		col("splitting", "%.1fs", "splitting_s", ""),
		col("loading", "%.1fs", "loading_s", ""),
		col("total", "%.1fs", "total_s", ""),
	)
	for _, c := range cases {
		w, err := WorkloadFor(c.spec)
		if err != nil {
			return nil, err
		}
		prof, err := profiler.CollectAccess(w, profiler.CalibrationQueries, cfg.Seed+9)
		if err != nil {
			return nil, err
		}
		est, err := hitrate.NewEstimator(prof)
		if err != nil {
			return nil, err
		}
		perf, err := perfmodel.Fit(profiler.ProfileLatency(costmodel.NewSearchModel(node.CPU, c.spec), profiler.DefaultBatches()))
		if err != nil {
			return nil, err
		}
		for _, slo := range c.slos {
			part, err := partition.LatencyBounded(partition.Inputs{
				SLOSearch: slo, Perf: perf, Est: est,
				MemKV: 300 << 30, Mu0: 38,
				IndexBytesAt: splitter.IndexBytesAt(prof),
			})
			if err != nil {
				return nil, err
			}
			plan, err := splitter.Build(prof, part.Rho, node.NumGPUs)
			if err != nil {
				return nil, err
			}
			timing := adapt.EstimateRebuild(node, c.spec, plan, part.Iterations)
			t.Add(c.spec.Name, slo, part.Rho, timing.Profiling, timing.Algorithm,
				timing.Splitting, timing.Loading, timing.Total())
		}
	}
	return rep, nil
}

// Fig10 reproduces Fig. 10 — predicted vs measured hybrid search latency
// (left) and tail (batch-minimum) hit rate (right) across batch sizes,
// for all three datasets — and so validates the performance model:
// predictions come from the fitted perf model + Beta estimator;
// measurements replay real query batches against the hot set and price
// them with the cost model exactly as the hybrid engine would.
func Fig10(cfg Config) (*Report, error) {
	const coverage = 0.15
	trials := 400
	if cfg.Quick {
		trials = 80
	}
	r := rng.New(cfg.Seed + 10)
	node := hw.H100Node()
	rep := &Report{}
	rep.Printf("Fig 10: performance-model validation at 15%% coverage\n")
	t := rep.Table(
		col("dataset", "", "dataset", ""),
		col("batch", "", "batch", ""),
		col("pred latency", "%.0fms", "pred_latency_s", ""),
		col("meas latency", "%.0fms", "meas_latency_s", ""),
		col("pred tail hit", "%.3f", "pred_tail_hit", ""),
		col("meas tail hit", "%.3f", "meas_tail_hit", ""),
	)
	for _, spec := range []dataset.Spec{dataset.WikiAll, dataset.Orcas1K, dataset.Orcas2K} {
		w, err := WorkloadFor(spec)
		if err != nil {
			return nil, err
		}
		prof, err := profiler.CollectAccess(w, profiler.CalibrationQueries, cfg.Seed+101)
		if err != nil {
			return nil, err
		}
		est, err := hitrate.NewEstimator(prof)
		if err != nil {
			return nil, err
		}
		sm := costmodel.NewSearchModel(node.CPU, spec)
		perf, err := perfmodel.Fit(profiler.ProfileLatency(sm, profiler.DefaultBatches()))
		if err != nil {
			return nil, err
		}
		k := est.Clusters(coverage)
		mask := prof.HotMask(k)
		for _, batch := range []int{1, 4, 7, 10, 13} {
			// Measurement: replay fresh batches.
			var sumLat, sumMin float64
			for trial := 0; trial < trials; trial++ {
				var missBytes int64
				minHit := 1.0
				for i := 0; i < batch; i++ {
					q := w.Sample(r)
					hit := w.WorkHitRate(q, mask)
					if hit < minHit {
						minHit = hit
					}
					for _, c := range w.Probes(q) {
						if !mask[c] {
							missBytes += w.ScanBytes(q, []int{c})
						}
					}
				}
				lat := sm.CQTime(batch) + sm.LUTTime(missBytes, batch)
				sumLat += lat.Seconds()
				sumMin += minHit
			}
			predTail := est.MinHitRate(coverage, batch)
			t.Add(spec.Name, batch, perf.HybridTime(batch, predTail),
				time.Duration(sumLat/float64(trials)*1e9), predTail, sumMin/float64(trials))
		}
	}
	return rep, nil
}
