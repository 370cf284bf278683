package experiments

import (
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/rag"
	"vectorliterag/internal/serve"
)

// Precision is the joint placement x precision study (beyond the
// paper's all-PQ evaluation): the same cluster, load, and arrival
// stream served three ways — the HBM-only baseline with the full index
// in GPU memory, vLiteRAG's placement-only split, and the split
// refined with per-cluster (tier, codec) choices: the hottest placed
// clusters upgraded from PQ to SQ8 codes inside the HBM the placement
// loop left to the KV pool, and the coldest CPU-resident clusters
// demoted to the modeled NVMe tier. The artifact is a recall-vs-
// attainment table: the refinement buys recall points AND attainment
// at the same memory budget, because SQ8 scans stream gather-free at
// near raw HBM bandwidth while PQ scans are LUT-gather bound.
//
// It runs on ORCAS-1K + Qwen3-32B — the dataset whose 52 GB logical
// index forces a real placement decision on the H100 node, so the
// precision refinement has a leftover budget to spend and a CPU cold
// path to demote from. Every arm executes on the parallel sharded
// cluster engine (NetDelay is explicit), whose merged schedule is a
// pure function of the options — the artifact is bit-identical for
// every worker count.
func Precision(cfg Config) (*Report, error) {
	dep := qwenH100()
	const replicas = 2
	mu, err := dep.capacity()
	if err != nil {
		return nil, err
	}
	muCluster := mu * float64(replicas) // cluster-wide bare LLM capacity, req/s
	fracs := []float64{0.6, 0.75, 0.9}
	if cfg.Quick {
		fracs = []float64{0.75}
	}
	rep := &Report{}
	rep.Printf("Joint placement x precision: %s + %s, %d replicas (cluster capacity %.1f req/s)\n",
		dataset.Orcas1K.Name, dep.Model.Name, replicas, muCluster)
	rep.Printf("same HBM budget per arm: the refinement spends only bytes the placement loop left to the KV pool\n\n")
	t := rep.Table(
		col("arm", "", "arm", ""),
		col("rate", "%.1f", "rate", "%.1f"),
		col("attainment", "%.3f", "attainment", ""),
		csvCol("requests", ""),
		col("ttft p90", "%.0fms", "ttft_p90_s", ""),
		col("search p90", "%.0fms", "search_p90_s", ""),
		col("rho", "%.3f", "rho", ""),
		col("plan GB", "%.1f", "plan_gb", ""),             // GPU-resident index bytes, cluster-wide per node
		col("sq8", "", "sq8_clusters", ""),                // clusters upgraded to SQ8
		col("nvme", "", "nvme_clusters", ""),              // clusters demoted to the NVMe tier
		col("recall +pts", "%.2f", "recall_gain_pts", ""), // served mean per-query recall gain
	)
	err = cfg.sweep(grid{
		dep: dep, spec: dataset.Orcas1K, rates: scaled(muCluster, fracs),
		base: func(o *rag.Options) {
			o.Replicas, o.Policy, o.NetDelay = replicas, serve.RoundRobin, rag.DefaultNetDelay
		},
		arms: []arm[rag.Options]{
			{"hbm-only", func(o *rag.Options) { o.Kind = rag.AllGPU }},
			{name: "placement"},
			{"placement+precision", func(o *rag.Options) { o.Precision = &rag.PrecisionOptions{} }},
		},
	}, func(name string, o rag.Options) error {
		r, err := rag.Run(o)
		if err != nil {
			return err
		}
		t.Add(name, o.Rate, r.Summary.Attainment, r.Summary.N, r.Summary.TTFT.P90, r.Summary.Search.P90,
			r.Rho, float64(r.PlanBytes)/1e9, r.SQClusters, r.NVMeClusters, 100*r.RecallGain)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, rate := range scaled(muCluster, fracs) {
		place, prec := t.Row("arm", "placement", "rate", rate), t.Row("arm", "placement+precision", "rate", rate)
		if place.Float("attainment") <= 0 {
			continue
		}
		rep.Printf("\n@%.1f req/s: precision holds %.1f%% of placement-only attainment and buys +%.2f recall pts",
			rate, 100*prec.Float("attainment")/place.Float("attainment"), prec.Float("recall +pts"))
		if prec.Float("attainment") >= place.Float("attainment") {
			rep.Printf(" ✓")
		}
	}
	rep.Printf("\n")
	return rep, nil
}
