package experiments

import (
	"fmt"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/rag"
	"vectorliterag/internal/serve"
)

// Cluster is the multi-replica scale-out study (beyond the paper): N
// identical vLiteRAG node pipelines behind a front-end router on
// ORCAS-1K + Qwen3-32B, driven at a cluster-wide rate of 80 % of
// per-node capacity per replica. Near-flat attainment across N shows
// the composition scales; the round-robin vs least-loaded split
// isolates what routing buys under Poisson load.
func Cluster(cfg Config) (*Report, error) {
	dep := qwenH100()
	mu, err := dep.capacity()
	if err != nil {
		return nil, err
	}
	perNode := round1(mu * 0.8)
	sizes := []int{1, 2, 4}
	if cfg.Quick {
		sizes = []int{1, 2}
	}
	rep := &Report{}
	rep.Printf("Cluster scale-out: vLiteRAG x N replicas, ORCAS-1K + Qwen3-32B @ 0.8 capacity/replica\n")
	t := rep.Table(
		col("replicas", "", "replicas", ""),
		col("policy", "", "policy", ""),
		col("rate", "%.1f", "rate_rps", "%.1f"), // cluster-wide arrival rate
		col("attainment", "%.2f", "attainment", ""),
		col("TTFT p90", "%.0fms", "ttft_p90_s", ""),
		col("E2E p90", "%.1fs", "e2e_p90_s", ""),
		col("max skew", "%.3f", "max_skew", ""), // max over replicas of its share minus the fair share
	)
	for _, n := range sizes {
		var policies []arm[rag.Options]
		for _, policy := range serve.Policies() {
			if n == 1 && policy != serve.LeastLoaded {
				continue // a single replica routes identically under any policy
			}
			policies = append(policies, arm[rag.Options]{name: string(policy)})
		}
		err := cfg.sweep(grid{dep: dep, spec: dataset.Orcas1K, rates: []float64{perNode * float64(n)}, arms: policies},
			func(policy string, o rag.Options) error {
				o.Replicas, o.Policy = n, serve.Policy(policy)
				r, err := rag.Run(o)
				if err != nil {
					return err
				}
				maxSkew, fair := 0.0, 1.0/float64(n)
				for _, replica := range r.PerReplica {
					maxSkew = max(maxSkew, float64(replica.Submitted)/float64(r.Generated)-fair)
				}
				t.Add(n, policy, o.Rate, r.Summary.Attainment, r.Summary.TTFT.P90, r.Summary.E2E.P90, maxSkew)
				return nil
			})
		if err != nil {
			return nil, fmt.Errorf("cluster x%d: %w", n, err)
		}
	}
	return rep, nil
}
