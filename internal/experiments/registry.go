package experiments

import (
	"fmt"
	"sort"
	"strings"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/rag"
	"vectorliterag/internal/workload"
)

// Runner executes one experiment.
type Runner func(Config) (*Report, error)

// Registry maps experiment IDs to runners: one per table and figure of
// the paper's evaluation (fig3..fig17, tab1) plus the beyond-the-paper
// studies (ablations, cluster, adapt, ...) — see ARCHITECTURE.md
// "Adding a new serving scenario" for how to register more.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig3":      Fig3,
		"fig4":      Fig4,
		"fig5":      Fig5,
		"fig6":      Fig6,
		"fig8":      Fig8,
		"fig9":      Fig9,
		"fig10":     Fig10,
		"fig11":     Fig11,
		"fig12":     Fig12,
		"fig13":     Fig13,
		"fig14":     Fig14,
		"fig15":     Fig15,
		"fig16":     Fig16,
		"fig17":     Fig17,
		"tab1":      Table1,
		"ablations": Ablations,
		"cluster":   Cluster,
		"adapt":     Adapt,
		"tenants":   Tenants,
		"overload":  Overload,
		"faults":    Faults,
		"ingest":    Ingest,
		"precision": Precision,
	}
}

// Names returns registered experiment IDs in sorted order.
func Names() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for k := range reg {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Lookup resolves an experiment ID, or returns an error that lists
// every valid ID so a CLI typo is self-correcting.
func Lookup(id string) (Runner, error) {
	if r, ok := Registry()[id]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("unknown experiment %q; valid ids:\n  %s",
		id, strings.Join(Names(), "\n  "))
}

// Table1 reproduces Table I: the SLO targets. The search SLOs are the
// paper's configuration inputs; the generation SLOs are derived on this
// substrate with the paper's methodology (latency at the model's
// throughput limit) and printed next to the paper's values.
func Table1(cfg Config) (*Report, error) {
	rep := &Report{}
	rep.Printf("Table I: SLO targets\n")
	search := rep.Table(
		col("vector index", "", "vector_index", ""),
		col("SLO_search", "%.0fms", "slo_search_s", ""),
	)
	for _, spec := range []dataset.Spec{dataset.WikiAll, dataset.Orcas1K, dataset.Orcas2K} {
		search.Add(spec.Name, spec.SLOSearch)
	}
	gen := rep.Table(
		col("LLM", "", "llm", ""),
		col("SLO_LLM (measured)", "%.0fms", "slo_llm_measured_s", ""),
		col("SLO_LLM (paper)", "%dms", "slo_llm_paper_ms", ""),
	)
	for _, dep := range deployments() {
		slo, err := rag.GenSLO(dep.Node, dep.Model, workload.DefaultShape())
		if err != nil {
			return nil, err
		}
		gen.Add(dep.Model.Name, slo, llm.SLOGen(dep.Model))
	}
	return rep, nil
}
