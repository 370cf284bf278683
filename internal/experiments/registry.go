package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/rag"
	"vectorliterag/internal/workload"
)

// hwNodeWithGPUs returns the H100 node scaled to the given GPU count
// with the paper's proportional CPU provisioning (§VI-E4).
func hwNodeWithGPUs(gpus int) (hw.Node, error) {
	return hw.H100Node().WithGPUs(gpus)
}

// Renderer is any experiment result that can print itself.
type Renderer interface {
	Render() string
}

// Runner executes one experiment.
type Runner func(Config) (Renderer, error)

// Registry maps experiment IDs to runners: one per table and figure of
// the paper's evaluation (fig3..fig17, tab1) plus the beyond-the-paper
// studies (ablations, cluster, adapt, ...) — see ARCHITECTURE.md
// "Adding a new serving scenario" for how to register more.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig3":      func(c Config) (Renderer, error) { return Fig3(c) },
		"fig4":      func(c Config) (Renderer, error) { return Fig4(c) },
		"fig5":      func(c Config) (Renderer, error) { return Fig5(c) },
		"fig6":      func(c Config) (Renderer, error) { return Fig6(c) },
		"fig8":      func(c Config) (Renderer, error) { return Fig8(c) },
		"fig9":      func(c Config) (Renderer, error) { return Fig9(c) },
		"fig10":     func(c Config) (Renderer, error) { return Fig10(c) },
		"fig11":     func(c Config) (Renderer, error) { return Fig11(c) },
		"fig12":     func(c Config) (Renderer, error) { return Fig12(c) },
		"fig13":     func(c Config) (Renderer, error) { return Fig13(c) },
		"fig14":     func(c Config) (Renderer, error) { return Fig14(c) },
		"fig15":     func(c Config) (Renderer, error) { return Fig15(c) },
		"fig16":     func(c Config) (Renderer, error) { return Fig16(c) },
		"fig17":     func(c Config) (Renderer, error) { return Fig17(c) },
		"tab1":      func(c Config) (Renderer, error) { return Table1(c) },
		"ablations": func(c Config) (Renderer, error) { return Ablations(c) },
		"cluster":   func(c Config) (Renderer, error) { return Cluster(c) },
		"adapt":     func(c Config) (Renderer, error) { return Adapt(c) },
		"tenants":   func(c Config) (Renderer, error) { return Tenants(c) },
		"overload":  func(c Config) (Renderer, error) { return Overload(c) },
		"faults":    func(c Config) (Renderer, error) { return Faults(c) },
		"ingest":    func(c Config) (Renderer, error) { return Ingest(c) },
		"precision": func(c Config) (Renderer, error) {
			return Precision(c)
		},
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

// Table1Result reproduces Table I: the SLO targets. The search SLOs are
// the paper's configuration inputs; the generation SLOs are derived on
// this substrate with the paper's methodology (latency at the model's
// throughput limit) and printed next to the paper's values.
type Table1Result struct {
	SearchSLOs map[string]time.Duration
	GenSLOs    map[string]time.Duration // measured here
	PaperGen   map[string]int           // paper's Table I, in ms
}

// Table1 assembles the SLO table.
func Table1(cfg Config) (*Table1Result, error) {
	res := &Table1Result{
		SearchSLOs: map[string]time.Duration{},
		GenSLOs:    map[string]time.Duration{},
		PaperGen:   map[string]int{},
	}
	for _, spec := range []dataset.Spec{dataset.WikiAll, dataset.Orcas1K, dataset.Orcas2K} {
		res.SearchSLOs[spec.Name] = spec.SLOSearch
	}
	for _, dep := range deployments() {
		slo, err := rag.GenSLO(dep.Node, dep.Model, workload.DefaultShape())
		if err != nil {
			return nil, err
		}
		res.GenSLOs[dep.Model.Name] = slo
		res.PaperGen[dep.Model.Name] = llm.SLOGen(dep.Model)
	}
	return res, nil
}

// Render formats Table I.
func (r *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table I: SLO targets\n")
	t := &table{header: []string{"vector index", "SLO_search"}}
	for _, name := range []string{dataset.WikiAll.Name, dataset.Orcas1K.Name, dataset.Orcas2K.Name} {
		t.add(name, ms(r.SearchSLOs[name]))
	}
	b.WriteString(t.String())
	t2 := &table{header: []string{"LLM", "SLO_LLM (measured)", "SLO_LLM (paper)"}}
	for _, name := range []string{llm.Llama3_8B.Name, llm.Qwen3_32B.Name, llm.Llama3_70B.Name} {
		t2.add(name, ms(r.GenSLOs[name]), fmt.Sprintf("%dms", r.PaperGen[name]))
	}
	b.WriteString(t2.String())
	return b.String()
}
