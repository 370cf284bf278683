// Package experiments contains one runner per table and figure of the
// paper's evaluation (§VI). Each runner regenerates the corresponding
// artifact on the simulated substrate — same workloads, same parameter
// sweeps, same metrics — as one Report: text lines and typed tables
// whose rows mirror what the paper plots (report.go), filled by the one
// sweep runner in this file. registry.go is the index of experiment IDs.
package experiments

import (
	"fmt"
	"time"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/memo"
	"vectorliterag/internal/rag"
	"vectorliterag/internal/workload"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks sweeps and durations for tests and benchmarks; the
	// full setting reproduces the paper's grids.
	Quick bool
	Seed  uint64

	// workers is the worker-goroutine count handed to every run. The
	// determinism tests vary it: cluster, live and multi-tenant artifacts
	// must be bit-identical for every value, whichever engine they take.
	workers int
}

// workloads and decisions are built once per process: physical index
// construction dominates experiment setup, and every figure reuses the
// same three datasets and the decisions made on them.
var (
	workloads memo.Cache[*dataset.Workload]
	decisions memo.Cache[*rag.Decision]
)

// WorkloadFor builds (or recalls) the default physical realization of a
// spec.
func WorkloadFor(spec dataset.Spec) (*dataset.Workload, error) {
	key := fmt.Sprintf("%s|%.2f|%.2f|%d", spec.Name, spec.SkewS, spec.QueryNoise, spec.NProbe)
	return workloads.Get(key, func() (*dataset.Workload, error) { return dataset.Build(spec, dataset.DefaultGen()) })
}

// decisionFor makes (or recalls) the decision a single-corpus run of o
// would make for itself. A decision reads no arrival rate and no
// run-time plane, so the key is o with those fields cleared (and the
// precision options by value): a field added to rag.Options splits the
// cache until it is cleared here, and never merges two decisions.
func decisionFor(o rag.Options) (*rag.Decision, error) {
	k := o
	k.Rate, k.Duration, k.Warmup, k.Drain, k.RateSchedule, k.Drift = 0, 0, 0, 0, nil, nil
	k.SLOGen, k.DisableDispatcher, k.Overload, k.Monitor, k.Ingest, k.Precision = 0, false, nil, nil, nil, nil
	k.Replicas, k.Policy, k.Workers, k.NetDelay, k.Faults, k.Resilience = 0, "", 0, 0, nil, nil
	key := fmt.Sprintf("%+v|%+v", k, o.Precision)
	return decisions.Get(key, func() (*rag.Decision, error) { return rag.Decide(o) })
}

// deployment pairs each model with its node, as in the paper (§V-A:
// Llama3-8B on the L40S node; Qwen3-32B and Llama3-70B on H100s).
type deployment struct {
	Model llm.ModelSpec
	Node  hw.Node
}

func deployments() []deployment {
	return []deployment{
		{llm.Llama3_8B, hw.L40SNode()},
		{llm.Qwen3_32B, hw.H100Node()},
		{llm.Llama3_70B, hw.H100Node()},
	}
}

// qwenH100 is the paper's middle configuration, Qwen3-32B on the H100
// node — the deployment every single-deployment study runs on.
func qwenH100() deployment { return deployments()[1] }

// capacity is the deployment's standalone LLM throughput at the default
// request shape (the vertical dashed lines of Fig. 11).
func (dep deployment) capacity() (float64, error) {
	return rag.BareCapacity(dep.Node, dep.Model, workload.DefaultShape())
}

// ratesFor returns the arrival-rate sweep for a deployment, scaled to
// its measured capacity like the paper's x-axes (which end just past
// the standalone-throughput line).
func ratesFor(dep deployment, quick bool) ([]float64, float64, error) {
	mu, err := dep.capacity()
	if err != nil {
		return nil, 0, err
	}
	fracs := []float64{0.4, 0.55, 0.7, 0.8, 0.87, 0.93, 0.98, 1.05}
	if quick {
		fracs = []float64{0.5, 0.8, 1.0}
	}
	return scaled(mu, fracs), mu, nil
}

// scaled returns mu times each fraction, rounded to 0.1 req/s.
func scaled(mu float64, fracs []float64) []float64 {
	rates := make([]float64, len(fracs))
	for i, f := range fracs {
		rates[i] = round1(mu * f)
	}
	return rates
}

func round1(v float64) float64 { return float64(int(v*10+0.5)) / 10 }

// runDuration returns the virtual arrival window per point.
func runDuration(quick bool) time.Duration {
	if quick {
		return 40 * time.Second
	}
	return 120 * time.Second
}

// arm is one named variant of a scenario: a single mutation of the base
// options every other arm shares.
type arm[O any] struct {
	name string
	mut  func(*O) // nil: the base options as they are
}

// eachArm is the one arm loop: it runs every arm on its own mutated
// copy of the base options and names the arm that failed.
func eachArm[O any](base O, arms []arm[O], run func(name string, o O) error) error {
	for _, a := range arms {
		o := base
		if a.mut != nil {
			a.mut(&o)
		}
		if err := run(a.name, o); err != nil {
			if a.name == "" {
				return err
			}
			return fmt.Errorf("%s arm: %w", a.name, err)
		}
	}
	return nil
}

// grid is one experiment's scenario space on one deployment and
// dataset: every (system, rate, arm) point. Axes that change the
// dataset or the deployment (model, node size) are the caller's outer
// loops.
type grid struct {
	dep   deployment
	spec  dataset.Spec
	kinds []rag.Kind // nil: vLiteRAG alone
	rates []float64
	base  func(*rag.Options) // what every arm shares beyond the point itself; may be nil
	arms  []arm[rag.Options] // nil: the base options alone
}

// sweep is the one runner, and the only place a (Config, deployment,
// workload, system, rate) tuple becomes a rag.Options: it walks the
// grid system by system, rate by rate, arm by arm, hands each point's
// options to run, and names the point that failed. An arm's mutation is
// applied last, after the grid's base, so it may override anything —
// the system included. A single corpus's point serves the decision
// decisionFor recalls, so each (system, arm) decides at most once, at
// its first rate; an arm that sets its own Decision is left alone.
func (cfg Config) sweep(g grid, run func(arm string, o rag.Options) error) error {
	w, err := WorkloadFor(g.spec)
	if err != nil {
		return err
	}
	kinds, arms := g.kinds, g.arms
	if kinds == nil {
		kinds = []rag.Kind{rag.VLiteRAG}
	}
	if arms == nil {
		arms = []arm[rag.Options]{{}}
	}
	point := func(name string, o rag.Options) (err error) {
		if o.Decision == nil && o.Tenants == nil {
			o.Decision, err = decisionFor(o)
		}
		if err == nil {
			err = run(name, o)
		}
		if err != nil {
			return fmt.Errorf("%s @%.1f rps: %w", o.Kind, o.Rate, err)
		}
		return nil
	}
	for _, kind := range kinds {
		for _, rate := range g.rates {
			o := rag.Options{
				Node: g.dep.Node, Model: g.dep.Model, W: w, Kind: kind,
				Rate: rate, Seed: cfg.Seed, Duration: runDuration(cfg.Quick),
				Workers: cfg.workers,
			}
			if g.base != nil {
				g.base(&o)
			}
			if err := eachArm(o, arms, point); err != nil {
				return err
			}
		}
	}
	return nil
}

// single adapts a row builder to sweep for the studies whose every
// point is one single-node rag.Run.
func single(row func(arm string, o rag.Options, r *rag.Result)) func(string, rag.Options) error {
	return func(arm string, o rag.Options) error {
		r, err := rag.Run(o)
		if err != nil {
			return err
		}
		row(arm, o, r)
		return nil
	}
}
