package serve

import (
	"fmt"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/retrieval"
	"vectorliterag/internal/workload"
)

// Arrivals is the pipeline source: an open-loop Poisson stream drawn
// from a workload's query distribution.
type Arrivals struct {
	gen *workload.Generator
}

// NewArrivals wraps a Poisson generator as a pipeline source.
func NewArrivals(w *dataset.Workload, rate float64, shape workload.Shape, seed uint64) *Arrivals {
	return &Arrivals{gen: workload.NewGenerator(w, rate, shape, seed)}
}

// NewScheduledArrivals wraps an inhomogeneous Poisson generator driven
// by a rate schedule (ramps, bursts, diurnal cycles) as a pipeline
// source.
func NewScheduledArrivals(w *dataset.Workload, sched workload.Schedule, shape workload.Shape, seed uint64) *Arrivals {
	return &Arrivals{gen: workload.NewScheduledGenerator(w, sched, shape, seed)}
}

// Start schedules arrivals on the simulator until the given deadline,
// feeding each request into the pipeline head at its arrival instant.
func (a *Arrivals) Start(sim *des.Sim, until des.Time, into Sink) {
	a.gen.Start(sim, until, into)
}

// SetTenant stamps every request this source emits with the tenant ID
// (multi-tenant runs start one source per tenant on a shared timeline).
func (a *Arrivals) SetTenant(id int) { a.gen.Tenant = id }

// SetAlloc installs the allocator the source draws its requests from:
// a workload.Arena's New, or a workload.Pool's Get — then the
// pipeline's terminal sink must release completed requests back into
// the pool (wire workload.Pool.Release last in the terminal Tee).
func (a *Arrivals) SetAlloc(alloc func() *workload.Request) { a.gen.Alloc = alloc }

// Admission is the front-door dispatch stage: it registers every
// arriving request with the collector and forwards it downstream. In a
// cluster composition its downstream neighbor is the Router, making it
// the single point where the request formally enters the system.
type Admission struct {
	coll *Collector
	next Sink
}

// Admit builds the admission stage bound to a collector.
func Admit(coll *Collector) Builder {
	return func(next Sink) (Stage, error) {
		if coll == nil {
			return nil, fmt.Errorf("serve: admission needs a collector")
		}
		return &Admission{coll: coll, next: next}, nil
	}
}

// Submit implements Stage.
func (a *Admission) Submit(req *workload.Request) {
	a.coll.Admit(req)
	a.next(req)
}

// Name implements Stage.
func (a *Admission) Name() string { return "admission" }

// Retrieval adapts a retrieval.Engine to the pipeline. The engine's
// Forward hook — fixed at engine construction — is the downstream sink,
// so the factory receives it from Compose.
type Retrieval struct {
	Engine retrieval.Engine
}

// RetrievalStage builds the retrieval stage from an engine factory; the
// factory receives the downstream sink to wire as the engine's Forward.
func RetrievalStage(makeEngine func(forward Sink) (retrieval.Engine, error)) Builder {
	return func(next Sink) (Stage, error) {
		eng, err := makeEngine(next)
		if err != nil {
			return nil, err
		}
		if eng == nil {
			return nil, fmt.Errorf("serve: retrieval factory returned nil engine")
		}
		return &Retrieval{Engine: eng}, nil
	}
}

// Submit implements Stage.
func (r *Retrieval) Submit(req *workload.Request) { r.Engine.Submit(req) }

// Name implements Stage.
func (r *Retrieval) Name() string { return "retrieval/" + r.Engine.Name() }

// AvgBatch reports the engine's mean dynamic batch size (Fig. 14).
func (r *Retrieval) AvgBatch() float64 { return r.Engine.AvgBatch() }

// Generation wraps an llm.Cluster as the generation stage; completed
// requests flow to the downstream sink via the cluster's done callback.
type Generation struct {
	Cluster *llm.Cluster
}

// GenerationStage builds the generation stage from a cluster factory.
func GenerationStage(makeCluster func() (*llm.Cluster, error)) Builder {
	return func(next Sink) (Stage, error) {
		cl, err := makeCluster()
		if err != nil {
			return nil, err
		}
		cl.SetCallbacks(nil, next)
		return &Generation{Cluster: cl}, nil
	}
}

// Submit implements Stage.
func (g *Generation) Submit(req *workload.Request) { g.Cluster.Submit(req) }

// Name implements Stage.
func (g *Generation) Name() string { return "generation" }

// GPUs returns the number of GPUs the stage's LLM instances occupy.
func (g *Generation) GPUs(tp int) int { return len(g.Cluster.Instances) * tp }
