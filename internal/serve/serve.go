// Package serve is the composable serving-pipeline layer: it models a
// RAG deployment as an explicit chain of stages over the discrete-event
// simulator — an Arrivals source, an Admission stage, a retrieval
// stage, a Generation stage wrapping the LLM cluster, and a Collector
// sink — the stage-graph framing RAG-Stack and HedraRAG use for RAG
// serving, applied to this reproduction's simulator substrate.
//
// Each baseline system (CPU-Only, DED-GPU, ALL-GPU, vLiteRAG, HedraRAG)
// is a declarative composition of these stages; internal/rag supplies
// the per-system resource layout (GPU memory split, engine choice, LLM
// placement) and delegates execution here. Multi-node scenarios reuse
// the same pieces: a Router stage fans requests out to N independent
// replica pipelines under a round-robin or least-loaded policy.
//
// Construction runs back-to-front: Compose builds the last stage first
// and hands each stage its downstream neighbor's Submit as the forward
// hook, which is exactly the wiring the retrieval engines need (their
// Forward callback is fixed at construction).
package serve

import (
	"fmt"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/workload"
)

// Sink consumes a request at the current virtual instant. Stage outputs
// and terminal collectors are both Sinks.
type Sink func(*workload.Request)

// Tee fans one request out to several sinks in order.
func Tee(sinks ...Sink) Sink {
	return func(req *workload.Request) {
		for _, s := range sinks {
			s(req)
		}
	}
}

// Stage is one station of the serving pipeline: requests enter through
// Submit and leave through the downstream sink the stage was built
// with. Stages schedule their service time on the shared simulator.
type Stage interface {
	Submit(req *workload.Request)
	Name() string
}

// Builder constructs a stage bound to its downstream sink.
type Builder func(next Sink) (Stage, error)

// Pipeline is a linear chain of stages ending in a terminal sink.
type Pipeline struct {
	Sim    *des.Sim
	stages []Stage // upstream first
	head   Sink
}

// Compose builds a pipeline from stage builders, back to front, so each
// stage receives its downstream neighbor's Submit as the forward hook.
// A nil terminal sink discards completed requests.
func Compose(sim *des.Sim, terminal Sink, builders ...Builder) (*Pipeline, error) {
	if sim == nil {
		return nil, fmt.Errorf("serve: nil simulator")
	}
	if len(builders) == 0 {
		return nil, fmt.Errorf("serve: empty pipeline")
	}
	next := terminal
	if next == nil {
		next = func(*workload.Request) {}
	}
	stages := make([]Stage, len(builders))
	for i := len(builders) - 1; i >= 0; i-- {
		st, err := builders[i](next)
		if err != nil {
			return nil, fmt.Errorf("serve: stage %d: %w", i, err)
		}
		stages[i] = st
		next = st.Submit
	}
	return &Pipeline{Sim: sim, stages: stages, head: next}, nil
}

// Submit feeds a request into the pipeline's first stage.
func (p *Pipeline) Submit(req *workload.Request) { p.head(req) }

// Stages returns the pipeline's stages, upstream first.
func (p *Pipeline) Stages() []Stage { return p.stages }

// Retrieval returns the pipeline's retrieval stage, or nil.
func (p *Pipeline) Retrieval() *Retrieval {
	for _, st := range p.stages {
		if r, ok := st.(*Retrieval); ok {
			return r
		}
	}
	return nil
}

// Generation returns the pipeline's generation stage, or nil.
func (p *Pipeline) Generation() *Generation {
	for _, st := range p.stages {
		if g, ok := st.(*Generation); ok {
			return g
		}
	}
	return nil
}

// Run drives the arrival source into the pipeline for the given virtual
// window and then lets the simulation drain.
func (p *Pipeline) Run(arr *Arrivals, duration, drain time.Duration) {
	p.RunAux(arr, duration, drain)
}

// Aux is an auxiliary event source started alongside the request
// arrivals — e.g. a streaming-ingest mutation generator. Start must
// schedule the source's events on sim, bounded by the until horizon.
type Aux interface {
	Start(sim *des.Sim, until des.Time)
}

// AuxFunc adapts a function to the Aux interface.
type AuxFunc func(sim *des.Sim, until des.Time)

// Start implements Aux.
func (f AuxFunc) Start(sim *des.Sim, until des.Time) { f(sim, until) }

// RunAux is Run with auxiliary sources sharing the pipeline's timeline:
// each aux source starts before the first arrival fires, bounded by the
// same generation horizon, and the drain window lets both request and
// aux events settle. With no aux sources it is exactly Run — same event
// sequence, bit-identical results.
func (p *Pipeline) RunAux(arr *Arrivals, duration, drain time.Duration, aux ...Aux) {
	for _, a := range aux {
		a.Start(p.Sim, des.Time(duration))
	}
	arr.Start(p.Sim, des.Time(duration), p.Submit)
	p.Sim.RunUntil(des.Time(duration + drain))
}

// Collector is the pipeline's terminal sink: it streams every admitted
// request into a compact per-request record (arrival order) and
// summarizes the run's metrics once the simulation drains.
//
// Records are *values*: Done copies the request's final timestamps into
// its record, after which the pooled request object is free to be
// recycled by a later arrival. Requests still in flight stay live (the
// pool never sees them), and their current state is re-read at
// aggregation time — so a request stuck mid-generation when the clock
// stops reports exactly the fields it had then, as it did before
// pooling existed.
//
// An in-place collector (InPlace) skips all of that: the requests are
// served where their owner reports them, so it keeps only the IDs it
// admitted and nothing is copied or tracked.
type Collector struct {
	records   []workload.Request  // per-request snapshots, arrival order
	live      []*workload.Request // non-nil until the request finalizes
	idx       map[*workload.Request]int32
	ids       []int32 // in place: the admitted requests' IDs, admission order
	inPlace   bool
	completed int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{idx: make(map[*workload.Request]int32)}
}

// Reserve makes room for n admissions, so a run whose arrival count is
// known (or well estimated) beforehand does not regrow the record array
// as it goes. A low n costs regrowth, never correctness.
func (c *Collector) Reserve(n int) {
	if n > cap(c.records) {
		c.records = append(make([]workload.Request, 0, n), c.records...)
		c.live = append(make([]*workload.Request, 0, n), c.live...)
	}
}

// InPlace turns the collector into an ID list: its requests live, never
// recycled, in an array their owner indexes by Request.ID and reports
// from, so the collector records only which IDs it admitted (IDs), in
// admission order, and copies, tracks and re-reads nothing. n sizes the
// list. Call before any Admit.
func (c *Collector) InPlace(n int) {
	c.ids, c.inPlace = make([]int32, 0, n), true
}

// IDs returns an in-place collector's admitted request IDs in admission
// order.
func (c *Collector) IDs() []int32 { return c.ids }

// Admit records a request entering the system (wired into the Admission
// stage, so the record order equals the arrival order).
func (c *Collector) Admit(req *workload.Request) {
	if c.inPlace {
		c.ids = append(c.ids, int32(req.ID))
		return
	}
	i := int32(len(c.records))
	c.records = append(c.records, *req)
	c.live = append(c.live, req)
	c.idx[req] = i
}

// Done finalizes a completed request's record (wired into the terminal
// sink, upstream of the pool release). The map delete/re-insert cycle
// reuses bucket memory, so steady state allocates nothing.
func (c *Collector) Done(req *workload.Request) {
	c.completed++
	if i, ok := c.idx[req]; ok {
		c.records[i] = *req
		c.live[i] = nil
		delete(c.idx, req)
	}
}

// Replace redirects a record's live tracking from old to new: the
// record that admission registered under old now follows new, and old
// is forgotten (its pooled object may be recycled safely). The
// resilience layer uses this when a retry, failover, or hedge copy
// supersedes the original in-flight request — the admitted record then
// reports the attempt that actually (eventually) serves the user.
func (c *Collector) Replace(old, new *workload.Request) {
	if i, ok := c.idx[old]; ok {
		delete(c.idx, old)
		c.idx[new] = i
		c.live[i] = new
		c.records[i] = *new
	}
}

// Abandon finalizes a record *now* with whatever state its request has
// and stops tracking the live pointer — the terminal bookkeeping for a
// request the resilience layer gives up on (retries exhausted). The
// frozen record keeps FirstToken==0, so the request counts as unserved.
// Unlike Done it does not count a completion.
func (c *Collector) Abandon(req *workload.Request) {
	if i, ok := c.idx[req]; ok {
		c.records[i] = *req
		c.live[i] = nil
		delete(c.idx, req)
	}
}

// refresh re-snapshots every still-live request so aggregate views see
// in-flight state (e.g. a first token emitted but decode unfinished).
func (c *Collector) refresh() {
	for i, r := range c.live {
		if r != nil {
			c.records[i] = *r
		}
	}
}

// Requests returns every admitted request's record in arrival order
// (none in place: the owner's array is the record).
func (c *Collector) Requests() []workload.Request {
	c.refresh()
	return c.records
}

// Admitted returns the number of requests that entered the system.
func (c *Collector) Admitted() int { return len(c.records) + len(c.ids) }

// Completed returns the number of requests that finished generation.
func (c *Collector) Completed() int { return c.completed }
