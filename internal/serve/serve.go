// Package serve holds the serving layer's stations and the cluster
// front ends over the discrete-event simulator: the Collector that
// records which requests a node admitted, the FairScheduler that meters
// admission into a node's retrieval engine, and the routers that fan
// requests out to replica nodes — Router (round-robin or least-loaded),
// the failure-aware ResilientRouter, and the sharded Exchange, the
// differential tests' reference.
//
// A node is a fixed chain (§IV-B): admission, the optional scheduler,
// the retrieval engine, the LLM cluster. internal/rag wires each node
// by hand, back to front, from its Sinks: each station is built with
// its downstream neighbour's entry point as its forward hook, which is
// exactly the wiring the retrieval engines need (their Forward callback
// is fixed at construction). Compose and its Stage/Builder/Pipeline
// remain only for the fair-scheduler probe of the benchmark harness.
package serve

import (
	"fmt"

	"vectorliterag/internal/des"
	"vectorliterag/internal/workload"
)

// Sink consumes a request at the current virtual instant. Station entry
// points and terminal collectors are both Sinks.
type Sink func(*workload.Request)

// Tee fans one request out to several sinks in order. A lone sink is
// returned as it is.
func Tee(sinks ...Sink) Sink {
	if len(sinks) == 1 {
		return sinks[0]
	}
	return func(req *workload.Request) {
		for _, s := range sinks {
			s(req)
		}
	}
}

// Stage is one station of a composed pipeline: requests enter through
// Submit and leave through the downstream sink the stage was built
// with. Stages schedule their service time on the shared simulator.
type Stage interface {
	Submit(req *workload.Request)
}

// Builder constructs a stage bound to its downstream sink.
type Builder func(next Sink) (Stage, error)

// Pipeline is a linear chain of stages ending in a terminal sink, held
// by its head.
type Pipeline struct {
	head Sink
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
	for i := len(builders) - 1; i >= 0; i-- {
		st, err := builders[i](next)
		if err != nil {
			return nil, fmt.Errorf("serve: stage %d: %w", i, err)
		}
		next = st.Submit
	}
	return &Pipeline{head: next}, nil
}

// Submit feeds a request into the pipeline's first stage.
func (p *Pipeline) Submit(req *workload.Request) { p.head(req) }

// Collector records which requests a pipeline admitted. It has two
// modes, one per way a run holds its requests.
//
// In place (InPlace), the mode of every routed replica but the
// resilient router's: the requests live in an arrival-ordered arena
// (workload.Arena) their owner indexes by Request.ID, are served where
// they lie and are never recycled, so the collector keeps only the IDs
// it admitted and copies, tracks and re-reads nothing.
//
// Copying, the mode beneath the resilient router, whose retry and hedge
// clones come from a recycling workload.Pool: Admit streams every
// admitted request into a compact per-request *value* record (arrival
// order), and Done copies the request's final timestamps into it, after
// which the pooled object is free to be recycled by a later arrival.
// Requests still in flight stay live (the pool never sees them) and are
// re-read at aggregation time, so a request stuck mid-generation when
// the clock stops reports exactly the fields it had then.
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
// recycled, in an arrival-ordered arena their owner indexes by
// Request.ID and reports from, so the collector records only which IDs
// it admitted (IDs), in admission order. n sizes the list. Call before
// any Admit.
func (c *Collector) InPlace(n int) {
	c.ids, c.inPlace = make([]int32, 0, n), true
}

// IDs returns an in-place collector's admitted request IDs in admission
// order.
func (c *Collector) IDs() []int32 { return c.ids }

// Admit records a request entering the system (wired into a node's or
// the resilient router's front door, so the record order equals the
// arrival order).
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
// reuses bucket memory, so steady state allocates nothing. In place it
// only counts the completion.
func (c *Collector) Done(req *workload.Request) {
	c.completed++
	if c.inPlace {
		return
	}
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
