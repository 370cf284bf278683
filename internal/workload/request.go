// Package workload defines the request model and the open-loop Poisson
// arrival generator used throughout the evaluation (paper §V-A: Poisson
// arrivals; each request retrieves top-25 documents, builds a
// 1024-token input, and generates a 256-token output).
package workload

import (
	"time"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/rng"
)

// Shape is the token geometry of requests. Every request carries one,
// so its counts are int32: a run holds a quarter million records, and
// no prompt or generation comes near 2^31 tokens. The retrieval depth
// (top-25 documents, §V-A) is not a field: a simulated search is priced
// by the bytes it scans, whatever its k, so nothing read one.
type Shape struct {
	InputTokens  int32
	OutputTokens int32
}

// DefaultShape matches the paper's main evaluation setting.
func DefaultShape() Shape { return Shape{InputTokens: 1024, OutputTokens: 256} }

// Request is one end-to-end RAG request flowing through retrieval and
// generation. Timestamps are virtual; zero means "not reached yet".
//
// The layout is part of the contract: a fleet run holds one Request per
// arrival, so Shape's two int32 counts fill one word, Query and ForcePQ
// share the last, and the struct stays at 96 bytes
// (TestRequestFootprint).
type Request struct {
	ID    int
	Shape Shape
	// Tenant identifies which tenant's stream the request belongs to in
	// a multi-tenant run (0 in single-tenant runs, where it is unused).
	// It indexes the per-tenant queues of serve.FairScheduler and the
	// per-tenant corpora of the multi-tenant retrieval engine.
	Tenant int

	ArrivalAt   des.Time // enters the system
	SearchStart des.Time // its retrieval batch begins
	SearchDone  des.Time // retrieval results merged and forwarded
	LLMStart    des.Time // admitted into an LLM instance's prefill
	FirstToken  des.Time // first output token (TTFT endpoint)
	Done        des.Time // last output token

	// Degrade is the graceful-degradation shed fraction stamped by the
	// resilient router under capacity loss — and, under pure overload,
	// by the brownout controller's first ladder rung: retrieval engines
	// drop the trailing Degrade fraction of the query's probe list
	// (reduced nprobe), trading recall for service time. Zero — the
	// value on every non-resilient path — changes nothing.
	Degrade float64

	// HitRate is the work-weighted fraction of this query's scan bytes
	// actually served from GPU-resident clusters, recorded by the
	// retrieval engine when the request's batch is routed. It is the
	// per-request observation the paper's runtime monitor accumulates
	// (§IV-B3); mid-reload CPU diverts therefore show up as misses.
	HitRate float64

	Query dataset.QueryID // the drawn query template

	// ForcePQ is the brownout ladder's last rung: when set, clusters the
	// precision refinement upgraded to SQ8 are scanned through their
	// base PQ codec for this request — giving back the SQ recall gain in
	// exchange for the cheaper scan. False everywhere outside a deep
	// brownout; meaningless (and ignored) without a precision plan.
	ForcePQ bool
}

// TTFT returns time-to-first-token; callers must only use it after
// FirstToken is set.
func (r *Request) TTFT() des.Time { return r.FirstToken - r.ArrivalAt }

// E2E returns total latency; valid once Done is set.
func (r *Request) E2E() des.Time { return r.Done - r.ArrivalAt }

// QueueingDelay is the time spent waiting before retrieval started.
func (r *Request) QueueingDelay() des.Time { return r.SearchStart - r.ArrivalAt }

// SearchLatency is the retrieval service time (batch start to forward).
func (r *Request) SearchLatency() des.Time { return r.SearchDone - r.SearchStart }

// Arena is a run's arrival-ordered record store: each arrival is
// allocated into the next slot and served where it lies, and the slots,
// read after the run, are the run's records. A slot is never recycled,
// and it never moves while the run can still reach it: when the first
// chunk is full another one opens, and Records joins the chunks only
// once, when the run is over.
//
// An Arena is single-goroutine while it allocates, like the simulator
// it feeds.
type Arena struct {
	full  [][]Request // earlier chunks, each filled to capacity
	chunk []Request   // the chunk being filled
}

// NewArena returns an arena whose first chunk holds n requests. A run
// sizes it to the arrivals it expects; a low n costs an extra chunk,
// never correctness.
func NewArena(n int) *Arena { return &Arena{chunk: make([]Request, 0, max(n, 1))} }

// New returns the next slot, zeroed: the allocator arrival generators
// draw from (Generator.Alloc).
func (a *Arena) New() *Request {
	if len(a.chunk) == cap(a.chunk) {
		a.full = append(a.full, a.chunk)
		a.chunk = make([]Request, 0, a.Len())
	}
	a.chunk = a.chunk[:len(a.chunk)+1]
	return &a.chunk[len(a.chunk)-1]
}

// Len returns how many requests the arena holds.
func (a *Arena) Len() int {
	n := len(a.chunk)
	for _, c := range a.full {
		n += len(c)
	}
	return n
}

// Records returns every request in allocation order. With one chunk
// that is the chunk itself; otherwise the chunks are joined, once, into
// the arena's only chunk, which moves every slot: call it when nothing
// holds a slot's address any more.
func (a *Arena) Records() []Request {
	if len(a.full) > 0 {
		all := make([]Request, 0, a.Len())
		for _, c := range a.full {
			all = append(all, c...)
		}
		a.full, a.chunk = nil, append(all, a.chunk...)
	}
	return a.chunk
}

// Pool recycles Request objects whose contents are copied out before
// they are released — the resilient router's attempt copies, each
// written back into its request's Arena slot: a user draws from it and
// the terminal sink returns finished objects, so after a short ramp
// (the peak in-flight population) no further requests are allocated.
// A run's records themselves live in an Arena.
//
// A Pool is single-goroutine, like the simulator it serves.
type Pool struct {
	free []*Request
	news int
}

// Get returns a zeroed request, reusing a released one when available.
func (p *Pool) Get() *Request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		*r = Request{}
		return r
	}
	p.news++
	return &Request{}
}

// Put releases a request for reuse. The caller must drop every
// reference: the next Get hands the same object to a new arrival.
func (p *Pool) Put(r *Request) {
	if r != nil {
		p.free = append(p.free, r)
	}
}

// Release is Put shaped as a pipeline sink — wire it as the *last*
// element of the terminal serve.Tee, after every stage that still
// reads the completed request.
func (p *Pool) Release(r *Request) { p.Put(r) }

// Allocated returns how many requests the pool actually constructed —
// the run's peak in-flight population, not its request count.
func (p *Pool) Allocated() int { return p.news }

// Generator produces Poisson arrivals of requests drawn from a
// workload's query distribution. With a Sched installed the process is
// an *inhomogeneous* Poisson stream realized by thinning; otherwise it
// is the classic constant-rate stream (bit-identical to before Sched
// existed).
type Generator struct {
	RatePerSec float64
	Shape      Shape
	W          *dataset.Workload
	// Sched, when non-nil, overrides RatePerSec with a time-varying rate
	// (ramps, bursts, diurnal cycles — the non-stationary workloads of
	// drift studies).
	Sched Schedule
	// Tenant stamps every emitted request (multi-tenant runs multiplex
	// one generator per tenant onto a shared simulator timeline).
	Tenant int
	// Alloc, when non-nil, supplies each arrival's request object — an
	// Arena's New, or a Pool's Get when the run's terminal sink releases
	// completed requests back into it. Pool is the same seam spelled as a
	// pool, read only when Alloc is nil; without either, every arrival is
	// a new heap object.
	Alloc func() *Request
	Pool  *Pool

	r      *rng.Rand
	nextID int

	// Start binds the remaining fields once so the self-rescheduling
	// arrival loop reuses a single callback (allocation-free scheduling
	// via des.Sim.At with a stored func value).
	sim    *des.Sim
	until  des.Time
	submit func(*Request)
	rmax   float64
	step   func()
}

// NewGenerator returns an open-loop generator. rate is requests per
// second of virtual time.
func NewGenerator(w *dataset.Workload, rate float64, shape Shape, seed uint64) *Generator {
	return &Generator{RatePerSec: rate, Shape: shape, W: w, r: rng.New(seed)}
}

// NewScheduledGenerator returns an open-loop generator driven by a rate
// schedule instead of a constant rate.
func NewScheduledGenerator(w *dataset.Workload, sched Schedule, shape Shape, seed uint64) *Generator {
	return &Generator{Sched: sched, Shape: shape, W: w, r: rng.New(seed)}
}

// Start schedules arrivals on the simulator until the given deadline,
// invoking submit for each new request at its arrival time. The loop
// pre-binds one step callback and reschedules it, so steady-state
// arrival scheduling performs no allocation beyond the requests
// themselves (none at all from a warm Pool or a sized Arena).
func (g *Generator) Start(sim *des.Sim, until des.Time, submit func(*Request)) {
	g.sim, g.until, g.submit = sim, until, submit
	if g.Sched != nil {
		// Lewis' thinning: candidate arrivals are drawn at the schedule's
		// MaxRate and each is accepted with probability RateAt(t)/MaxRate
		// — exact for any bounded rate function, and deterministic under
		// a fixed seed.
		g.rmax = g.Sched.MaxRate()
		g.step = g.thinnedStep
		g.scheduleThinned(0)
		return
	}
	g.step = g.constStep
	first := des.Time(g.r.ExpFloat64() / g.RatePerSec * 1e9)
	g.schedule(first)
}

// schedule arms the next arrival candidate, stopping past the horizon.
func (g *Generator) schedule(at des.Time) {
	if at > g.until {
		return
	}
	g.sim.At(at, g.step)
}

// constStep is one constant-rate Poisson arrival.
func (g *Generator) constStep() {
	g.emit()
	gap := des.Time(g.r.ExpFloat64() / g.RatePerSec * 1e9)
	g.schedule(g.sim.Now() + gap)
}

// thinnedStep fires at an accepted arrival of the thinned stream and
// arms the next one.
func (g *Generator) thinnedStep() {
	g.emit()
	g.scheduleThinned(g.sim.Now())
}

// scheduleThinned walks rejected thinning candidates inline and
// schedules one event at the next *accepted* arrival. Rejected
// candidates have no observable effect — they only consume draws from
// the generator's private RNG — so collapsing their events into this
// loop leaves the accepted arrival times and the full draw sequence
// (gap, accept-test, gap, ... , accept-test, then the query sample at
// the arrival instant) exactly as the event-per-candidate version
// produced them, while scheduling ~MaxRate/mean-rate fewer events.
func (g *Generator) scheduleThinned(from des.Time) {
	t := from
	for {
		t += des.Time(g.r.ExpFloat64() / g.rmax * 1e9)
		if t > g.until {
			return
		}
		if g.r.Float64()*g.rmax <= g.Sched.RateAt(time.Duration(t)) {
			g.sim.At(t, g.step)
			return
		}
	}
}

// emit materializes one request at the current instant, from the
// installed allocator.
func (g *Generator) emit() {
	var req *Request
	switch {
	case g.Alloc != nil:
		req = g.Alloc()
	case g.Pool != nil:
		req = g.Pool.Get()
	default:
		req = &Request{}
	}
	req.ID = g.nextID
	req.Query = g.W.Sample(g.r)
	req.Shape = g.Shape
	req.Tenant = g.Tenant
	req.ArrivalAt = g.sim.Now()
	g.nextID++
	g.submit(req)
}

// Count returns how many requests have been generated so far.
func (g *Generator) Count() int { return g.nextID }
