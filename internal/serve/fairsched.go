package serve

import (
	"fmt"

	"vectorliterag/internal/workload"
)

// TenantClass describes one tenant's scheduling parameters: Weight is
// its deficit-round-robin quantum (requests per round) and Priority its
// dispatch rank within a round (lower is served first). In a tiered
// deployment both derive from the tenant's SLO tier.
type TenantClass struct {
	Weight   int
	Priority int
}

// FairScheduler is the multi-tenant admission stage: one FIFO queue per
// tenant, a bound on how many requests may occupy the downstream
// (retrieval) section at once, and a priority-ordered deficit
// weighted-round-robin dispatch rule.
//
// Dispatch discipline: each round grants tenant i a quantum of
// Weight(i) dispatches. Among tenants with quantum and queued work, the
// lowest Priority is always served first — a newly arrived gold request
// therefore overtakes every queued bronze request (tier-aware
// preemption of queue order; service already underway in the engines is
// never interrupted). When no tenant with remaining quantum has queued
// work, the round ends and quanta replenish, so under saturation
// long-run shares converge to the weights and no tenant starves.
//
// The in-flight bound is what creates isolation: without it (the
// shared-queue baseline) a burst from one tenant floods the retrieval
// engine's internal batch queue and every other tenant's requests wait
// behind it; with it, the surplus waits in the bursting tenant's own
// queue while other tenants' arrivals flow through WRR. Release must be
// wired to fire when a request leaves the metered section.
//
// On top of the global bound, each tenant holds at most its weight
// share of the slots (rounded up). The global bound alone cannot stop
// a bursting tenant from filling every *idle* slot — WRR is work-
// conserving — and downstream the engine batches whatever is in
// flight, so one tenant's occupied slots become co-batched scan work
// and LLM queue entries that stretch everyone's latency. The per-
// tenant cap trades that idle capacity for latency isolation, the same
// trade weighted-fair-queueing makes with per-class limits.
type FairScheduler struct {
	classes     []TenantClass
	queues      []reqRing
	rem         []int // remaining quantum this round
	lastServed  []int // dispatch serial of the tenant's latest dispatch
	serial      int
	queued      int
	inflight    int
	inflightBy  []int // per-tenant slots currently held
	caps        []int // per-tenant slot caps (weight share, rounded up)
	maxInflight int
	next        Sink

	// Bounded admission (overload control): with queueCap > 0, a tenant
	// whose own queue already holds queueCap requests has new arrivals
	// rejected at the door instead of enqueued — a rejected request costs
	// ~0 service time, a queued-then-timed-out one occupies the node
	// while it ages past its SLO (the metastable regime of faults.go,
	// reproducible from pure load). A rejected request's record never
	// gets a first token, so it surfaces as unserved; rejections also
	// flow to the reject sink, when set, and never touch the in-flight
	// accounting. Caps are per-tenant by
	// construction: one tenant filling its queue cannot cause another's
	// rejection.
	queueCap   int
	reject     Sink
	rejected   []int // per-tenant rejection totals (stats)
	onDispatch func(*workload.Request)

	dispatched []int // per-tenant dispatch totals (stats)
	peakQueue  []int // per-tenant queue high-water marks (stats)
}

// reqRing is an allocation-free FIFO of requests: a power-of-two ring
// that doubles on overflow and otherwise reuses its backing array
// forever. The previous slice-of-slices queues re-sliced their heads
// away (q = q[1:]), marching the backing array forward and forcing a
// fresh allocation every time append caught up — one of the steady-
// state allocation sources the serving-core rewrite removes.
type reqRing struct {
	buf        []*workload.Request
	head, size int
}

func (q *reqRing) len() int { return q.size }

func (q *reqRing) push(r *workload.Request) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)&(len(q.buf)-1)] = r
	q.size++
}

func (q *reqRing) pop() *workload.Request {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.size--
	return r
}

func (q *reqRing) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 8
	}
	buf := make([]*workload.Request, n)
	for i := 0; i < q.size; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// NewFairScheduler builds a scheduler for the given tenant classes.
// maxInflight bounds requests concurrently past the scheduler
// (non-positive defaults to 128 — two full retrieval batches, so the
// engine always has a next batch queued while one is in service).
// Weights below 1 are raised to 1 so every tenant makes progress.
func NewFairScheduler(classes []TenantClass, maxInflight int) (*FairScheduler, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("serve: fair scheduler needs at least one tenant class")
	}
	if maxInflight <= 0 {
		maxInflight = 128
	}
	s := &FairScheduler{
		classes:     append([]TenantClass(nil), classes...),
		queues:      make([]reqRing, len(classes)),
		rem:         make([]int, len(classes)),
		lastServed:  make([]int, len(classes)),
		inflightBy:  make([]int, len(classes)),
		caps:        make([]int, len(classes)),
		rejected:    make([]int, len(classes)),
		dispatched:  make([]int, len(classes)),
		peakQueue:   make([]int, len(classes)),
		maxInflight: maxInflight,
	}
	total := 0
	for i := range s.classes {
		if s.classes[i].Weight < 1 {
			s.classes[i].Weight = 1
		}
		s.rem[i] = s.classes[i].Weight
		total += s.classes[i].Weight
	}
	for i := range s.classes {
		// Floor division keeps the sum of caps at or under the global
		// bound, so a capped-out tenant cannot squeeze another tenant's
		// share — except where the one-slot minimum below kicks in
		// (bounds smaller than the weight total), where the global
		// bound wins and low-weight tenants may transiently crowd a
		// heavier one. Size maxInflight at or above the weight total to
		// keep the no-squeeze guarantee exact.
		s.caps[i] = maxInflight * s.classes[i].Weight / total
		if s.caps[i] < 1 {
			s.caps[i] = 1
		}
	}
	return s, nil
}

// Scheduled wraps an existing scheduler as a pipeline stage builder,
// binding its downstream sink. The scheduler object is created up front
// (like a Collector) so the retrieval stage's forward hook can also
// reference Release.
func Scheduled(s *FairScheduler) Builder {
	return func(next Sink) (Stage, error) {
		if s == nil {
			return nil, fmt.Errorf("serve: nil fair scheduler")
		}
		s.next = next
		return s, nil
	}
}

// SetAdmission bounds every per-tenant queue at cap requests and routes
// rejected arrivals to the given sink. A non-positive cap disables the
// bound (the default: unbounded queues, byte-identical to the scheduler
// before admission control existed). Call before the run starts.
func (s *FairScheduler) SetAdmission(cap int, reject Sink) {
	s.queueCap = cap
	s.reject = reject
}

// SetOnDispatch installs a hook invoked on each request immediately
// before it is forwarded downstream — the brownout controller's stamp
// point, where shed fractions are applied at dispatch time (so a
// request queued before the controller raised its level still gets the
// current rung). Call before the run starts.
func (s *FairScheduler) SetOnDispatch(fn func(*workload.Request)) {
	s.onDispatch = fn
}

// Rejected returns how many of tenant t's arrivals were refused at
// admission.
func (s *FairScheduler) Rejected(t int) int { return s.rejected[t] }

// Submit implements Stage: enqueue under the request's tenant and
// dispatch as far as the in-flight bound allows. With admission control
// installed, an arrival to a full tenant queue is rejected instead.
func (s *FairScheduler) Submit(req *workload.Request) {
	t := s.clamp(req.Tenant) // untagged requests ride the first class
	if s.queueCap > 0 && s.queues[t].len() >= s.queueCap {
		s.rejected[t]++
		if s.reject != nil {
			s.reject(req)
		}
		return
	}
	s.queues[t].push(req)
	s.queued++
	if n := s.queues[t].len(); n > s.peakQueue[t] {
		s.peakQueue[t] = n
	}
	s.dispatch()
}

// Name implements Stage.
func (s *FairScheduler) Name() string {
	return fmt.Sprintf("fair-scheduler(%d tenants)", len(s.classes))
}

// Release records one request leaving the metered section and refills
// the freed slot from the queues. The request identifies whose slot
// frees; wire it into the boundary where requests exit the section.
func (s *FairScheduler) Release(req *workload.Request) {
	if s.inflight > 0 {
		s.inflight--
	}
	if req != nil {
		if t := s.clamp(req.Tenant); s.inflightBy[t] > 0 {
			s.inflightBy[t]--
		}
	}
	s.dispatch()
}

// clamp maps stray tenant IDs onto the first class.
func (s *FairScheduler) clamp(t int) int {
	if t < 0 || t >= len(s.queues) {
		return 0
	}
	return t
}

// dispatch drains queues into the downstream stage while slots remain.
func (s *FairScheduler) dispatch() {
	for s.queued > 0 && s.inflight < s.maxInflight {
		t := s.pick()
		if t < 0 {
			return // every queued tenant is at its per-tenant cap
		}
		req := s.queues[t].pop()
		s.queued--
		s.rem[t]--
		s.serial++
		s.lastServed[t] = s.serial
		s.dispatched[t]++
		s.inflight++
		s.inflightBy[t]++
		if s.onDispatch != nil {
			s.onDispatch(req)
		}
		s.next(req)
	}
}

// pick selects the next tenant: among tenants with queued work,
// remaining quantum, and a free slot under their per-tenant cap, the
// lowest Priority wins, ties going to the least recently served (then
// the lower index). If every eligible tenant has exhausted its quantum
// the round ends and quanta replenish; if no tenant is eligible even
// with fresh quanta (all capped), pick reports -1.
func (s *FairScheduler) pick() int {
	for pass := 0; pass < 2; pass++ {
		best := -1
		for i := range s.queues {
			if s.queues[i].len() == 0 || s.rem[i] <= 0 || s.inflightBy[i] >= s.caps[i] {
				continue
			}
			if best < 0 || s.better(i, best) {
				best = i
			}
		}
		if best >= 0 {
			return best
		}
		for i := range s.rem {
			s.rem[i] = s.classes[i].Weight
		}
	}
	return -1
}

// better reports whether tenant i should be served before tenant j.
func (s *FairScheduler) better(i, j int) bool {
	if s.classes[i].Priority != s.classes[j].Priority {
		return s.classes[i].Priority < s.classes[j].Priority
	}
	if s.lastServed[i] != s.lastServed[j] {
		return s.lastServed[i] < s.lastServed[j]
	}
	return i < j
}

// PeakQueue returns tenant t's queue high-water mark.
func (s *FairScheduler) PeakQueue(t int) int { return s.peakQueue[t] }
