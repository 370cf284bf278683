package serve

// Admitted returns the number of requests that entered the system.
func (c *Collector) Admitted() int { return len(c.records) + len(c.ids) }

// Completed returns the number of requests that finished generation.
func (c *Collector) Completed() int { return c.completed }

// Stages returns the pipeline's stages, upstream first.
func (p *Pipeline) Stages() []Stage { return p.stages }

// Inflight returns the number of requests admitted but not completed.
func (r *Replica) Inflight() int { return r.inflight }

// Replicas returns the routed replicas.
func (r *Router) Replicas() []*Replica { return r.replicas }

// Inflight returns the requests currently inside the metered section.
func (s *FairScheduler) Inflight() int { return s.inflight }

// Cap returns tenant t's per-tenant slot cap.
func (s *FairScheduler) Cap(t int) int { return s.caps[t] }

// QueueLen returns tenant t's current queue depth.
func (s *FairScheduler) QueueLen(t int) int { return s.queues[t].len() }

// Dispatched returns how many of tenant t's requests were sent
// downstream.
func (s *FairScheduler) Dispatched(t int) int { return s.dispatched[t] }

// Arrivals returns how many requests have been routed.
func (x *Exchange) Arrivals() int { return x.arrivals }

// Inflight returns the front's (notice-delayed) in-flight gauge for
// replica i.
func (x *Exchange) Inflight(i int) int { return x.inflight[i] }
