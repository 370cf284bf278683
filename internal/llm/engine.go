package llm

import (
	"fmt"
	"math"
	"sort"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/workload"
)

// EngineConfig bounds the continuous-batching scheduler. The engine
// models vLLM-style chunked prefill: every iteration advances all
// running decodes by one token AND consumes up to MaxPrefillTokens of
// pending prompt tokens, so prefills never stall decode entirely and
// TTFT stays smooth under load.
type EngineConfig struct {
	MaxSeqs           int           // max concurrently decoding requests per instance
	MaxPrefillTokens  int           // prefill-token budget per iteration (chunked prefill)
	PrefillBase       time.Duration // fixed overhead added when an iteration prefills
	DecodeBase        time.Duration // fixed per-iteration overhead
	ComputeEfficiency float64       // fraction of hw.GPU.TFLOPs realized on prefill
}

// DefaultEngineConfig mirrors common vLLM deployment limits.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		MaxSeqs:           256,
		MaxPrefillTokens:  2048,
		PrefillBase:       2 * time.Millisecond,
		DecodeBase:        1500 * time.Microsecond,
		ComputeEfficiency: 1.0,
	}
}

// Instance is one model replica spanning TP GPUs, running an
// iteration-level continuous-batching loop on the simulator.
//
// The loop is allocation-free in steady state and does O(1) work per
// iteration plus O(1) per completion — not O(running sequences):
// because every running decode gains exactly one token per iteration,
// an entry's completion iteration is known the moment it joins the
// decode set, so running entries live in a completion time-wheel
// (buckets keyed by completion tick) instead of being swept every
// iteration. The aggregate context size advances in bulk (+running per
// tick), reproducing the per-entry bookkeeping of the sweep version
// bit for bit: same completion instants, same completion order (join
// order within a tick), same decode-step durations. Entries are stored
// by value, the waiting queue compacts its backing array instead of
// re-slicing it away, the prefill-completion set is tracked as a count
// (completed prefills are always a FIFO prefix of prefilling), and the
// two scheduler callbacks (iterate, and the post-iteration step) are
// bound once at construction instead of captured per event.
type Instance struct {
	sim  *des.Sim
	spec ModelSpec
	node hw.Node
	cfg  EngineConfig
	gpus []*gpu.State

	kvCapacityTokens int64
	kvUsedTokens     int64

	waiting    []entry // not yet admitted (no KV reserved)
	wHead      int     // consumed prefix of waiting (compacted on append)
	prefilling []entry // admitted, prompt tokens still being consumed
	sumCtx     int64   // total context tokens across running entries
	busy       bool

	// The decode set, as a completion time-wheel: wheel[t & mask] holds
	// the entries whose last token lands on decode tick t, in join
	// order. nRunning counts entries across all buckets; tick is the
	// current decode iteration number. The wheel has more slots than
	// the largest per-entry decode length, so bucket and tick can never
	// collide between two generations of entries.
	wheel    [][]finEntry
	tick     int64
	nRunning int

	// Per-iteration physics constants, precomputed at construction so
	// the (very hot) iteration loop does no redundant spec math.
	weightBytesF  float64 // one full weight read, bytes
	kvPerTokenF   float64 // KV bytes per context token
	bwTotal       float64 // aggregate memory bandwidth across TP GPUs
	prefillAggOps float64 // aggregate effective FLOP/s for prefill

	// prefillDone is how many leading prefilling entries finished their
	// prompt in the iteration currently in flight. Chunked prefill
	// consumes the budget FIFO, so finishers are always a prefix — a
	// count fully describes the set, and the step event needs no
	// captured slice.
	prefillDone int

	// iterateFn / stepFn are the two loop callbacks, pre-bound so every
	// scheduled iteration reuses them.
	iterateFn func()
	stepFn    func()

	// Straggler episode: while slowUntil is ahead of the clock, every
	// iteration is stretched by slowFactor (a slow GPU / noisy neighbor
	// injected by the fault layer). Inactive episodes skip the multiply
	// entirely, so fault-free runs stay bit-identical.
	slowFactor float64
	slowUntil  des.Time

	onFirstToken func(*workload.Request)
	onDone       func(*workload.Request)

	completed int64
	tokensOut int64
}

type entry struct {
	req            *workload.Request
	generated      int
	prefillPending int   // prompt tokens not yet processed
	outTokens      int   // decode target, cached off req.Shape
	reserved       int64 // KV tokens reserved at admission
}

// finEntry is a decoding request parked in the completion wheel until
// the tick its last token lands on.
type finEntry struct {
	req       *workload.Request
	inTokens  int   // prompt length, for the context-sum release
	genAtDone int   // generated count at completion (normally outTokens)
	reserved  int64 // KV tokens to release
}

// NewInstance builds an instance over the given GPUs (len must equal
// spec.TP).
func NewInstance(sim *des.Sim, node hw.Node, spec ModelSpec, gpus []*gpu.State, cfg EngineConfig) (*Instance, error) {
	if len(gpus) != spec.TP {
		return nil, fmt.Errorf("llm: %s needs %d GPUs, got %d", spec, spec.TP, len(gpus))
	}
	inst := &Instance{sim: sim, spec: spec, node: node, cfg: cfg, gpus: gpus}
	inst.iterateFn = inst.iterate
	inst.stepFn = inst.step
	inst.weightBytesF = float64(spec.WeightBytes())
	inst.kvPerTokenF = float64(spec.KVBytesPerToken())
	inst.bwTotal = node.GPU.MemBWBytes * float64(spec.TP)
	inst.prefillAggOps = node.GPU.TFLOPs * 1e12 * float64(spec.TP) * cfg.ComputeEfficiency
	// KV pool: the minimum free memory across the instance's GPUs — the
	// baseline KV bytes less the resident index shard — bounds the
	// per-GPU KV share (paged KV is allocated symmetrically under TP).
	perGPU := int64(1) << 62
	for _, g := range gpus {
		perGPU = min(perGPU, max(spec.KVBytesPerGPU(g.Spec)-g.ShardBytes, 0))
	}
	pool := perGPU * int64(spec.TP)
	inst.kvCapacityTokens = pool / spec.KVBytesPerToken()
	if inst.kvCapacityTokens <= 0 {
		return nil, fmt.Errorf("llm: no KV space for %s (per-GPU free %d bytes)", spec, perGPU)
	}
	return inst, nil
}

// Load returns the number of requests queued or running.
func (in *Instance) Load() int {
	return len(in.waiting) - in.wHead + len(in.prefilling) + in.nRunning
}

// Completed returns the number of finished requests.
func (in *Instance) Completed() int64 { return in.completed }

// Submit enqueues a request; the scheduling loop wakes if idle.
func (in *Instance) Submit(req *workload.Request) {
	if in.wHead > 0 && len(in.waiting) == cap(in.waiting) {
		// Compact the consumed prefix away before append would grow the
		// array: the queue stays allocation-free once warm.
		n := copy(in.waiting, in.waiting[in.wHead:])
		in.waiting = in.waiting[:n]
		in.wHead = 0
	}
	in.waiting = append(in.waiting, entry{req: req})
	in.wake()
}

func (in *Instance) wake() {
	if in.busy {
		return
	}
	in.busy = true
	in.sim.At(in.sim.Now(), in.iterateFn)
}

// iterate runs one mixed scheduler step (chunked prefill): admit
// waiting requests while KV and MaxSeqs allow, consume up to
// MaxPrefillTokens of pending prompt tokens, and advance every running
// decode by one token — all in a single iteration whose duration sums
// the decode read time and the prefill compute.
func (in *Instance) iterate() {
	// Admission: reserve KV for as many waiting requests as fit.
	for in.wHead < len(in.waiting) {
		e := in.waiting[in.wHead]
		need := int64(e.req.Shape.InputTokens + e.req.Shape.OutputTokens)
		if in.nRunning+len(in.prefilling)+1 > in.cfg.MaxSeqs {
			break
		}
		if in.kvUsedTokens+need > in.kvCapacityTokens {
			break
		}
		in.waiting[in.wHead] = entry{}
		in.wHead++
		if in.wHead == len(in.waiting) {
			in.waiting = in.waiting[:0]
			in.wHead = 0
		}
		e.reserved = need
		e.prefillPending = e.req.Shape.InputTokens
		e.outTokens = e.req.Shape.OutputTokens
		e.req.LLMStart = in.sim.Now()
		in.kvUsedTokens += need
		in.prefilling = append(in.prefilling, e)
	}

	if len(in.prefilling) == 0 && in.nRunning == 0 {
		in.busy = false
		return
	}

	// Consume prompt tokens FIFO within this iteration's budget. An
	// entry only receives tokens once every earlier entry is done, so
	// the finishers are exactly the first prefillDone entries.
	budget := in.cfg.MaxPrefillTokens
	prefillTokens := 0
	in.prefillDone = 0
	for i := range in.prefilling {
		if budget <= 0 {
			break
		}
		e := &in.prefilling[i]
		take := e.prefillPending
		if take > budget {
			take = budget
		}
		e.prefillPending -= take
		budget -= take
		prefillTokens += take
		if e.prefillPending == 0 {
			in.prefillDone++
		}
	}

	// Iteration duration: decode reads + prefill compute.
	var d time.Duration
	if in.nRunning > 0 {
		d += in.decodeStepTime()
	}
	if prefillTokens > 0 {
		d += in.prefillTime(prefillTokens)
	}
	if d == 0 {
		d = in.cfg.DecodeBase
	}
	stretched := in.stretch(d)

	in.sim.After(time.Duration(stretched), in.stepFn)
}

// park inserts a freshly prefilled entry into the completion wheel.
// The entry joined decoding with one token already emitted, gains one
// per subsequent tick, and completes on the first tick where generated
// reaches outTokens — ticks = max(1, outTokens-1) from now (even a
// 1-token request survives one decode tick, exactly as the sweep
// version's post-increment check behaved).
func (in *Instance) park(e *entry) {
	ticks := e.outTokens - 1
	if ticks < 1 {
		ticks = 1
	}
	if ticks >= len(in.wheel) {
		in.growWheel(ticks + 1)
	}
	done := in.tick + int64(ticks)
	slot := int(done & int64(len(in.wheel)-1))
	in.wheel[slot] = append(in.wheel[slot], finEntry{
		req:       e.req,
		inTokens:  e.req.Shape.InputTokens,
		genAtDone: 1 + ticks,
		reserved:  e.reserved,
	})
	in.nRunning++
}

// growWheel resizes the wheel to the smallest power of two with at least
// need slots — one more than the parking entry's ticks is all the
// no-collision argument asks, so a run of one OutputTokens allocates its
// wheel once, at the exact size, on the first park — re-bucketing parked
// entries. Buckets are relocated wholesale: within
// a bucket join order is preserved, and distinct buckets cannot merge
// because the new size also exceeds every parked entry's remaining
// lookahead. Fresh slots are carved out of one flat backing array with
// a few entries of capacity each, so filling the wheel the first time
// costs two allocations, not one per slot.
func (in *Instance) growWheel(need int) {
	size := 256
	for size < need {
		size *= 2
	}
	old := in.wheel
	oldMask := int64(len(old) - 1)
	in.wheel = make([][]finEntry, size)
	const slotCap = 4
	backing := make([]finEntry, size*slotCap)
	for i := range in.wheel {
		in.wheel[i] = backing[i*slotCap : i*slotCap : (i+1)*slotCap]
	}
	if len(old) == 0 {
		return
	}
	// Parked entries complete within len(old) ticks of now; walk the
	// next len(old) ticks in order and move each bucket to its slot
	// under the new mask.
	for dt := int64(0); dt < int64(len(old)); dt++ {
		t := in.tick + dt
		b := old[t&oldMask]
		if len(b) > 0 {
			in.wheel[t&int64(size-1)] = b
		}
	}
}

// step applies the iteration scheduled by iterate: decode tokens land,
// finished requests complete, fully prefilled requests emit their first
// token, and the loop re-enters iterate at the same instant.
func (in *Instance) step() {
	now := in.sim.Now()
	// Decode side: every running request gains a token — in bulk, since
	// they advance in lockstep — and this tick's wheel bucket holds
	// exactly the requests whose last token just landed, in join order.
	in.tick++
	in.tokensOut += int64(in.nRunning)
	in.sumCtx += int64(in.nRunning)
	if len(in.wheel) > 0 {
		slot := int(in.tick & int64(len(in.wheel)-1))
		bucket := in.wheel[slot]
		if len(bucket) > 0 {
			in.nRunning -= len(bucket)
			for i := range bucket {
				e := &bucket[i]
				e.req.Done = now
				in.kvUsedTokens -= e.reserved
				in.sumCtx -= int64(e.inTokens + e.genAtDone)
				in.completed++
				if in.onDone != nil {
					in.onDone(e.req)
				}
			}
			clear(bucket)
			in.wheel[slot] = bucket[:0]
		}
	}
	// Prefill side: fully prefilled requests emit their first token
	// (the TTFT endpoint) and join the decode set.
	if k := in.prefillDone; k > 0 {
		in.prefillDone = 0
		for i := range in.prefilling[:k] {
			e := &in.prefilling[i]
			e.req.FirstToken = now
			e.generated = 1
			in.tokensOut++
			in.sumCtx += int64(e.req.Shape.InputTokens + 1)
			in.park(e)
			if in.onFirstToken != nil {
				in.onFirstToken(e.req)
			}
		}
		n := copy(in.prefilling, in.prefilling[k:])
		in.prefilling = in.prefilling[:n]
	}
	in.iterate()
}

// prefillTime is compute-bound: 2*Params FLOPs per token over the
// instance's aggregate effective compute.
func (in *Instance) prefillTime(tokens int) time.Duration {
	flops := 2 * float64(in.spec.Params) * float64(tokens)
	return in.cfg.PrefillBase + time.Duration(flops/in.prefillAggOps*float64(time.Second))
}

// decodeStepTime is bandwidth-bound: one full weight read plus the KV
// reads of every running sequence, across the instance's aggregate
// memory bandwidth.
func (in *Instance) decodeStepTime() time.Duration {
	bytes := in.weightBytesF + float64(in.sumCtx)*in.kvPerTokenF
	return in.cfg.DecodeBase + time.Duration(bytes/in.bwTotal*float64(time.Second))
}

// stretch applies retrieval-kernel contention: the iteration slows by
// the node's contention factor while any of the instance's GPUs has a
// retrieval kernel resident.
func (in *Instance) stretch(d time.Duration) des.Time {
	var busyUntil des.Time
	for _, g := range in.gpus {
		if bu := g.RetrievalBusyUntil(); bu > busyUntil {
			busyUntil = bu
		}
	}
	out := gpu.StretchForContention(in.sim.Now(), des.Time(d), busyUntil, in.node.ContentionFactor)
	if in.slowFactor > 1 && in.sim.Now() < in.slowUntil {
		out = des.Time(float64(out) * in.slowFactor)
	}
	return out
}

// SetSlowdown installs a straggler episode: iterations stretch by
// factor until the given virtual instant. A factor <= 1 clears it.
func (in *Instance) SetSlowdown(factor float64, until des.Time) {
	in.slowFactor, in.slowUntil = factor, until
}

// Cluster is a set of instances with least-loaded dispatch — the
// LLM-serving half of the RAG pipeline.
type Cluster struct {
	Instances []*Instance
	// next rotates the starting point of the least-loaded scan so that
	// ties spread round-robin instead of piling onto instance 0.
	next int
}

// NewCluster packs instances onto consecutive GPU groups of size TP.
// GPUs beyond the last full group stay unused (the rigidity the paper
// calls out for DED-GPU with large models, §VI-B).
func NewCluster(sim *des.Sim, node hw.Node, spec ModelSpec, states []*gpu.State, cfg EngineConfig) (*Cluster, error) {
	n := len(states) / spec.TP
	if n == 0 {
		return nil, fmt.Errorf("llm: %d GPUs cannot host %s", len(states), spec)
	}
	c := &Cluster{}
	for i := 0; i < n; i++ {
		inst, err := NewInstance(sim, node, spec, states[i*spec.TP:(i+1)*spec.TP], cfg)
		if err != nil {
			return nil, err
		}
		c.Instances = append(c.Instances, inst)
	}
	return c, nil
}

// SetCallbacks installs completion hooks on every instance.
func (c *Cluster) SetCallbacks(onFirstToken, onDone func(*workload.Request)) {
	for _, in := range c.Instances {
		in.onFirstToken = onFirstToken
		in.onDone = onDone
	}
}

// SetSlowdown installs a straggler episode on every instance (the
// fault layer slows a whole replica's LLM side at once).
func (c *Cluster) SetSlowdown(factor float64, until des.Time) {
	for _, in := range c.Instances {
		in.SetSlowdown(factor, until)
	}
}

// Submit dispatches to the least-loaded instance (round-robin among
// ties).
func (c *Cluster) Submit(req *workload.Request) {
	n := len(c.Instances)
	best := c.Instances[c.next%n]
	for i := 1; i < n; i++ {
		in := c.Instances[(c.next+i)%n]
		if in.Load() < best.Load() {
			best = in
		}
	}
	c.next++
	best.Submit(req)
}

// Completed sums finished requests across instances.
func (c *Cluster) Completed() int64 {
	var n int64
	for _, in := range c.Instances {
		n += in.Completed()
	}
	return n
}

// MeasureGenSLO derives the generation-stage TTFT SLO the way the
// paper does (§V-A: "the latency measured at the model's throughput
// limit"): it drives a standalone cluster at the given fraction of its
// measured capacity with Poisson arrivals and returns the P90 TTFT.
// Using the deployment's own measurement rather than the paper's
// absolute milliseconds keeps the SLO meaningful on this substrate.
func MeasureGenSLO(node hw.Node, spec ModelSpec, states []*gpu.State, shape workload.Shape, cfg EngineConfig, loadFraction float64) (time.Duration, error) {
	mu, err := MeasureCapacity(node, spec, states, shape, cfg)
	if err != nil {
		return 0, err
	}
	var sim des.Sim
	cluster, err := NewCluster(&sim, node, spec, states, cfg)
	if err != nil {
		return 0, err
	}
	rate := mu * loadFraction
	const horizon = des.Time(120 * 1e9)
	const warmup = des.Time(20 * 1e9)
	// A tiny deterministic LCG drives exponential gaps; math utilities
	// from internal/rng are avoided here to keep llm's dependencies flat.
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / (1 << 53)
	}
	var reqs []*workload.Request
	id := 0
	var arrive func(at des.Time)
	arrive = func(at des.Time) {
		if at > horizon {
			return
		}
		sim.At(at, func() {
			req := &workload.Request{ID: id, Shape: shape, ArrivalAt: sim.Now()}
			id++
			reqs = append(reqs, req)
			cluster.Submit(req)
			u := next()
			if u <= 0 {
				u = 1e-12
			}
			gap := des.Time(-1e9 * math.Log(u) / rate)
			arrive(sim.Now() + gap)
		})
	}
	arrive(des.Time(1e9))
	sim.RunUntil(horizon + des.Time(30*1e9))
	var ttfts []float64
	for _, r := range reqs {
		if r.ArrivalAt >= warmup && r.FirstToken > 0 {
			ttfts = append(ttfts, float64(r.TTFT()))
		}
	}
	if len(ttfts) == 0 {
		return 0, fmt.Errorf("llm: gen-SLO measurement produced no samples")
	}
	sort.Float64s(ttfts)
	p90 := ttfts[int(0.90*float64(len(ttfts)-1))]
	return time.Duration(p90), nil
}

// MeasureCapacity saturates a standalone cluster (no retrieval) with
// back-to-back requests and returns its steady-state throughput in
// requests/second — the paper's "bare LLM throughput" profiling input
// and the vertical dashed capacity lines of Fig. 11.
func MeasureCapacity(node hw.Node, spec ModelSpec, states []*gpu.State, shape workload.Shape, cfg EngineConfig) (float64, error) {
	var sim des.Sim
	cluster, err := NewCluster(&sim, node, spec, states, cfg)
	if err != nil {
		return 0, err
	}
	// Keep every instance saturated: top up queues whenever they drain.
	// The window must be long relative to the KV fill ramp (large KV
	// pools take tens of virtual seconds to reach steady state).
	const horizon = des.Time(240 * 1e9) // virtual seconds
	const warmup = des.Time(90 * 1e9)
	id := 0
	feed := func() {
		for _, in := range cluster.Instances {
			for in.Load() < cfg.MaxSeqs*2 {
				req := &workload.Request{ID: id, Shape: shape, ArrivalAt: sim.Now()}
				id++
				in.Submit(req)
			}
		}
	}
	var tick func()
	tick = func() {
		feed()
		if sim.Now() < horizon {
			sim.After(200*time.Millisecond, tick)
		}
	}
	sim.At(0, tick)
	var atWarmup int64
	sim.At(warmup, func() { atWarmup = cluster.Completed() })
	sim.RunUntil(horizon)
	done := cluster.Completed() - atWarmup
	return float64(done) / (float64(horizon-warmup) / 1e9), nil
}
