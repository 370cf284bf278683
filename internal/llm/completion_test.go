package llm

import (
	"maps"
	"slices"
	"testing"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/workload"
)

// sweepRef is the decode loop the completion ring replaced: running
// entries live in a slice of pointers, and every step counts each one
// up by a token and drops those that reached their OutputTokens. It
// borrows an Instance only for the physics the ring does not touch —
// KV pool size, prefill time, the decode-time formula's constants and
// the contention/slowdown stretch — and keeps every piece of decode-set
// bookkeeping to itself, the context sum included.
type sweepRef struct {
	p                            *Instance
	waiting, prefilling, running []*sweepEntry
	kvUsed, sumCtx, tokensOut    int64
	busy                         bool
	onDone                       func(*workload.Request)
}

type sweepEntry struct {
	req            *workload.Request
	generated      int
	prefillPending int
	reserved       int64
}

func (r *sweepRef) Submit(req *workload.Request) {
	r.waiting = append(r.waiting, &sweepEntry{req: req})
	if !r.busy {
		r.busy = true
		r.p.sim.At(r.p.sim.Now(), r.iterate)
	}
}

func (r *sweepRef) iterate() {
	sim := r.p.sim
	for len(r.waiting) > 0 {
		e := r.waiting[0]
		need := int64(e.req.Shape.InputTokens) + int64(e.req.Shape.OutputTokens)
		if len(r.running)+len(r.prefilling)+1 > r.p.cfg.MaxSeqs || r.kvUsed+need > r.p.kvCapacityTokens {
			break
		}
		r.waiting = r.waiting[1:]
		e.reserved = need
		e.prefillPending = int(e.req.Shape.InputTokens)
		e.req.LLMStart = sim.Now()
		r.kvUsed += need
		r.prefilling = append(r.prefilling, e)
	}
	if len(r.prefilling) == 0 && len(r.running) == 0 {
		r.busy = false
		return
	}
	budget, prefillTokens := r.p.cfg.MaxPrefillTokens, 0
	var finished []*sweepEntry
	for _, e := range r.prefilling {
		if budget <= 0 {
			break
		}
		take := min(e.prefillPending, budget)
		e.prefillPending -= take
		budget -= take
		prefillTokens += take
		if e.prefillPending == 0 {
			finished = append(finished, e)
		}
	}
	var d time.Duration
	if len(r.running) > 0 {
		bytes := r.p.weightBytesF + float64(r.sumCtx)*r.p.kvPerTokenF
		d += r.p.cfg.DecodeBase + time.Duration(bytes/r.p.bwTotal*float64(time.Second))
	}
	if prefillTokens > 0 {
		d += r.p.prefillTime(prefillTokens)
	}
	if d == 0 {
		d = r.p.cfg.DecodeBase
	}
	sim.After(time.Duration(r.p.stretch(d)), func() {
		now := sim.Now()
		kept := r.running[:0]
		for _, e := range r.running {
			e.generated++
			r.tokensOut++
			r.sumCtx++
			if e.generated >= int(e.req.Shape.OutputTokens) {
				e.req.Done = now
				r.kvUsed -= e.reserved
				r.sumCtx -= int64(e.req.Shape.InputTokens) + int64(e.generated)
				r.onDone(e.req)
				continue
			}
			kept = append(kept, e)
		}
		r.running = kept
		r.prefilling = r.prefilling[len(finished):]
		for _, e := range finished {
			e.req.FirstToken = now
			e.generated = 1
			r.tokensOut++
			r.running = append(r.running, e)
			r.sumCtx += int64(e.req.Shape.InputTokens) + 1
		}
		r.iterate()
	})
}

// ringScenario is one engine input: request i has OutputTokens outs[i]
// and arrives gaps[i] after request i-1. A slowdown episode and a
// retrieval-kernel busy window open at fixed instants.
type ringScenario struct {
	outs    []int
	gaps    []des.Time
	maxSeqs int
}

// ringRun is what one engine made of a scenario.
type ringRun struct {
	reqs      []workload.Request
	order     []int // request IDs in completion order
	tokensOut int64
	// The ring engine's announcements: completions per instant, and the
	// shortest notice any of them gave.
	announced map[des.Time]int
	minLead   des.Time
}

// runScenario drives a scenario through the ring engine (ref false) or
// the sweep reference (ref true) on a fresh timeline and GPU.
func runScenario(t testing.TB, sc ringScenario, ref bool) (ringRun, *Instance) {
	t.Helper()
	var sim des.Sim
	node := hw.L40SNode()
	states := gpu.NewStates(node)[:1]
	cfg := DefaultEngineConfig()
	cfg.MaxSeqs = sc.maxSeqs
	inst, err := NewInstance(&sim, node, Llama3_8B, states, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := ringRun{reqs: make([]workload.Request, len(sc.outs))}
	done := func(r *workload.Request) { out.order = append(out.order, r.ID) }
	submit := inst.Submit
	var sw *sweepRef
	if ref {
		sw = &sweepRef{p: inst, onDone: done}
		submit = sw.Submit
	} else {
		inst.onDone = done
		out.announced, out.minLead = map[des.Time]int{}, des.Time(time.Hour)
		inst.onSchedule = func(end des.Time, n int) {
			out.announced[end] += n
			out.minLead = min(out.minLead, end-sim.Now())
		}
	}
	sim.At(des.Time(300*time.Millisecond), func() { inst.SetSlowdown(1.7, sim.Now()+des.Time(400*time.Millisecond)) })
	sim.At(des.Time(900*time.Millisecond), func() { states[0].MarkRetrievalBusy(sim.Now() + des.Time(250*time.Millisecond)) })
	var at des.Time
	for i, o := range sc.outs {
		at += sc.gaps[i]
		req := &out.reqs[i]
		*req = workload.Request{ID: i, Shape: workload.Shape{InputTokens: int32(96 + 37*(i%5)), OutputTokens: int32(o)}}
		sim.At(at, func() { submit(req) })
	}
	// A bounded horizon, so a ring that loses an entry fails the
	// comparison instead of decoding forever.
	sim.RunUntil(des.Time(10 * time.Minute))
	if ref {
		out.tokensOut = sw.tokensOut
	} else {
		out.tokensOut = inst.tokensOut
	}
	return out, inst
}

// checkAgainstSweep runs a scenario through both engines and fails on
// the first difference: each request's admission, first-token and done
// instants, the completion order, and the tokens emitted. The ring must
// also drain to zero KV, zero context and zero running entries.
func checkAgainstSweep(t testing.TB, sc ringScenario) ringRun {
	t.Helper()
	got, inst := runScenario(t, sc, false)
	want, _ := runScenario(t, sc, true)
	for i := range want.reqs {
		g, w := &got.reqs[i], &want.reqs[i]
		if g.LLMStart != w.LLMStart || g.FirstToken != w.FirstToken || g.Done != w.Done {
			t.Fatalf("request %d (out %d): ring start/first/done %d/%d/%d, sweep %d/%d/%d",
				i, sc.outs[i], g.LLMStart, g.FirstToken, g.Done, w.LLMStart, w.FirstToken, w.Done)
		}
	}
	if !slices.Equal(got.order, want.order) {
		t.Fatalf("completion order: ring %v, sweep %v", got.order, want.order)
	}
	if got.tokensOut != want.tokensOut || len(got.order) != len(sc.outs) {
		t.Fatalf("ring emitted %d tokens over %d completions, sweep %d over %d requests",
			got.tokensOut, len(got.order), want.tokensOut, len(sc.outs))
	}
	if inst.kvUsedTokens != 0 || inst.sumCtx != 0 || inst.run.Len() != 0 {
		t.Fatalf("ring leak at drain: kv=%d ctx=%d running=%d", inst.kvUsedTokens, inst.sumCtx, inst.run.Len())
	}
	// Every completion was announced when its iteration was scheduled,
	// at its instant and at least one minimum decode step ahead.
	done := map[des.Time]int{}
	for i := range want.reqs {
		done[want.reqs[i].Done]++
	}
	if !maps.Equal(got.announced, done) {
		t.Fatalf("announced completions %v, sweep completed %v", got.announced, done)
	}
	if step := des.Time(MinDecodeStep(inst.node, inst.spec, inst.cfg)); got.minLead < step {
		t.Fatalf("a completion announced %d ns ahead, under the minimum decode step %d", got.minLead, step)
	}
	return got
}

// TestRingMatchesSweep: the completion ring reproduces the per-entry
// countdown it replaced on mixed output lengths (1 and 2 among them),
// staggered joins that finish on a shared tick, a MaxSeqs bound that
// keeps a queue waiting, a slowdown episode and a retrieval busy window,
// and announces each completion when its iteration is scheduled.
func TestRingMatchesSweep(t *testing.T) {
	lengths := []int{256, 1, 40, 2, 17, 300, 3, 40, 1, 64, 2, 9, 128, 33, 5, 256, 1, 70}
	sc := ringScenario{maxSeqs: 6}
	for i := 0; i < 90; i++ {
		sc.outs = append(sc.outs, lengths[(i*7)%len(lengths)])
		sc.gaps = append(sc.gaps, des.Time((i*13)%11)*des.Time(4*time.Millisecond))
	}
	run := checkAgainstSweep(t, sc)
	// The scenario must exercise what the ring can get wrong: an entry
	// inserted ahead of one that joined earlier, and two entries that
	// joined apart but finish on the same tick.
	var inserted, tied bool
	for i := range run.reqs {
		for j := range run.reqs {
			a, b := &run.reqs[i], &run.reqs[j]
			if a.FirstToken < b.FirstToken {
				inserted = inserted || a.Done > b.Done
				tied = tied || a.Done == b.Done
			}
		}
	}
	if !inserted || !tied {
		t.Fatalf("scenario too tame: out-of-order join %v, shared completion tick %v", inserted, tied)
	}
}

// FuzzCompletionOrder holds the ring to the sweep reference on fuzzed
// output lengths and submit gaps: each byte pair is one request.
func FuzzCompletionOrder(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 255, 3, 2, 1, 0, 9, 40, 0})
	f.Add([]byte{30, 2, 10, 0, 30, 0, 1, 7, 1, 7, 200, 1, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := ringScenario{maxSeqs: 1 + len(data)%7}
		for i := 0; i+1 < len(data) && len(sc.outs) < 48; i += 2 {
			sc.outs = append(sc.outs, 1+int(data[i])%80)
			sc.gaps = append(sc.gaps, des.Time(data[i+1]%16)*des.Time(3*time.Millisecond))
		}
		checkAgainstSweep(t, sc)
	})
}

// TestWarmRingAllocFree pins the steady state: once warm, an instance
// allocates nothing per decode iteration while requests of mixed
// lengths keep joining and finishing, and its queues keep their arrays:
// AllocsPerRun reads 0 for an array that doubles a few times.
func TestWarmRingAllocFree(t *testing.T) {
	var sim des.Sim
	node := hw.L40SNode()
	cfg := DefaultEngineConfig()
	cfg.MaxSeqs = 16
	inst, err := NewInstance(&sim, node, Llama3_8B, gpu.NewStates(node)[:1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]workload.Request, 24)
	free := make([]*workload.Request, 0, len(reqs))
	for i := range reqs {
		free = append(free, &reqs[i])
	}
	var joined, finished int
	inst.onDone = func(r *workload.Request) {
		free = append(free, r)
		finished++
	}
	lengths := []int32{12, 3, 30, 1, 7, 19, 2, 12}
	cycle := func() {
		if n := len(free); n > 0 {
			r := free[n-1]
			free = free[:n-1]
			*r = workload.Request{ID: joined, Shape: workload.Shape{InputTokens: 64, OutputTokens: lengths[joined%len(lengths)]}}
			joined++
			inst.Submit(r)
		}
		for i := 0; i < 3; i++ {
			sim.Step()
		}
	}
	for i := 0; i < 2000; i++ {
		cycle()
	}
	j0, f0, caps := joined, finished, inst.queueCaps()
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("warm instance allocated %.2f objects per cycle, want 0", allocs)
	}
	if inst.queueCaps() != caps {
		t.Fatalf("queue arrays (waiting, prefilling, run) regrew: capacities %v, warm %v", inst.queueCaps(), caps)
	}
	if joined-j0 < 100 || finished-f0 < 100 {
		t.Fatalf("only %d joins and %d completions while measured", joined-j0, finished-f0)
	}
}
