package retrieval

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/workload"
)

// fakeLive is a deterministic streaming-ingest overlay: every cluster
// carries a fixed integer delta, so pricing a query's full probe list
// equals ScanBytesAll exactly, as on ingest.Store.
type fakeLive struct{ w *dataset.Workload }

func (l fakeLive) Delta(c int) float64 { return float64(c%5) * 4096 }

func (l fakeLive) ScanBytesAll(q dataset.QueryID) int64 {
	var d float64
	for _, c := range l.w.Probes(q) {
		d += l.Delta(c)
	}
	return l.w.ScanBytesAll(q) + int64(d)
}

// fresh returns a copy of the fixture with its own timeline, GPU states
// and completion record, sharing the built workload and profile.
func (f *fixture) fresh() *fixture {
	g := *f
	g.sim = &des.Sim{}
	g.gpus = gpu.NewStates(f.node)
	g.done = nil
	g.cfg.Sim = g.sim
	g.cfg.NVMe = f.node.NVMe
	g.cfg.Forward = func(r *workload.Request) { g.done = append(g.done, r) }
	return &g
}

// digestScenario is one engine configuration of TestEngineDigestPinned:
// build constructs the engine on the fresh fixture; prep may stamp the
// requests and schedule mid-run control events.
type digestScenario struct {
	name  string
	build func(t *testing.T, f *fixture) Engine
	prep  func(t *testing.T, f *fixture, e Engine, reqs []*workload.Request)
}

func withPrec(t *testing.T, f *fixture, coverage float64, nvme bool) *splitter.Plan {
	plan := f.plan(t, coverage, f.node.NumGPUs)
	plan.AttachPrecision(sqPrecision(f, plan, 0.04, nvme))
	return plan
}

func hybrid(coverage float64, mut func(*Hybrid)) func(*testing.T, *fixture) Engine {
	return func(t *testing.T, f *fixture) Engine {
		e := NewHybrid(f.cfg, f.plan(t, coverage, f.node.NumGPUs), f.gpus, f.gm)
		if mut != nil {
			mut(e)
		}
		return e
	}
}

func multiTenant(t *testing.T, f *fixture, slots []TenantSlot) Engine {
	e, err := NewMultiTenant(f.cfg, slots, f.gpus, f.gm)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func slowFrom0(factor float64, until des.Time) func(*testing.T, *fixture, Engine, []*workload.Request) {
	return func(_ *testing.T, _ *fixture, e Engine, _ []*workload.Request) {
		e.(Slowdowner).SetSlowdown(factor, until)
	}
}

func stampDegrade(_ *testing.T, _ *fixture, _ Engine, reqs []*workload.Request) {
	for i, r := range reqs {
		r.Degrade = float64(i%3) * 0.25
	}
}

func digestScenarios() []digestScenario {
	allGPU := func(t *testing.T, f *fixture) Engine {
		return NewSharded(f.cfg, "ALL-GPU", f.plan(t, 1, f.node.NumGPUs), f.gpus, f.gm)
	}
	dedGPU := func(t *testing.T, f *fixture) Engine {
		return NewSharded(f.cfg, "DED-GPU", f.plan(t, 1, 2), f.gpus[6:], f.gm)
	}
	hedra := func(t *testing.T, f *fixture) Engine {
		return NewSharded(f.cfg, "HedraRAG", f.plan(t, 0.4, f.node.NumGPUs), f.gpus, f.gm)
	}
	return []digestScenario{
		{name: "cpu", build: func(_ *testing.T, f *fixture) Engine { return NewCPUOnly(f.cfg) }},
		{name: "cpu-live", build: func(_ *testing.T, f *fixture) Engine {
			f.cfg.Live = fakeLive{f.w}
			return NewCPUOnly(f.cfg)
		}},
		{name: "cpu-degrade", build: func(_ *testing.T, f *fixture) Engine { return NewCPUOnly(f.cfg) }, prep: stampDegrade},
		{name: "hybrid", build: hybrid(0.3, nil)},
		{name: "hybrid-live", build: func(t *testing.T, f *fixture) Engine {
			f.cfg.Live = fakeLive{f.w}
			return hybrid(0.3, nil)(t, f)
		}},
		{name: "hybrid-nodispatch", build: hybrid(0.3, func(e *Hybrid) { e.Dispatcher = false })},
		{name: "hybrid-degrade-forcepq",
			build: func(t *testing.T, f *fixture) Engine {
				return NewHybrid(f.cfg, withPrec(t, f, 0.3, false), f.gpus, f.gm)
			},
			prep: func(t *testing.T, f *fixture, e Engine, reqs []*workload.Request) {
				stampDegrade(t, f, e, reqs)
				for i, r := range reqs {
					r.ForcePQ = i%2 == 1
				}
			}},
		{name: "sq8", build: func(t *testing.T, f *fixture) Engine {
			return NewHybrid(f.cfg, withPrec(t, f, 0.3, false), f.gpus, f.gm)
		}},
		{name: "sq8-nvme", build: func(t *testing.T, f *fixture) Engine {
			return NewHybrid(f.cfg, withPrec(t, f, 0.3, true), f.gpus, f.gm)
		}},
		{name: "hotswap",
			build: hybrid(0.2, nil),
			prep: func(t *testing.T, f *fixture, e Engine, _ []*workload.Request) {
				hs := e.(HotSwapper)
				next := f.plan(t, 0.5, f.node.NumGPUs)
				f.sim.At(des.Time(20e6), func() { hs.SetShardRefreshing(0, true); hs.SetShardRefreshing(3, true) })
				f.sim.At(des.Time(90e6), func() { e.(Slowdowner).SetSlowdown(1.8, des.Time(250e6)) })
				f.sim.At(des.Time(200e6), func() { hs.SetPlan(next) })
			}},
		{name: "allgpu", build: allGPU},
		{name: "allgpu-slow", build: allGPU, prep: slowFrom0(2.5, des.Time(120e6))},
		{name: "dedgpu", build: dedGPU},
		{name: "dedgpu-slow", build: dedGPU, prep: slowFrom0(2.5, des.Time(120e6))},
		{name: "hedra", build: hedra},
		{name: "hedra-slow", build: hedra, prep: slowFrom0(2.5, des.Time(120e6))},
		{name: "mt1", build: func(t *testing.T, f *fixture) Engine {
			return multiTenant(t, f, []TenantSlot{{W: f.w, Plan: f.plan(t, 0.3, f.node.NumGPUs), CPUModel: f.cfg.CPUModel}})
		}},
		{name: "mt3",
			build: func(t *testing.T, f *fixture) Engine {
				return multiTenant(t, f, []TenantSlot{
					{W: f.w, Plan: f.plan(t, 0.3, f.node.NumGPUs), CPUModel: f.cfg.CPUModel, Priority: 2},
					{W: f.w, Plan: f.plan(t, 0.1, f.node.NumGPUs), CPUModel: f.cfg.CPUModel, Priority: 0, Live: fakeLive{f.w}},
					{W: f.w, Plan: withPrec(t, f, 0.5, true), CPUModel: f.cfg.CPUModel, Priority: 1},
				})
			},
			prep: func(_ *testing.T, _ *fixture, _ Engine, reqs []*workload.Request) {
				for i, r := range reqs {
					r.Tenant = i % 3
				}
			}},
	}
}

// digestRequests returns n requests over a spread of templates.
func digestRequests(f *fixture, n int) []*workload.Request {
	out := make([]*workload.Request, n)
	for i := range out {
		out[i] = &workload.Request{ID: i, Query: dataset.QueryID(i * 37 % f.w.Templates()), Shape: workload.DefaultShape()}
	}
	return out
}

// engineDigest runs one scenario — 90 requests in three waves of 30,
// spaced 1 ms apart within a wave and 150 ms between waves — and hashes
// everything the engine decided: each forwarded request's ID, search
// window and hit rate in forwarding order, the mean batch, a nonzero
// recall gain, and every GPU's retrieval busy horizon.
func engineDigest(t *testing.T, base *fixture, sc digestScenario) uint64 {
	f := base.fresh()
	e := sc.build(t, f)
	reqs := digestRequests(f, 90)
	if sc.prep != nil {
		sc.prep(t, f, e, reqs)
	}
	for i, r := range reqs {
		at := des.Time(i/30)*des.Time(150e6) + des.Time(i%30)*des.Time(1e6)
		f.sim.AtArg(at, func(a any) { e.Submit(a.(*workload.Request)) }, r)
	}
	f.sim.Run()
	if len(f.done) != len(reqs) {
		t.Fatalf("%s: forwarded %d of %d", sc.name, len(f.done), len(reqs))
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range f.done {
		put(uint64(r.ID))
		put(uint64(r.SearchStart))
		put(uint64(r.SearchDone))
		put(math.Float64bits(r.HitRate))
	}
	put(math.Float64bits(e.AvgBatch()))
	if rr, ok := e.(RecallReporter); ok && rr.RecallGain() != 0 {
		put(math.Float64bits(rr.RecallGain()))
	}
	for _, g := range f.gpus {
		put(uint64(g.RetrievalBusyUntil()))
	}
	return h.Sum64()
}

// TestEngineDigestPinned pins every engine configuration's complete
// observable output. The constants were recorded before the hybrid,
// multi-tenant and GPU-sharded engines shared one batch pipeline, so any
// drift in batching, routing, stage pricing, precision dispatch,
// degradation, slowdown or hot-swap handling shows up as a changed hash.
func TestEngineDigestPinned(t *testing.T) {
	want := map[string]uint64{
		"cpu": 0x3a9149b0751f63bb,
		// Recorded with the CPU-only engine's Degrade fix; before it, this
		// scenario hashed as "cpu".
		"cpu-degrade":            0xa8dc32a0eabae926,
		"cpu-live":               0x79a06b2a20aa1362,
		"hybrid":                 0x4c3bbe9ca4f115a7,
		"hybrid-live":            0xf22c009a30677043,
		"hybrid-nodispatch":      0x98ebf7aabffd7ff6,
		"hybrid-degrade-forcepq": 0x004c522a8a49c63c,
		"sq8":                    0xdc47343fb6e8cd1f,
		"sq8-nvme":               0x08d714bbf9ef7965,
		"hotswap":                0x15bafaa6a8a4f935,
		"allgpu":                 0xb621976b3b18e35e,
		"allgpu-slow":            0x659e2d07b16c7b0f,
		"dedgpu":                 0x0bb7cfe473d612c1,
		"dedgpu-slow":            0xcaa623fa9856f591,
		"hedra":                  0x56395ad1c5e7ca70,
		"hedra-slow":             0xd4ce6b664fc9ffdc,
		// One tenant is the hybrid engine, so "mt1" hashes as "hybrid".
		"mt1": 0x4c3bbe9ca4f115a7,
		"mt3": 0x2ed40f8837cca08b,
	}
	base := setup(t)
	for _, sc := range digestScenarios() {
		if got := engineDigest(t, base, sc); got != want[sc.name] {
			t.Errorf("%s: digest %#016x, want %#016x", sc.name, got, want[sc.name])
		}
	}
}
