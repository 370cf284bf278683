package retrieval

import (
	"testing"
	"time"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/workload"
)

type fixture struct {
	sim  *des.Sim
	w    *dataset.Workload
	prof *profiler.AccessProfile
	node hw.Node
	done []*workload.Request
	cfg  Config
	gpus []*gpu.State
	gm   costmodel.GPUScanModel
}

func setup(t *testing.T) *fixture {
	t.Helper()
	gc := dataset.GenConfig{NCenters: 64, PerCenter: 64, Dim: 16, PhysNList: 64, PhysNProbe: 8, Templates: 256, Seed: 5}
	w, err := dataset.Build(dataset.Orcas1K, gc)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profiler.CollectAccess(w, 3000, 41)
	if err != nil {
		t.Fatal(err)
	}
	node := hw.H100Node()
	f := &fixture{sim: &des.Sim{}, w: w, prof: prof, node: node, gm: costmodel.GPUScanModel{GPU: node.GPU}}
	f.gpus = gpu.NewStates(node)
	f.cfg = Config{
		Sim:      f.sim,
		W:        w,
		CPUModel: costmodel.NewSearchModel(node.CPU, w.Spec),
		Forward:  func(r *workload.Request) { f.done = append(f.done, r) },
	}
	return f
}

func (f *fixture) requests(n int) []*workload.Request {
	out := make([]*workload.Request, n)
	for i := range out {
		out[i] = &workload.Request{ID: i, Query: dataset.QueryID(i % f.w.Templates()), Shape: workload.DefaultShape()}
	}
	return out
}

func (f *fixture) plan(t *testing.T, coverage float64, shards int) *splitter.Plan {
	t.Helper()
	plan, err := splitter.Build(f.prof, coverage, shards)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestCPUOnlyCompletesAll(t *testing.T) {
	f := setup(t)
	e := NewCPUOnly(f.cfg)
	reqs := f.requests(5)
	f.sim.At(0, func() {
		for _, r := range reqs {
			e.Submit(r)
		}
	})
	f.sim.Run()
	if len(f.done) != 5 {
		t.Fatalf("forwarded %d of 5", len(f.done))
	}
	for _, r := range f.done {
		if r.SearchDone <= r.SearchStart {
			t.Fatalf("bad search window: %d..%d", r.SearchStart, r.SearchDone)
		}
	}
}

func TestCPUOnlyBatchLatencyMatchesModel(t *testing.T) {
	f := setup(t)
	e := NewCPUOnly(f.cfg)
	reqs := f.requests(4)
	f.sim.At(0, func() {
		for _, r := range reqs {
			e.Submit(r)
		}
	})
	f.sim.Run()
	// First request arrived at an idle engine, so it forms a batch of 1;
	// the remaining 3 form the second batch. Check the second batch's
	// service time against the model.
	var per []int64
	var total int64
	for _, r := range reqs[1:] {
		b := f.w.ScanBytesAll(r.Query)
		per = append(per, b)
		total += b
	}
	_ = per
	want := f.cfg.CPUModel.CQTime(3) + f.cfg.CPUModel.LUTTime(total, 3) + mergeCost
	got := time.Duration(reqs[1].SearchDone - reqs[1].SearchStart)
	if got != want {
		t.Fatalf("batch-of-3 latency %v, want %v", got, want)
	}
}

// TestCPUOnlyHonorsDegrade: the graceful-degradation stamp sheds probes
// on the CPU-only engine as on every other, so a degraded batch scans
// less and finishes sooner.
func TestCPUOnlyHonorsDegrade(t *testing.T) {
	run := func(degrade float64) des.Time {
		f := setup(t)
		e := NewCPUOnly(f.cfg)
		reqs := f.requests(8)
		f.sim.At(0, func() {
			for _, r := range reqs {
				r.Degrade = degrade
				e.Submit(r)
			}
		})
		f.sim.Run()
		return reqs[len(reqs)-1].SearchDone
	}
	if shed, full := run(0.5), run(0); shed >= full {
		t.Fatalf("Degrade 0.5 batch done at %d, not before the Degrade 0 batch at %d", shed, full)
	}
}

func TestDynamicBatchingGrowsUnderBacklog(t *testing.T) {
	f := setup(t)
	e := NewCPUOnly(f.cfg)
	// Submit 1 (forms batch of 1), then 30 during its service.
	reqs := f.requests(31)
	f.sim.At(0, func() { e.Submit(reqs[0]) })
	f.sim.At(1000, func() {
		for _, r := range reqs[1:] {
			e.Submit(r)
		}
	})
	f.sim.Run()
	if e.AvgBatch() < 10 {
		t.Fatalf("avg batch %v; backlog should have batched", e.AvgBatch())
	}
	// All 30 latecomers completed at the same time (batch semantics).
	end := reqs[1].SearchDone
	for _, r := range reqs[2:] {
		if r.SearchDone != end {
			t.Fatal("CPU-only batch did not complete together")
		}
	}
}

func TestMaxBatchCap(t *testing.T) {
	f := setup(t)
	e := NewCPUOnly(f.cfg)
	n := 3 * MaxBatch
	reqs := f.requests(n)
	f.sim.At(0, func() {
		for _, r := range reqs {
			e.Submit(r)
		}
	})
	f.sim.Run()
	if len(f.done) != n {
		t.Fatalf("forwarded %d", len(f.done))
	}
	if e.AvgBatch() > MaxBatch {
		t.Fatalf("avg batch %v exceeds cap", e.AvgBatch())
	}
}

func TestHybridFasterThanCPUOnly(t *testing.T) {
	f := setup(t)
	plan := f.plan(t, 0.3, 8)
	hy := NewHybrid(f.cfg, plan, f.gpus, f.gm)
	reqs := f.requests(6)
	f.sim.At(0, func() {
		for _, r := range reqs {
			hy.Submit(r)
		}
	})
	f.sim.Run()

	f2 := setup(t)
	cp := NewCPUOnly(f2.cfg)
	reqs2 := f2.requests(6)
	f2.sim.At(0, func() {
		for _, r := range reqs2 {
			cp.Submit(r)
		}
	})
	f2.sim.Run()

	// Compare the batch-of-5 service times (first request forms its own
	// batch in both runs).
	hyLat := reqs[1].SearchDone - reqs[1].SearchStart
	cpLat := reqs2[1].SearchDone - reqs2[1].SearchStart
	if hyLat >= cpLat {
		t.Fatalf("hybrid (%v) not faster than CPU-only (%v) at 30%% coverage", hyLat, cpLat)
	}
}

func TestHybridDispatcherPromotesEarly(t *testing.T) {
	f := setup(t)
	plan := f.plan(t, 0.3, 8)
	hy := NewHybrid(f.cfg, plan, f.gpus, f.gm)
	reqs := f.requests(12)
	f.sim.At(0, func() {
		for _, r := range reqs {
			hy.Submit(r)
		}
	})
	f.sim.Run()
	batch := reqs[1:] // the batch of 11
	var minDone, maxDone des.Time = 1 << 62, 0
	for _, r := range batch {
		if r.SearchDone < minDone {
			minDone = r.SearchDone
		}
		if r.SearchDone > maxDone {
			maxDone = r.SearchDone
		}
	}
	if minDone >= maxDone {
		t.Fatal("dispatcher produced no completion spread within the batch")
	}
}

func TestHybridDispatcherOffCompletesTogether(t *testing.T) {
	f := setup(t)
	plan := f.plan(t, 0.3, 8)
	hy := NewHybrid(f.cfg, plan, f.gpus, f.gm)
	hy.Dispatcher = false
	reqs := f.requests(12)
	f.sim.At(0, func() {
		for _, r := range reqs {
			hy.Submit(r)
		}
	})
	f.sim.Run()
	end := reqs[1].SearchDone
	for _, r := range reqs[2:] {
		if r.SearchDone != end {
			t.Fatal("dispatcher-off batch did not complete together")
		}
	}
}

func TestHybridDispatcherImprovesAverage(t *testing.T) {
	// Fig. 14: the dispatcher reduces average search latency.
	run := func(disp bool) float64 {
		f := setup(t)
		plan := f.plan(t, 0.3, 8)
		hy := NewHybrid(f.cfg, plan, f.gpus, f.gm)
		hy.Dispatcher = disp
		reqs := f.requests(16)
		f.sim.At(0, func() {
			for _, r := range reqs {
				hy.Submit(r)
			}
		})
		f.sim.Run()
		var sum float64
		for _, r := range reqs[1:] {
			sum += float64(r.SearchDone - r.SearchStart)
		}
		return sum / float64(len(reqs)-1)
	}
	on := run(true)
	off := run(false)
	if on >= off {
		t.Fatalf("dispatcher did not improve average: on=%v off=%v", on, off)
	}
}

func TestHybridMarksGPUBusy(t *testing.T) {
	f := setup(t)
	plan := f.plan(t, 0.3, 8)
	hy := NewHybrid(f.cfg, plan, f.gpus, f.gm)
	reqs := f.requests(4)
	f.sim.At(0, func() {
		for _, r := range reqs {
			hy.Submit(r)
		}
	})
	f.sim.Run()
	var any bool
	for _, g := range f.gpus {
		if g.RetrievalBusyUntil() > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no GPU marked busy by hybrid kernels")
	}
}

func TestHybridZeroCoverageDegradesToCPU(t *testing.T) {
	f := setup(t)
	plan := f.plan(t, 0, 8)
	hy := NewHybrid(f.cfg, plan, f.gpus, f.gm)
	reqs := f.requests(3)
	f.sim.At(0, func() {
		for _, r := range reqs {
			hy.Submit(r)
		}
	})
	f.sim.Run()
	if len(f.done) != 3 {
		t.Fatalf("forwarded %d", len(f.done))
	}
	for _, g := range f.gpus {
		if g.RetrievalBusyUntil() > 0 {
			t.Fatal("zero-coverage plan touched a GPU")
		}
	}
}

func TestAllGPUFastButBusy(t *testing.T) {
	f := setup(t)
	plan := f.plan(t, 1.0, 8)
	e := NewSharded(f.cfg, plan, f.gpus, f.gm)
	reqs := f.requests(6)
	f.sim.At(0, func() {
		for _, r := range reqs {
			e.Submit(r)
		}
	})
	f.sim.Run()
	if len(f.done) != 6 {
		t.Fatalf("forwarded %d", len(f.done))
	}
	// Full GPU residency: search is far below the CPU baseline.
	lat := time.Duration(reqs[1].SearchDone - reqs[1].SearchStart)
	if lat > 100*time.Millisecond {
		t.Fatalf("ALL-GPU batch latency %v too slow", lat)
	}
	busy := 0
	for _, g := range f.gpus {
		if g.RetrievalBusyUntil() > 0 {
			busy++
		}
	}
	if busy != 8 {
		t.Fatalf("only %d GPUs marked busy", busy)
	}
}

func TestUnprunedProbingSlowerThanPruned(t *testing.T) {
	// The router's probe pruning (§IV-B1): at equal coverage and equal
	// batch, the hybrid engine's shard kernels launch far fewer blocks
	// than IndexIVFShards-style probing, so its GPU phase is faster.
	f := setup(t)
	plan := f.plan(t, 0.3, 8)
	reqsH := f.requests(8)
	hy := NewHybrid(f.cfg, plan, f.gpus, f.gm)
	f.sim.At(0, func() {
		for _, r := range reqsH {
			hy.Submit(r)
		}
	})
	f.sim.Run()

	f2 := setup(t)
	plan2 := f2.plan(t, 0.3, 8)
	reqsU := f2.requests(8)
	he := NewSharded(f2.cfg, plan2, f2.gpus, f2.gm)
	f2.sim.At(0, func() {
		for _, r := range reqsU {
			he.Submit(r)
		}
	})
	f2.sim.Run()

	// Compare the max GPU busy horizon (kernel time) of the two runs.
	var hyBusy, heBusy des.Time
	for i := range f.gpus {
		if b := f.gpus[i].RetrievalBusyUntil(); b > hyBusy {
			hyBusy = b
		}
		if b := f2.gpus[i].RetrievalBusyUntil(); b > heBusy {
			heBusy = b
		}
	}
	if hyBusy >= heBusy {
		t.Fatalf("pruned kernels (%v) not faster than unpruned (%v)", hyBusy, heBusy)
	}
}

// TestDedGPUServesOnTwoGPUs: the whole index on two dedicated GPUs
// serves and forwards every request.
func TestDedGPUServesOnTwoGPUs(t *testing.T) {
	f := setup(t)
	plan := f.plan(t, 1.0, 2)
	e := NewSharded(f.cfg, plan, f.gpus[:2], f.gm)
	reqs := f.requests(3)
	f.sim.At(0, func() {
		for _, r := range reqs {
			e.Submit(r)
		}
	})
	f.sim.Run()
	if len(f.done) != 3 {
		t.Fatalf("forwarded %d", len(f.done))
	}
}

func TestSearchStartStampsQueueing(t *testing.T) {
	f := setup(t)
	e := NewCPUOnly(f.cfg)
	r1 := f.requests(2)
	f.sim.At(0, func() { e.Submit(r1[0]) })
	f.sim.At(1000, func() { e.Submit(r1[1]) }) // arrives while busy
	f.sim.Run()
	if r1[1].SearchStart <= 1000 {
		t.Fatal("second request's SearchStart should reflect queueing")
	}
	if r1[1].ArrivalAt != 0 { // ArrivalAt is set by the generator, not the engine
		t.Log("engines must not touch ArrivalAt")
	}
}
