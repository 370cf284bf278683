package adapt

import (
	"testing"
	"time"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/perfmodel"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/retrieval"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/workload"
)

// fixture wires a controller to a real hybrid engine over a small
// workload, with the monitor window shrunk so tests can drive whole
// windows by hand.
type fixture struct {
	sim  *des.Sim
	w    *dataset.Workload
	eng  *retrieval.Hybrid
	ctrl *Controller
	node hw.Node
}

func setup(t *testing.T, cfg Config) *fixture {
	t.Helper()
	gc := dataset.GenConfig{NCenters: 32, PerCenter: 32, Dim: 8, PhysNList: 32, PhysNProbe: 4, Templates: 128, Seed: 4}
	w, err := dataset.Build(dataset.Orcas1K, gc)
	if err != nil {
		t.Fatal(err)
	}
	node := hw.H100Node()
	prof, err := profiler.CollectAccess(w, 1500, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := splitter.Build(prof, 0.2, node.NumGPUs)
	if err != nil {
		t.Fatal(err)
	}
	cpuModel := costmodel.NewSearchModel(node.CPU, w.Spec)
	perf, err := perfmodel.Fit(profiler.ProfileLatency(cpuModel, profiler.DefaultBatches()))
	if err != nil {
		t.Fatal(err)
	}
	var sim des.Sim
	eng := retrieval.NewHybrid(retrieval.Config{
		Sim: &sim, W: w, CPUModel: cpuModel, Forward: func(*workload.Request) {},
	}, plan, gpu.NewStates(node), costmodel.GPUScanModel{GPU: node.GPU})

	if cfg.Monitor.WindowRequests == 0 {
		cfg.Monitor = MonitorConfig{WindowRequests: 50}
	}
	if cfg.ProfileQueries == 0 {
		cfg.ProfileQueries = 800
	}
	ctrl, err := NewController(cfg, Inputs{
		Sim: &sim, W: w, Node: node,
		SLOTotal: 400 * time.Millisecond, SLOSearch: 150 * time.Millisecond,
		Perf: perf, Mu0: 30, MemKV: 64 << 30,
		Expected: 0.8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Bind(eng)
	return &fixture{sim: &sim, w: w, eng: eng, ctrl: ctrl, node: node}
}

// feedWindow drives one full monitor window of synthetic observations.
func (f *fixture) feedWindow(hit float64, met bool) {
	for i := 0; i < 50; i++ {
		req := &workload.Request{HitRate: hit, ArrivalAt: f.sim.Now()}
		if met {
			req.FirstToken = req.ArrivalAt + int64(100*time.Millisecond)
		} else {
			req.FirstToken = req.ArrivalAt + int64(time.Second)
		}
		f.ctrl.Observe(req)
	}
}

func TestControllerFullCycle(t *testing.T) {
	f := setup(t, Config{})
	oldPlan := f.eng.Plan()

	f.feedWindow(0.8, true) // healthy window: no trigger
	if len(f.ctrl.Rebuilds()) != 0 || f.sim.Pending() != 0 {
		t.Fatal("healthy window scheduled work")
	}

	f.feedWindow(0.3, false) // drifting window: trigger
	if f.sim.Pending() == 0 {
		t.Fatal("drift did not schedule the rebuild chain")
	}

	// Walk the simulated cycle. Once splitting completes, every shard
	// must be diverting to the CPU path until the swap.
	profT := costmodel.ProfilingTime(f.node.CPU, f.w.Spec, calibrationReplay)
	algoT := costmodel.AlgorithmTime(1) // lower bound; step past profiling+a bit
	f.sim.RunUntil(int64(profT) + int64(algoT)/2)
	if got := len(f.ctrl.Rebuilds()); got != 0 {
		t.Fatalf("cycle finished implausibly early: %d records", got)
	}
	f.sim.Run()

	recs := f.ctrl.Rebuilds()
	if len(recs) != 1 {
		t.Fatalf("got %d rebuild records", len(recs))
	}
	rec := recs[0]
	if rec.Aborted != "" {
		t.Fatalf("cycle aborted: %s", rec.Aborted)
	}
	if rec.Timing.Profiling != profT {
		t.Fatalf("profiling priced %v, want %v", rec.Timing.Profiling, profT)
	}
	if !(rec.TriggeredAt < rec.ProfileDoneAt && rec.ProfileDoneAt < rec.AlgoDoneAt &&
		rec.AlgoDoneAt < rec.SplitDoneAt && rec.SplitDoneAt < rec.SwappedAt) {
		t.Fatalf("phase timestamps out of order: %+v", rec)
	}
	if f.eng.Plan() == oldPlan {
		t.Fatal("plan never swapped")
	}
	for g := 0; g < f.eng.Plan().NumShards; g++ {
		if f.eng.ShardRefreshing(g) {
			t.Fatalf("shard %d still refreshing after swap", g)
		}
	}
	if f.ctrl.mon.expected != rec.NewExpected {
		t.Fatalf("monitor expectation %v not re-anchored to %v", f.ctrl.mon.expected, rec.NewExpected)
	}
	if rec.NewRho <= 0 || rec.NewRho > 1 {
		t.Fatalf("new coverage %v outside (0,1]", rec.NewRho)
	}
}

// TestEstimateRebuildMatchesControllerCycle: the offline Fig. 9
// estimate for the plan a cycle installed is, stage by stage, what the
// controller charged that cycle on the timeline.
func TestEstimateRebuildMatchesControllerCycle(t *testing.T) {
	f := setup(t, Config{})
	f.feedWindow(0.3, false)
	f.sim.Run()
	recs := f.ctrl.Rebuilds()
	if len(recs) != 1 || recs[0].Aborted != "" {
		t.Fatalf("want one completed cycle, got %+v", recs)
	}
	rec := recs[0]
	want := EstimateRebuild(f.node, f.w.Spec, f.eng.Plan(), rec.Iterations)
	if want.Splitting <= 0 || want.Loading <= 0 {
		t.Fatalf("degenerate estimate %+v", want)
	}
	if rec.Timing != want {
		t.Fatalf("controller charged %+v, EstimateRebuild prices the installed plan at %+v", rec.Timing, want)
	}
}

func TestControllerDivertsDuringLoad(t *testing.T) {
	f := setup(t, Config{})
	f.feedWindow(0.3, false)
	// Each stage event schedules its successor, so step the chain and
	// catch the load window: after splitDone fires, every shard must be
	// mid-reload, with exactly the swap event pending.
	sawLoadWindow := false
	for f.sim.Pending() > 0 {
		f.sim.Step()
		refreshing := 0
		for g := 0; g < f.eng.Plan().NumShards; g++ {
			if f.eng.ShardRefreshing(g) {
				refreshing++
			}
		}
		if refreshing > 0 {
			sawLoadWindow = true
			if refreshing != f.eng.Plan().NumShards {
				t.Fatalf("%d/%d shards refreshing during load", refreshing, f.eng.Plan().NumShards)
			}
			if len(f.ctrl.Rebuilds()) != 0 {
				t.Fatal("cycle recorded before the swap")
			}
			if f.sim.Pending() != 1 {
				t.Fatalf("load window should have only the swap pending, got %d", f.sim.Pending())
			}
		}
	}
	if !sawLoadWindow {
		t.Fatal("never observed the mid-reload CPU-divert window")
	}
	if len(f.ctrl.Rebuilds()) != 1 {
		t.Fatalf("cycle did not complete: %d records", len(f.ctrl.Rebuilds()))
	}
}

func TestControllerCooldownSuppressesEcho(t *testing.T) {
	f := setup(t, Config{})
	f.feedWindow(0.3, false)
	f.sim.Run()
	if len(f.ctrl.Rebuilds()) != 1 {
		t.Fatalf("first cycle: %d records", len(f.ctrl.Rebuilds()))
	}
	// Echo: the first post-swap window still carries straggler hit
	// rates. It must not start a second cycle.
	f.feedWindow(0.3, false)
	if got := len(f.ctrl.Rebuilds()); got != 1 || f.sim.Pending() != 0 {
		t.Fatalf("echo window started a cycle (records %d, pending %d)", got, f.sim.Pending())
	}
	// After a clean window the cooldown is spent; sustained drift
	// triggers again.
	f.feedWindow(f.ctrl.mon.expected, true)
	f.feedWindow(0.3, false)
	f.sim.Run()
	if got := len(f.ctrl.Rebuilds()); got != 2 {
		t.Fatalf("sustained drift after cooldown did not re-trigger: %d records", got)
	}
}

func TestControllerPendingSurvivesClockStop(t *testing.T) {
	f := setup(t, Config{})
	if f.ctrl.Pending() != nil {
		t.Fatal("pending before any trigger")
	}
	f.feedWindow(0.3, false)
	// The clock stops mid-cycle (RunUntil short of the chain's end, as a
	// pipeline whose drain ends early would): the trigger must still be
	// reportable.
	f.sim.RunUntil(int64(time.Second))
	p := f.ctrl.Pending()
	if p == nil {
		t.Fatal("in-flight cycle not reported")
	}
	if p.Timing.Profiling <= 0 {
		t.Fatalf("pending record missing the priced profiling stage: %+v", p)
	}
	f.sim.Run()
	if f.ctrl.Pending() != nil {
		t.Fatal("pending not cleared after the swap")
	}
}

func TestControllerUnboundIsObserveOnly(t *testing.T) {
	f := setup(t, Config{})
	f.ctrl.in.Engine = nil
	f.feedWindow(0.3, false)
	if f.sim.Pending() != 0 || len(f.ctrl.Rebuilds()) != 0 {
		t.Fatal("unbound controller scheduled a rebuild")
	}
}

func TestControllerValidation(t *testing.T) {
	if _, err := NewController(Config{}, Inputs{}); err == nil {
		t.Fatal("empty inputs accepted")
	}
}

// feedBad drives n drifting observations without closing a window
// boundary unless n reaches the window size.
func (f *fixture) feedBad(n int) {
	for i := 0; i < n; i++ {
		req := &workload.Request{HitRate: 0.3, ArrivalAt: f.sim.Now()}
		req.FirstToken = req.ArrivalAt + int64(time.Second)
		f.ctrl.Observe(req)
	}
}

// TestControllerTriggersExactlyAtWindowEdge: drift only acts when a
// monitor window closes — 49 of 50 drifting observations must schedule
// nothing, and the 50th (the window edge itself) must start the cycle.
func TestControllerTriggersExactlyAtWindowEdge(t *testing.T) {
	f := setup(t, Config{})
	f.feedBad(49)
	if f.sim.Pending() != 0 || len(f.ctrl.Rebuilds()) != 0 {
		t.Fatal("partial window scheduled a rebuild")
	}
	f.feedBad(1)
	if f.sim.Pending() == 0 {
		t.Fatal("window-edge observation did not trigger the cycle")
	}
}

// TestControllerCooldownBoundaries: exactly cooldownWindows drifting
// windows after the swap are suppressed, and the first window past the
// boundary re-triggers.
func TestControllerCooldownBoundaries(t *testing.T) {
	t.Run("default_one_window", func(t *testing.T) {
		f := setup(t, Config{})
		f.feedWindow(0.3, false)
		f.sim.Run()
		if len(f.ctrl.Rebuilds()) != 1 {
			t.Fatalf("first cycle: %d records", len(f.ctrl.Rebuilds()))
		}
		for i := 0; i < cooldownWindows; i++ {
			f.feedWindow(0.3, false)
			if f.sim.Pending() != 0 {
				t.Fatalf("drifting window %d inside the cooldown started a cycle", i+1)
			}
		}
		f.feedWindow(0.3, false)
		if f.sim.Pending() == 0 {
			t.Fatal("first drifting window past the cooldown did not trigger")
		}
		f.sim.Run()
		if got := len(f.ctrl.Rebuilds()); got != 2 {
			t.Fatalf("expected the second cycle to complete, have %d records", got)
		}
	})
}

// TestControllerBackToBackDriftEventsSingleCycle: a second drift signal
// landing while a rebuild is already in flight must not start a
// concurrent cycle — the in-flight chain absorbs it.
func TestControllerBackToBackDriftEventsSingleCycle(t *testing.T) {
	f := setup(t, Config{})
	f.feedWindow(0.3, false)
	pending := f.sim.Pending()
	if pending == 0 {
		t.Fatal("first drift did not trigger")
	}
	f.feedWindow(0.2, false) // second drift event, mid-rebuild
	if f.sim.Pending() != pending {
		t.Fatal("back-to-back drift spawned a concurrent cycle")
	}
	f.sim.Run()
	if got := len(f.ctrl.Rebuilds()); got != 1 {
		t.Fatalf("want exactly one completed cycle, have %d", got)
	}
}

// fakeCompactor is a scripted streaming-ingest surface: fixed tracker
// readings and a fixed compaction price.
type fakeCompactor struct {
	skew, residual float64
	cost           time.Duration
	compacts       int
}

func (c *fakeCompactor) SizeSkew() float64             { return c.skew }
func (c *fakeCompactor) ResidualRatio() float64        { return c.residual }
func (c *fakeCompactor) CompactionCost() time.Duration { return c.cost }
func (c *fakeCompactor) Compact()                      { c.compacts++ }

func TestControllerCompactsBelowEscalationThresholds(t *testing.T) {
	f := setup(t, Config{})
	comp := &fakeCompactor{skew: 1.2, residual: 1.0, cost: 80 * time.Millisecond}
	f.ctrl.BindCompactor(comp)
	oldPlan := f.eng.Plan()

	f.feedWindow(0.3, false)
	if f.sim.Pending() == 0 {
		t.Fatal("drift did not schedule the compaction")
	}
	f.sim.Run()
	recs := f.ctrl.Rebuilds()
	if len(recs) != 1 || !recs[0].Compaction {
		t.Fatalf("expected one compaction record, got %+v", recs)
	}
	if recs[0].CompactionTime != comp.cost {
		t.Fatalf("compaction priced %v, want %v", recs[0].CompactionTime, comp.cost)
	}
	if got := recs[0].SwappedAt - recs[0].TriggeredAt; got != int64(comp.cost) {
		t.Fatalf("compaction applied %v after trigger, want %v", time.Duration(got), comp.cost)
	}
	if comp.compacts != 1 {
		t.Fatalf("compactor ran %d times", comp.compacts)
	}
	if f.eng.Plan() != oldPlan {
		t.Fatal("compaction replaced the plan")
	}

	// Past the skew threshold the same trigger escalates to the full
	// rebuild. The post-compaction cooldown costs one clean window.
	comp.skew = 5
	f.feedWindow(f.ctrl.mon.expected, true)
	f.feedWindow(0.3, false)
	f.sim.Run()
	recs = f.ctrl.Rebuilds()
	if len(recs) != 2 || recs[1].Compaction {
		t.Fatalf("escalation did not run the full rebuild: %+v", recs)
	}
	if comp.compacts != 1 {
		t.Fatalf("escalated cycle also compacted (%d)", comp.compacts)
	}
	if f.eng.Plan() == oldPlan {
		t.Fatal("escalated rebuild never swapped the plan")
	}
}

// TestControllerEscalatesOnRepeatTrigger: a trigger recurring right
// after a compaction escalates to the full rebuild even with the drift
// trackers below both thresholds — the cheap cycle demonstrably didn't
// clear the drift. A completed full rebuild re-arms the shortcut.
func TestControllerEscalatesOnRepeatTrigger(t *testing.T) {
	f := setup(t, Config{})
	comp := &fakeCompactor{skew: 1.0, residual: 1.0, cost: 50 * time.Millisecond}
	f.ctrl.BindCompactor(comp)

	f.feedWindow(0.3, false)
	f.sim.Run()
	if recs := f.ctrl.Rebuilds(); len(recs) != 1 || !recs[0].Compaction {
		t.Fatalf("first trigger should compact, got %+v", recs)
	}

	// Cooldown window, then the drift recurs: trackers still read
	// "overlay", but compaction already had its chance.
	f.feedWindow(f.ctrl.mon.expected, true)
	f.feedWindow(0.3, false)
	f.sim.Run()
	recs := f.ctrl.Rebuilds()
	if len(recs) != 2 || recs[1].Compaction {
		t.Fatalf("repeat trigger did not escalate: %+v", recs)
	}
	if comp.compacts != 1 {
		t.Fatalf("escalated cycle also compacted (%d)", comp.compacts)
	}

	// The full rebuild re-arms the shortcut for the next drift episode.
	f.feedWindow(f.ctrl.mon.expected, true)
	f.feedWindow(0.3, false)
	f.sim.Run()
	recs = f.ctrl.Rebuilds()
	if len(recs) != 3 || !recs[2].Compaction {
		t.Fatalf("shortcut not re-armed after the full rebuild: %+v", recs)
	}
}

func TestControllerCompactionCooldown(t *testing.T) {
	f := setup(t, Config{})
	comp := &fakeCompactor{skew: 1.0, residual: 1.0, cost: 50 * time.Millisecond}
	f.ctrl.BindCompactor(comp)
	f.feedWindow(0.3, false)
	f.sim.Run()
	// The first post-compaction window is the settle period: no second
	// cycle, exactly as after a plan swap.
	f.feedWindow(0.3, false)
	if got := len(f.ctrl.Rebuilds()); got != 1 || f.sim.Pending() != 0 {
		t.Fatalf("echo window started a cycle (records %d, pending %d)", got, f.sim.Pending())
	}
}
