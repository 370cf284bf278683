package adapt

import (
	"strings"
	"testing"
	"time"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/splitter"
)

// newMonitor returns a monitor with the given window and expectation.
func newMonitor(window int, expected float64) *monitor {
	return &monitor{cfg: MonitorConfig{WindowRequests: window}, expected: expected}
}

// TestMonitorConfigDefaults: the zero window takes the paper's default,
// a set one stays, and a negative one is rejected.
func TestMonitorConfigDefaults(t *testing.T) {
	got, err := MonitorConfig{}.withDefaults()
	if err != nil || got != (MonitorConfig{WindowRequests: 2000}) {
		t.Fatalf("zero config filled to %+v (%v)", got, err)
	}
	got, err = MonitorConfig{WindowRequests: 50}.withDefaults()
	if err != nil || got != (MonitorConfig{WindowRequests: 50}) {
		t.Fatalf("set window filled to %+v (%v)", got, err)
	}
	if _, err := (MonitorConfig{WindowRequests: -1}).withDefaults(); err == nil || !strings.Contains(err.Error(), "WindowRequests") {
		t.Fatalf("negative window: err = %v, want one naming WindowRequests", err)
	}
}

func TestMonitorNoDriftNoTrigger(t *testing.T) {
	m := newMonitor(100, 0.8)
	for i := 0; i < 500; i++ {
		if m.record(0.8, true) {
			t.Fatal("healthy traffic triggered an update")
		}
	}
	if m.windows != 5 {
		t.Fatalf("windows closed = %d, want 5", m.windows)
	}
}

func TestMonitorDriftTriggers(t *testing.T) {
	m := newMonitor(100, 0.8)
	triggers := 0
	// Observed hit rate collapses to 0.4 and SLO attainment to ~0.5.
	for i := 0; i < 100; i++ {
		if m.record(0.4, i%2 == 0) {
			triggers++
		}
	}
	if triggers != 1 {
		t.Fatalf("triggers = %d, want 1 within one window", triggers)
	}
}

func TestMonitorSLOAloneInsufficient(t *testing.T) {
	// Both conditions must hold (paper: attainment below threshold AND
	// hit rates diverging): bad SLO with on-model hit rates means the
	// bottleneck is elsewhere, so no index rebuild.
	m := newMonitor(100, 0.8)
	for i := 0; i < 300; i++ {
		if m.record(0.8, false) {
			t.Fatal("SLO misses without hit-rate drift triggered a rebuild")
		}
	}
}

func TestMonitorDivergenceAloneInsufficient(t *testing.T) {
	// The mirror case: hit rates far off the model but every request
	// meeting its SLO means the plan is stale yet harmless — rebuilding
	// would spend a cycle for no attainment gain.
	m := newMonitor(100, 0.8)
	for i := 0; i < 300; i++ {
		if m.record(0.3, true) {
			t.Fatal("hit-rate divergence with healthy SLOs triggered a rebuild")
		}
	}
}

func TestMonitorWindowResetDiscardsPartial(t *testing.T) {
	m := newMonitor(100, 0.8)
	// 99 drifting observations — one short of a window — then an
	// explicit reset: the poison must not carry into the next window.
	for i := 0; i < 99; i++ {
		if m.record(0.3, false) {
			t.Fatal("triggered before the window closed")
		}
	}
	if m.n != 99 {
		t.Fatalf("window holds %d requests, want 99", m.n)
	}
	m.reset()
	if m.n != 0 {
		t.Fatalf("window not cleared: %d", m.n)
	}
	// A fresh window of healthy traffic closes clean.
	for i := 0; i < 100; i++ {
		if m.record(0.8, true) {
			t.Fatal("healthy window after reset triggered")
		}
	}
	if m.windows != 1 {
		t.Fatalf("windows closed = %d, want 1 (the reset window must not count)", m.windows)
	}
}

func TestMonitorSetExpectedSuppressesRetrigger(t *testing.T) {
	// After a plan swap the observed hit rate settles at a new level.
	// Re-anchoring the expectation must stop the monitor from treating
	// the new normal as divergence, even while attainment is still
	// recovering from the backlog.
	m := newMonitor(100, 0.8)
	triggers := 0
	for i := 0; i < 100; i++ {
		if m.record(0.4, i%2 == 0) {
			triggers++
		}
	}
	if triggers != 1 {
		t.Fatalf("drift window triggered %d times, want 1", triggers)
	}
	// The swap: new plan serves hit rates near 0.45; expectation follows.
	m.expected = 0.45
	m.reset()
	for i := 0; i < 400; i++ {
		// Attainment still poor while the queue drains, but hit rates are
		// on-model for the new plan: no re-trigger.
		if m.record(0.44, i%3 != 0) {
			t.Fatal("on-model window after re-anchoring re-triggered")
		}
	}
}

func TestMonitorWindowResets(t *testing.T) {
	m := newMonitor(50, 0.8)
	// One drifting window, then healthy windows: only one trigger.
	triggers := 0
	for i := 0; i < 50; i++ {
		if m.record(0.3, false) {
			triggers++
		}
	}
	for i := 0; i < 200; i++ {
		if m.record(0.8, true) {
			t.Fatal("healthy window after reset triggered")
		}
	}
	if triggers != 1 {
		t.Fatalf("triggers = %d", triggers)
	}
}

func TestRebuildTimingWithinPaperEnvelope(t *testing.T) {
	// Fig. 9: all stages complete in under a minute; per-shard loading
	// under ten seconds.
	gc := dataset.GenConfig{NCenters: 64, PerCenter: 64, Dim: 16, PhysNList: 64, PhysNProbe: 8, Templates: 256, Seed: 9}
	for _, spec := range []dataset.Spec{dataset.WikiAll, dataset.Orcas1K, dataset.Orcas2K} {
		w, err := dataset.Build(spec, gc)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profiler.CollectAccess(w, 2000, 3)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := splitter.Build(prof, 0.2, 8)
		if err != nil {
			t.Fatal(err)
		}
		tm := EstimateRebuild(hw.H100Node(), spec, plan, 12)
		if err := tm.Validate(); err != nil {
			t.Errorf("%s: %v (timing %+v)", spec.Name, err, tm)
		}
		if tm.Profiling <= 0 || tm.Algorithm <= 0 || tm.Splitting <= 0 || tm.Loading <= 0 {
			t.Errorf("%s: degenerate stage in %+v", spec.Name, tm)
		}
		if tm.Total() < 5*time.Second {
			t.Errorf("%s: rebuild %v implausibly fast", spec.Name, tm.Total())
		}
	}
}

func TestRebuildScalesWithIndexSize(t *testing.T) {
	gc := dataset.GenConfig{NCenters: 64, PerCenter: 64, Dim: 16, PhysNList: 64, PhysNProbe: 8, Templates: 256, Seed: 9}
	w1, _ := dataset.Build(dataset.WikiAll, gc)
	w2, _ := dataset.Build(dataset.Orcas2K, gc)
	p1, _ := profiler.CollectAccess(w1, 2000, 3)
	p2, _ := profiler.CollectAccess(w2, 2000, 3)
	plan1, _ := splitter.Build(p1, 0.2, 8)
	plan2, _ := splitter.Build(p2, 0.2, 8)
	t1 := EstimateRebuild(hw.H100Node(), dataset.WikiAll, plan1, 12)
	t2 := EstimateRebuild(hw.H100Node(), dataset.Orcas2K, plan2, 12)
	if t2.Loading <= t1.Loading {
		t.Fatalf("bigger index should load slower: %v vs %v", t2.Loading, t1.Loading)
	}
	if t2.Splitting <= t1.Splitting {
		t.Fatalf("bigger index should split slower: %v vs %v", t2.Splitting, t1.Splitting)
	}
}

func TestValidateRejectsSlowRebuild(t *testing.T) {
	if err := (RebuildTiming{Profiling: 3 * time.Minute}).Validate(); err == nil {
		t.Fatal("3-minute rebuild accepted")
	}
	if err := (RebuildTiming{Loading: 30 * time.Second}).Validate(); err == nil {
		t.Fatal("30s shard load accepted")
	}
}
