package brownout

import (
	"testing"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/tenant"
	"vectorliterag/internal/workload"
)

func mustController(t *testing.T, cfg Config, budgets []StageBudget, bias []float64) (*des.Sim, *Controller) {
	t.Helper()
	sim := &des.Sim{}
	c, err := NewController(sim, cfg, budgets, bias)
	if err != nil {
		t.Fatal(err)
	}
	return sim, c
}

// threeTier returns budgets/biases for a gold/silver/bronze tenant set,
// biases taken from the real tier mapping so the property test covers
// the values production runs use.
func threeTier() ([]StageBudget, []float64) {
	b := StageBudget{Retrieval: 350 * time.Millisecond, Generation: 600 * time.Millisecond}
	return []StageBudget{b, b, b}, []float64{
		tenant.Gold.BrownoutBias(), tenant.Silver.BrownoutBias(), tenant.Bronze.BrownoutBias(),
	}
}

// TestShedsMonotone is the ladder property test: for every tenant the
// shed fractions are non-decreasing in ladder level, for every level
// they are non-decreasing in tier bias (gold ≤ silver ≤ bronze), no
// effective shed ever exceeds MaxShed, and the DropSQ rung — once
// reached — stays engaged at every deeper level. Swept across MaxShed
// settings including the default.
func TestShedsMonotone(t *testing.T) {
	budgets, bias := threeTier()
	for _, maxShed := range []float64{0, 0.3, 0.5, 0.9} {
		_, c := mustController(t, Config{MaxShed: maxShed}, budgets, bias)
		for tn := 0; tn < len(bias); tn++ {
			prevProbe, prevK, prevDrop := 0.0, 0.0, false
			for lvl := 0; lvl < c.NumLevels(); lvl++ {
				probe, k, drop := c.Sheds(tn, lvl)
				if probe > c.MaxShed() || k > c.MaxShed() {
					t.Fatalf("maxShed=%v tenant=%d level=%d: shed %v/%v exceeds cap %v",
						maxShed, tn, lvl, probe, k, c.MaxShed())
				}
				if probe < prevProbe || k < prevK {
					t.Fatalf("maxShed=%v tenant=%d level=%d: shed decreased (%v<%v or %v<%v)",
						maxShed, tn, lvl, probe, prevProbe, k, prevK)
				}
				if prevDrop && !drop {
					t.Fatalf("maxShed=%v tenant=%d level=%d: DropSQ disengaged after engaging", maxShed, tn, lvl)
				}
				prevProbe, prevK, prevDrop = probe, k, drop
			}
		}
		// Tier ordering: a higher bias never sheds less at any level.
		for lvl := 0; lvl < c.NumLevels(); lvl++ {
			gp, gk, _ := c.Sheds(0, lvl)
			sp, sk, _ := c.Sheds(1, lvl)
			bp, bk, _ := c.Sheds(2, lvl)
			if gp > sp || sp > bp || gk > sk || sk > bk {
				t.Fatalf("maxShed=%v level=%d: tier ordering violated: gold(%v,%v) silver(%v,%v) bronze(%v,%v)",
					maxShed, lvl, gp, gk, sp, sk, bp, bk)
			}
		}
		// Past-end levels clamp to the deepest rung rather than wrapping.
		deepP, deepK, deepDrop := c.Sheds(0, c.NumLevels()-1)
		overP, overK, overDrop := c.Sheds(0, c.NumLevels()+3)
		if overP != deepP || overK != deepK || overDrop != deepDrop {
			t.Fatalf("maxShed=%v: past-end level diverged from deepest rung", maxShed)
		}
	}
}

// feedWindow pushes one full monitoring window of completed requests
// whose retrieval-stage budget ratio is exactly ratio (generation held
// comfortably inside budget).
func feedWindow(c *Controller, cfg Config, b StageBudget, ratio float64) {
	retr := des.Time(float64(b.Retrieval) * ratio)
	for i := 0; i < cfg.window(); i++ {
		req := &workload.Request{
			SearchDone: retr,
			FirstToken: retr + des.Time(b.Generation/10),
		}
		c.Observe(req)
	}
}

// TestControllerHysteresis drives the raise/restore loop directly: one
// over-budget window raises the level, a single good window does not
// restore it, restoreWindows consecutive good ones lower it by exactly
// one, and a dead-band window (between restore and 1) both holds the
// level and resets the good-window streak.
func TestControllerHysteresis(t *testing.T) {
	b := StageBudget{Retrieval: 100 * time.Millisecond, Generation: 100 * time.Millisecond}
	cfg := Config{Window: 8}
	_, c := mustController(t, cfg, []StageBudget{b}, []float64{1})

	feedWindow(c, cfg, b, 2.0)
	if c.Level() != 1 {
		t.Fatalf("one bad window: level %d, want 1", c.Level())
	}
	feedWindow(c, cfg, b, 1.5)
	if c.Level() != 2 {
		t.Fatalf("second bad window: level %d, want 2", c.Level())
	}
	feedWindow(c, cfg, b, 0.1)
	if c.Level() != 2 {
		t.Fatalf("single good window restored early: level %d, want 2", c.Level())
	}
	feedWindow(c, cfg, b, 0.1)
	if c.Level() != 1 {
		t.Fatalf("two good windows: level %d, want 1", c.Level())
	}
	// Dead band: under the raise threshold but over restore — the level
	// holds and the streak restarts, so restoration needs two more
	// clean windows, not one.
	feedWindow(c, cfg, b, 0.85)
	feedWindow(c, cfg, b, 0.1)
	if c.Level() != 1 {
		t.Fatalf("dead band failed to reset streak: level %d, want 1", c.Level())
	}
	feedWindow(c, cfg, b, 0.1)
	if c.Level() != 0 {
		t.Fatalf("full restore: level %d, want 0", c.Level())
	}
	if c.MaxLevel() != 2 {
		t.Fatalf("max level %d, want 2", c.MaxLevel())
	}
	// The ladder never raises past its deepest rung.
	for i := 0; i < 2*c.NumLevels(); i++ {
		feedWindow(c, cfg, b, 3.0)
	}
	if c.Level() != c.NumLevels()-1 {
		t.Fatalf("level %d past ladder depth %d", c.Level(), c.NumLevels())
	}
}

// TestStampAppliesRung: stamping at a deep level degrades the probe
// count, shrinks the shape, and (at the deepest rung) forces the PQ
// codec — while level 0 leaves the request untouched.
func TestStampAppliesRung(t *testing.T) {
	b := StageBudget{Retrieval: 100 * time.Millisecond, Generation: 100 * time.Millisecond}
	cfg := Config{Window: 4}
	_, c := mustController(t, cfg, []StageBudget{b}, []float64{1})

	clean := &workload.Request{Shape: workload.DefaultShape()}
	c.Stamp(clean)
	if clean.Degrade != 0 || clean.KShed != 0 || clean.ForcePQ || c.StampedRequests() != 0 {
		t.Fatalf("level 0 stamped the request: %+v", clean)
	}

	for i := 0; i < c.NumLevels(); i++ { // drive to the deepest rung
		feedWindow(c, cfg, b, 2.0)
	}
	req := &workload.Request{Shape: workload.DefaultShape()}
	c.Stamp(req)
	if req.Degrade == 0 || req.KShed == 0 || !req.ForcePQ {
		t.Fatalf("deepest rung left knobs unstamped: %+v", req)
	}
	def := workload.DefaultShape()
	if req.Shape.TopK >= def.TopK || req.Shape.InputTokens >= def.InputTokens {
		t.Fatalf("shape did not shrink: %+v vs %+v", req.Shape, def)
	}
	if req.Shape.OutputTokens != def.OutputTokens {
		t.Fatalf("output tokens moved: %d", req.Shape.OutputTokens)
	}
	if c.StampedRequests() != 1 || c.MeanShed() == 0 {
		t.Fatalf("stamp accounting: %d stamped, mean shed %v", c.StampedRequests(), c.MeanShed())
	}
	// Degrade merges by max with an upstream (resilient-router) shed.
	preShed := &workload.Request{Shape: workload.DefaultShape(), Degrade: 0.9}
	c.Stamp(preShed)
	if preShed.Degrade != 0.9 {
		t.Fatalf("stamp lowered a deeper upstream shed to %v", preShed.Degrade)
	}
}

// TestObserveSkipsUnserved: rejected or failed requests (no first
// token) must not feed the monitor — their damage is visible through
// the requests that did complete.
func TestObserveSkipsUnserved(t *testing.T) {
	b := StageBudget{Retrieval: 100 * time.Millisecond, Generation: 100 * time.Millisecond}
	cfg := Config{Window: 2}
	_, c := mustController(t, cfg, []StageBudget{b}, []float64{1})
	for i := 0; i < 10*cfg.window(); i++ {
		c.Observe(&workload.Request{}) // never served
	}
	if c.Level() != 0 {
		t.Fatalf("unserved requests moved the level to %d", c.Level())
	}
}

// TestTimeInBrownout: virtual time above level 0 accumulates across
// enter/exit transitions and includes the open interval.
func TestTimeInBrownout(t *testing.T) {
	b := StageBudget{Retrieval: 100 * time.Millisecond, Generation: 100 * time.Millisecond}
	cfg := Config{Window: 2}
	sim, c := mustController(t, cfg, []StageBudget{b}, []float64{1})

	feedWindow(c, cfg, b, 2.0) // enter brownout at t=0
	if got := c.TimeInBrownout(des.Time(5 * time.Second)); got != 5*time.Second {
		t.Fatalf("open interval: %v, want 5s", got)
	}
	// Exit at t=3s: the closed interval is banked and the clock stops.
	sim.At(des.Time(3*time.Second), func() {
		for i := 0; i < restoreWindows; i++ {
			feedWindow(c, cfg, b, 0.1)
		}
	})
	for sim.Step() {
	}
	if c.Level() != 0 {
		t.Fatalf("level %d after restore", c.Level())
	}
	if got := c.TimeInBrownout(des.Time(10 * time.Second)); got != 3*time.Second {
		t.Fatalf("banked interval: %v, want 3s", got)
	}
}

// TestNewControllerValidation rejects the configurations that would
// silently pin the ladder or index out of range.
func TestNewControllerValidation(t *testing.T) {
	ok := StageBudget{Retrieval: time.Second, Generation: time.Second}
	cases := []struct {
		name    string
		sim     *des.Sim
		budgets []StageBudget
		bias    []float64
	}{
		{"nil sim", nil, []StageBudget{ok}, []float64{1}},
		{"no budgets", &des.Sim{}, nil, nil},
		{"length mismatch", &des.Sim{}, []StageBudget{ok, ok}, []float64{1}},
		{"zero retrieval budget", &des.Sim{}, []StageBudget{{Generation: time.Second}}, []float64{1}},
		{"zero generation budget", &des.Sim{}, []StageBudget{{Retrieval: time.Second}}, []float64{1}},
		{"negative bias", &des.Sim{}, []StageBudget{ok}, []float64{-0.1}},
		{"bias above one", &des.Sim{}, []StageBudget{ok}, []float64{1.1}},
	}
	for _, tc := range cases {
		if _, err := NewController(tc.sim, Config{}, tc.budgets, tc.bias); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewController(&des.Sim{}, Config{}, []StageBudget{ok}, []float64{0}); err != nil {
		t.Errorf("zero bias (never shed) rejected: %v", err)
	}
}
