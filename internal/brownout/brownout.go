// Package brownout implements closed-loop overload control for the
// serving pipeline: per-stage latency budgets, a windowed monitor on
// the collector path, and a fixed knob-shedding ladder that trades
// retrieval quality for availability when a stage overruns its budget.
//
// The control loop runs entirely on the DES timeline. Completed
// requests are observed where the collector records them (wired via
// serve.Tee, the same pattern adapt.Controller uses); each closes out
// a ratio of measured stage latency to that tenant's stage budget.
// Every Window observations the controller reads the p90 of those
// ratios: a stage past its budget raises the ladder level, both stages
// comfortably under it for restoreWindows consecutive windows lowers
// it. The asymmetry — raise on one bad window, restore only after
// several good ones — is the hysteresis that keeps the loop from
// flapping at the budget boundary.
//
// Shedding is stamped per request at scheduler dispatch time (the
// FairScheduler's OnDispatch hook), biased per tenant so bronze sheds
// before silver before gold. The rungs reuse existing downstream
// machinery: Probe rides workload.Request.Degrade (the resilient
// router's nprobe-shed path), K rides a Shape mutation the LLM
// engine prices, and DropSQ rides Request.ForcePQ
// (the PR 9 per-cluster codec dispatch, run through the base PQ codec).
package brownout

import (
	"fmt"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/stats"
	"vectorliterag/internal/workload"
)

// Rung is one level of the knob-shedding ladder: the shed fractions
// applied (before tier bias) to every request dispatched while the
// controller holds this level.
type Rung struct {
	// Probe is the nprobe shed fraction, stamped onto Request.Degrade —
	// the cheapest quality knob, shed first.
	Probe float64
	// K is the rerank-depth shed fraction: Shape.TopK and the
	// context-dependent input tokens shrink by this fraction, cutting
	// both retrieval rerank work and LLM prefill cost.
	K float64
	// DropSQ, the last resort, scans SQ8-upgraded clusters through
	// their base PQ codec (ForcePQ), giving back the precision
	// refinement's recall gain for its scan-byte cost.
	DropSQ bool
}

// Ladder is the fixed shedding order: nprobe first, then rerank depth,
// precision last — quality knobs in increasing order of recall cost,
// the quality-before-availability trade RAG-Stack argues for.
func Ladder() []Rung {
	return []Rung{
		{},                                 // level 0: fair weather, nothing shed
		{Probe: 0.2},                       // shave the probe tail
		{Probe: 0.4},                       // deeper nprobe shed
		{Probe: 0.4, K: 0.3},               // start cutting rerank depth / context
		{Probe: 0.6, K: 0.5},               // deep shed on both
		{Probe: 0.6, K: 0.5, DropSQ: true}, // give back SQ8 recall
	}
}

// StageBudget is one tenant's latency budget split across the two
// pipeline stages. Retrieval is measured arrival→SearchDone (queueing
// included — queueing is precisely the symptom overload control must
// see), generation SearchDone→FirstToken.
type StageBudget struct {
	Retrieval  time.Duration
	Generation time.Duration
}

const (
	// restore is the ratio both stage p90s must stay under for a window
	// to count toward restoration: comfortably inside the budget, not
	// just barely under it.
	restore = 0.7
	// restoreWindows is how many consecutive good windows lower the
	// level by one.
	restoreWindows = 2
)

// Config tunes the controller. The zero value of every field selects a
// sensible default, so Config{} is a working configuration.
type Config struct {
	// Window is the number of completed requests per monitoring window
	// (default 64).
	Window int
	// MaxShed caps every stamped shed fraction after tier bias
	// (default 0.6), so even the deepest brownout leaves a floor of
	// retrieval quality.
	MaxShed float64
}

func (c Config) window() int {
	if c.Window <= 0 {
		return 64
	}
	return c.Window
}

func (c Config) maxShed() float64 {
	if c.MaxShed <= 0 {
		return 0.6
	}
	return c.MaxShed
}

// Controller is the closed-loop brownout state machine. It is
// single-goroutine like the simulator timeline it runs on; in a
// sharded run each replica owns its own controller, so decisions
// depend only on that replica's schedule and the bit-identical
// schedule contract is preserved for any worker count.
type Controller struct {
	sim     *des.Sim
	cfg     Config
	ladder  []Rung
	budgets []StageBudget // per tenant
	bias    []float64     // per tenant, from Tier.BrownoutBias

	level    int
	maxLevel int
	okStreak int

	retrRatios []float64
	genRatios  []float64
	scratch    []float64

	stamped   int
	shedSum   float64
	enteredAt des.Time // level left 0 at this instant (valid when level > 0)
	inBrown   time.Duration
}

// NewController builds a controller over the given per-tenant stage
// budgets and tier biases (parallel slices; one entry each in a
// single-tenant run). Every budget must be positive — a zero budget
// would make every request an overrun and pin the ladder at max.
func NewController(sim *des.Sim, cfg Config, budgets []StageBudget, bias []float64) (*Controller, error) {
	if sim == nil {
		return nil, fmt.Errorf("brownout: nil simulator")
	}
	if len(budgets) == 0 || len(budgets) != len(bias) {
		return nil, fmt.Errorf("brownout: need matching budgets and biases, got %d and %d",
			len(budgets), len(bias))
	}
	for i, b := range budgets {
		if b.Retrieval <= 0 || b.Generation <= 0 {
			return nil, fmt.Errorf("brownout: tenant %d non-positive stage budget %v/%v",
				i, b.Retrieval, b.Generation)
		}
	}
	for i, v := range bias {
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("brownout: tenant %d bias %v outside [0,1]", i, v)
		}
	}
	w := cfg.window()
	return &Controller{
		sim:        sim,
		cfg:        cfg,
		ladder:     Ladder(),
		budgets:    append([]StageBudget(nil), budgets...),
		bias:       append([]float64(nil), bias...),
		retrRatios: make([]float64, 0, w),
		genRatios:  make([]float64, 0, w),
		scratch:    make([]float64, 0, w),
	}, nil
}

// Observe feeds one completed request into the monitor — wire it into
// the collector-path Tee. Requests that never produced a first token
// (rejected, failed) carry no stage latencies and are skipped; their
// damage shows up through the latencies of the requests that did
// complete around them.
func (c *Controller) Observe(req *workload.Request) {
	if req.FirstToken == 0 || req.SearchDone == 0 {
		return
	}
	t := c.clamp(req.Tenant)
	b := c.budgets[t]
	c.retrRatios = append(c.retrRatios, float64(req.SearchDone-req.ArrivalAt)/float64(b.Retrieval))
	c.genRatios = append(c.genRatios, float64(req.FirstToken-req.SearchDone)/float64(b.Generation))
	if len(c.retrRatios) >= c.cfg.window() {
		c.decide()
	}
}

// decide closes the window: p90 of the budget ratios per stage, then
// raise / hold / restore.
func (c *Controller) decide() {
	retr := c.p90(c.retrRatios)
	gen := c.p90(c.genRatios)
	c.retrRatios = c.retrRatios[:0]
	c.genRatios = c.genRatios[:0]
	switch {
	case retr > 1 || gen > 1:
		c.okStreak = 0
		if c.level < len(c.ladder)-1 {
			c.setLevel(c.level + 1)
		}
	case retr < restore && gen < restore:
		c.okStreak++
		if c.okStreak >= restoreWindows && c.level > 0 {
			c.setLevel(c.level - 1)
			c.okStreak = 0
		}
	default:
		// In the dead band between restore and 1: hold the level and
		// restart the good-window count.
		c.okStreak = 0
	}
}

func (c *Controller) p90(sample []float64) float64 {
	c.scratch = append(c.scratch[:0], sample...)
	var p90 [1]float64
	stats.SelectPercentiles(c.scratch, []float64{0.90}, p90[:])
	return p90[0]
}

// setLevel moves the ladder level and keeps the time-in-brownout
// accounting straight across 0 ↔ >0 transitions.
func (c *Controller) setLevel(l int) {
	if c.level == 0 && l > 0 {
		c.enteredAt = c.sim.Now()
	}
	if c.level > 0 && l == 0 {
		c.inBrown += time.Duration(c.sim.Now() - c.enteredAt)
	}
	c.level = l
	if l > c.maxLevel {
		c.maxLevel = l
	}
}

// Stamp applies the current rung to a request about to be dispatched —
// wire it as the FairScheduler's OnDispatch hook. Stamping at dispatch
// rather than arrival means a request that queued through a level
// change gets the level in force when it actually enters service.
func (c *Controller) Stamp(req *workload.Request) {
	if c.level == 0 {
		return
	}
	probe, k, dropSQ := c.Sheds(req.Tenant, c.level)
	if probe > req.Degrade {
		req.Degrade = probe
	}
	if k > 0 {
		req.Shape = shedShape(req.Shape, k)
	}
	if dropSQ {
		req.ForcePQ = true
	}
	c.stamped++
	c.shedSum += probe
}

// Sheds returns the effective shed triple for a tenant at a ladder
// level: the rung's fractions scaled by the tenant's tier bias and
// clamped to MaxShed. Pure — the property tests sweep it directly.
func (c *Controller) Sheds(tenant, level int) (probe, k float64, dropSQ bool) {
	if level <= 0 || level >= len(c.ladder) {
		if level >= len(c.ladder) {
			level = len(c.ladder) - 1
		} else {
			return 0, 0, false
		}
	}
	rung := c.ladder[level]
	bias := c.bias[c.clamp(tenant)]
	probe = clampShed(rung.Probe*bias, c.cfg.maxShed())
	k = clampShed(rung.K*bias, c.cfg.maxShed())
	dropSQ = rung.DropSQ && bias > 0
	return probe, k, dropSQ
}

func clampShed(v, max float64) float64 {
	if v > max {
		return max
	}
	return v
}

// shedShape shrinks the request's rerank depth and the context-
// dependent share of its input tokens by fraction k. The first
// qBaseTokens input tokens model the question itself and survive any
// shed; what shrinks is the retrieved context, in proportion to the
// documents no longer reranked into it.
func shedShape(s workload.Shape, k float64) workload.Shape {
	const qBaseTokens = 64
	if s.TopK > 0 {
		if s.TopK = int(float64(s.TopK) * (1 - k)); s.TopK < 1 {
			s.TopK = 1
		}
	}
	if s.InputTokens > qBaseTokens {
		s.InputTokens = qBaseTokens + int(float64(s.InputTokens-qBaseTokens)*(1-k))
	}
	return s
}

func (c *Controller) clamp(t int) int {
	if t < 0 || t >= len(c.bias) {
		return 0
	}
	return t
}

// Level returns the current ladder level.
func (c *Controller) Level() int { return c.level }

// MaxLevel returns the deepest level the run reached.
func (c *Controller) MaxLevel() int { return c.maxLevel }

// StampedRequests returns how many dispatches carried a non-zero rung.
func (c *Controller) StampedRequests() int { return c.stamped }

// MeanShed returns the mean probe-shed fraction over stamped requests
// (0 when nothing was stamped) — the experiment's recall give-up proxy.
func (c *Controller) MeanShed() float64 {
	if c.stamped == 0 {
		return 0
	}
	return c.shedSum / float64(c.stamped)
}

// TimeInBrownout returns total virtual time spent above level 0, the
// open interval up to now included.
func (c *Controller) TimeInBrownout(now des.Time) time.Duration {
	d := c.inBrown
	if c.level > 0 {
		d += time.Duration(now - c.enteredAt)
	}
	return d
}

// NumLevels returns the ladder depth (level 0 included).
func (c *Controller) NumLevels() int { return len(c.ladder) }

// MaxShed returns the effective shed cap.
func (c *Controller) MaxShed() float64 { return c.cfg.maxShed() }
