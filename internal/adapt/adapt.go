// Package adapt is the online control plane of the adaptive runtime
// index update (paper §IV-B3), run *inside* a serving pipeline on the
// simulator's timeline. A Controller observes every completed request
// on the completion path and feeds its drift monitor; when a window
// closes with SLO attainment below threshold AND the observed hit rates
// diverging from the model's expectation, it schedules a background
// rebuild as a chain of simulated events — re-profiling the live query
// stream, re-running Algorithm 1, re-splitting, and reloading each GPU
// shard over PCIe, each stage priced by costmodel (EstimateRebuild sums
// the same terms for a plan offline: the bars of Fig. 9). While a shard
// reloads, the hybrid engine diverts its clusters to the CPU path
// (service never pauses); once every shard has loaded, the controller
// atomically swaps the new plan in and re-anchors the monitor's
// expectation, closing the loop.
//
// The whole cycle runs in virtual time on the same deterministic event
// loop as the data plane, so adaptive runs are reproducible bit for bit
// under a fixed seed — the repo's determinism contract extended to the
// control plane.
package adapt

import (
	"fmt"
	"math"
	"time"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/hitrate"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/partition"
	"vectorliterag/internal/perfmodel"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/retrieval"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/workload"
)

const (
	// calibrationReplay is the query count the *timing* of the profiling
	// stage is priced at: the paper replays ~0.5 % of a 10M-query stream.
	// It is deliberately larger than profiler.CalibrationQueries: the
	// simulated system replays the paper-scale sample, while the
	// laptop-scale substrate needs fewer draws for the same distribution.
	calibrationReplay = 50000
	// cooldownWindows suppresses triggers for this many monitor windows
	// after a swap. Requests routed during the reload carry the CPU
	// divert's low hit rates but only complete after the swap; without a
	// settle window those stragglers would immediately re-trigger an
	// identical rebuild.
	cooldownWindows = 1
	// sloThreshold and hitRateDivergence are the drift rule: an update
	// may trigger when windowed SLO attainment falls below sloThreshold
	// and the observed mean hit rate deviates from the expectation by
	// more than hitRateDivergence.
	sloThreshold      = 0.9
	hitRateDivergence = 0.1
	// escalateSkew is the live cluster-size skew past which a drift
	// trigger escalates from compaction to the full rebuild (see
	// Config.EscalateResidual).
	escalateSkew = 2.0
)

// MonitorConfig sizes the drift-detection window. NewController rejects
// a negative window.
type MonitorConfig struct {
	// WindowRequests is how many requests a window holds before the
	// counters reset (default 2000: the paper resets every few minutes
	// or few thousand requests).
	WindowRequests int
}

// withDefaults validates c and fills its zero fields: the one place the
// monitor's defaults live.
func (c MonitorConfig) withDefaults() (MonitorConfig, error) {
	if c.WindowRequests < 0 {
		return c, fmt.Errorf("adapt: MonitorConfig.WindowRequests = %d, want >= 0 (0 takes the default)", c.WindowRequests)
	}
	if c.WindowRequests == 0 {
		c.WindowRequests = 2000
	}
	return c, nil
}

// monitor is the router's drift rule. It accumulates served hit rates
// and SLO outcomes over a window of requests; a window that closes with
// attainment below threshold AND the mean hit rate diverging from the
// model's expectation signals drift. Either alone does not: missed SLOs
// at on-model hit rates put the bottleneck elsewhere, and off-model hit
// rates with healthy SLOs make the plan stale but harmless.
type monitor struct {
	cfg      MonitorConfig
	expected float64 // model-expected mean hit rate of the installed plan
	n        int     // requests in the open window
	hitSum   float64
	sloOK    int
	windows  int // windows closed so far
}

// record registers one served request's hit rate and SLO outcome and
// reports whether it closed a window with drift detected.
func (m *monitor) record(hitRate float64, metSLO bool) bool {
	m.n++
	m.hitSum += hitRate
	if metSLO {
		m.sloOK++
	}
	if m.n < m.cfg.WindowRequests {
		return false
	}
	attain := float64(m.sloOK) / float64(m.n)
	mean := m.hitSum / float64(m.n)
	m.windows++
	m.reset()
	return attain < sloThreshold && math.Abs(mean-m.expected) > hitRateDivergence
}

// reset discards the open window without closing it.
func (m *monitor) reset() { m.n, m.hitSum, m.sloOK = 0, 0, 0 }

// RebuildTiming is the stage breakdown of one update cycle — the bars
// of paper Fig. 9.
type RebuildTiming struct {
	Profiling time.Duration // replaying calibration queries
	Algorithm time.Duration // latency-bounded partitioning
	Splitting time.Duration // shard materialization + mapping tables
	Loading   time.Duration // host-to-device shard transfer
}

// Total returns the end-to-end rebuild time.
func (t RebuildTiming) Total() time.Duration {
	return t.Profiling + t.Algorithm + t.Splitting + t.Loading
}

// Validate checks a timing against the paper's deployability claims:
// the full cycle completes within ~a minute and per-shard loading
// within ten seconds.
func (t RebuildTiming) Validate() error {
	if t.Total() > 2*time.Minute {
		return fmt.Errorf("adapt: rebuild %v exceeds the paper's <1min envelope by >2x", t.Total())
	}
	if t.Loading > 10*time.Second {
		return fmt.Errorf("adapt: shard loading %v exceeds 10s", t.Loading)
	}
	return nil
}

// EstimateRebuild prices one update cycle that installs plan on node,
// with the stage terms a Controller charges a live cycle: the
// calibrationReplay profiling replay, algorithmIters bisection steps of
// Algorithm 1, the split, and the shard loads.
func EstimateRebuild(node hw.Node, spec dataset.Spec, plan *splitter.Plan, algorithmIters int) RebuildTiming {
	return RebuildTiming{
		Profiling: costmodel.ProfilingTime(node.CPU, spec, calibrationReplay),
		Algorithm: costmodel.AlgorithmTime(algorithmIters),
		Splitting: costmodel.SplitTime(node.CPU, plan.TotalBytes()),
		Loading:   loadingTime(node.GPU, plan),
	}
}

// loadingTime prices the shard loads: every shard transfers over PCIe
// concurrently, so the slowest gates the cycle.
func loadingTime(gpu hw.GPU, plan *splitter.Plan) time.Duration {
	var t time.Duration
	for _, b := range plan.ShardBytes {
		t = max(t, costmodel.ShardLoadTime(gpu, b))
	}
	return t
}

// Config tunes the controller.
type Config struct {
	// Monitor sizes the drift-detection window.
	Monitor MonitorConfig
	// ProfileQueries is the calibration sample the in-loop re-profiling
	// replays from the (drifted) live distribution: the offline
	// decision's size.
	ProfileQueries int
	// Epsilon is Algorithm 1's queuing factor for re-partitioning.
	Epsilon float64
	// EscalateResidual and escalateSkew gate the cheap-compaction
	// shortcut when a Compactor is bound: a trigger whose insert
	// residual-norm ratio and live cluster-size skew are both below
	// these thresholds runs a compaction cycle (re-encode + tombstone
	// purge) instead of the full Algorithm-1 re-partition — the drift is
	// in the overlay volume, not the partition geometry. Past either
	// threshold the trigger escalates to the full rebuild, as does a
	// trigger recurring right after a compaction (the cheap cycle
	// demonstrably didn't clear the drift — without that rule the
	// controller would compact forever against partition-geometry
	// drift). Defaults 2.5 and 2.0; the residual default sits above the
	// ~1.7x floor in-distribution inserts carry (fresh vectors always
	// land farther from their centroids than the corpus the quantizer
	// was trained on), so residual escalation indicates genuinely
	// out-of-distribution inserts. A negative EscalateResidual disables
	// the shortcut entirely.
	EscalateResidual float64
}

func (c Config) escalateResidual() float64 {
	if c.EscalateResidual == 0 {
		return 2.5
	}
	return c.EscalateResidual
}

// Inputs wires the controller to a live pipeline: the shared simulator,
// the workload being served, the hot-swappable engine, and the fitted
// models Algorithm 1 re-uses across cycles (the CPU latency model and
// the bare LLM throughput are hardware properties — drift does not move
// them, so only the access profile is re-measured per cycle).
type Inputs struct {
	Sim       *des.Sim
	W         *dataset.Workload
	Engine    retrieval.HotSwapper
	Node      hw.Node
	SLOTotal  time.Duration // combined TTFT budget the monitor checks
	SLOSearch time.Duration
	Perf      *perfmodel.Model
	Mu0       float64
	MemKV     int64
	// Expected is the model-expected mean hit rate of the currently
	// installed plan (the monitor's initial anchor).
	Expected float64
	// Seed derives the per-cycle re-profiling sample.
	Seed uint64
}

// RebuildRecord is one completed (or aborted) update cycle — the
// trigger-timeline artifact of a drift study.
type RebuildRecord struct {
	TriggeredAt   des.Time
	ProfileDoneAt des.Time
	AlgoDoneAt    des.Time
	SplitDoneAt   des.Time
	SwappedAt     des.Time // zero when the cycle aborted
	Timing        RebuildTiming
	OldRho        float64
	NewRho        float64
	OldExpected   float64
	NewExpected   float64
	Iterations    int
	// Aborted names the stage that failed (empty on success); the old
	// plan stays installed.
	Aborted string
	// Compaction marks a cheap-compaction cycle (re-encode + tombstone
	// purge, plan untouched) that ran in place of a full rebuild;
	// CompactionTime is its modeled duration.
	Compaction     bool
	CompactionTime time.Duration
}

// Compactor is the streaming-ingest surface the controller can drive
// instead of a full rebuild: drift trackers (live cluster-size skew,
// insert residual-norm ratio) plus the cheap compaction action.
// internal/ingest.Ingester implements it.
type Compactor interface {
	SizeSkew() float64
	ResidualRatio() float64
	CompactionCost() time.Duration
	Compact()
}

// Controller runs the monitor→rebuild→swap loop on the DES timeline.
type Controller struct {
	cfg Config
	in  Inputs
	mon monitor

	rebuilding bool
	cycles     int
	rebuilds   []RebuildRecord
	compactor  Compactor
	// compactedLast is set while the most recent completed cycle was a
	// compaction: a trigger recurring in that state escalates to the
	// full rebuild (the cheap cycle didn't clear the drift). A completed
	// full rebuild re-arms the shortcut.
	compactedLast bool
	// pending is the cycle currently in flight (nil otherwise), kept so
	// a run whose clock stops mid-rebuild can still report the trigger.
	pending  *RebuildRecord
	observed int
	// windowsAtSwap is the monitor's window count at the last plan swap
	// (-1 before any swap); triggers within cooldownWindows of it are
	// straggler echoes and are ignored.
	windowsAtSwap int
}

// NewController builds a controller. Bind must be called with the live
// engine before the first observation (the engine exists only after the
// pipeline is composed).
func NewController(cfg Config, in Inputs) (*Controller, error) {
	if in.Sim == nil || in.W == nil {
		return nil, fmt.Errorf("adapt: controller needs a simulator and workload")
	}
	if in.SLOTotal <= 0 || in.SLOSearch <= 0 {
		return nil, fmt.Errorf("adapt: non-positive SLO (total %v, search %v)", in.SLOTotal, in.SLOSearch)
	}
	if in.Perf == nil {
		return nil, fmt.Errorf("adapt: nil performance model")
	}
	if !(in.Mu0 > 0) {
		return nil, fmt.Errorf("adapt: non-positive bare LLM throughput Mu0 %v", in.Mu0)
	}
	mon, err := cfg.Monitor.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg, in: in, mon: monitor{cfg: mon, expected: in.Expected}, windowsAtSwap: -1}, nil
}

// Bind attaches the hot-swappable engine (post-compose).
func (c *Controller) Bind(eng retrieval.HotSwapper) { c.in.Engine = eng }

// BindCompactor attaches a streaming-ingest compactor; once bound,
// triggers whose drift trackers sit below the escalation thresholds
// run a cheap compaction instead of a full rebuild.
func (c *Controller) BindCompactor(comp Compactor) { c.compactor = comp }

// Rebuilds returns every update cycle the controller ran, in trigger
// order.
func (c *Controller) Rebuilds() []RebuildRecord { return c.rebuilds }

// Pending returns a snapshot of the cycle still in flight, or nil. A
// rebuild whose remaining stage events lie past the simulation's
// deadline never completes; callers reporting a finished run surface it
// from here instead of silently dropping the trigger.
func (c *Controller) Pending() *RebuildRecord {
	if !c.rebuilding || c.pending == nil {
		return nil
	}
	snap := *c.pending
	return &snap
}

// Observed returns how many completed requests fed the monitor.
func (c *Controller) Observed() int { return c.observed }

// Observe is the completion-path hook: wire it (via serve.Tee) into the
// pipeline's terminal sink so every completed request reports its
// served hit rate and SLO outcome. A request that never produced a
// first token cannot reach this sink; its violation is still charged to
// the run's Summary, just not to the in-loop monitor — mirroring a real
// router, which can only count responses it has seen.
func (c *Controller) Observe(req *workload.Request) {
	c.observed++
	met := req.FirstToken > 0 && time.Duration(req.TTFT()) <= c.in.SLOTotal
	if c.mon.record(req.HitRate, met) && !c.rebuilding && !c.inCooldown() {
		c.startRebuild()
	}
}

// inCooldown reports whether the current trigger falls inside the
// post-swap settle period.
func (c *Controller) inCooldown() bool {
	if c.windowsAtSwap < 0 {
		return false
	}
	return c.mon.windows-c.windowsAtSwap <= cooldownWindows
}

// startRebuild kicks off one background update cycle at the current
// virtual instant. Stage effects land at their simulated completion
// times; the host-side computation (profiling, partitioning, splitting)
// executes inside those events, so a stage always consumes the workload
// state current at its own virtual time — drift that lands mid-cycle is
// seen by the stages after it.
func (c *Controller) startRebuild() {
	if c.in.Engine == nil {
		return // never bound: observe-only mode
	}
	if c.compactor != nil && !c.compactedLast &&
		c.cfg.escalateResidual() > 0 &&
		c.compactor.SizeSkew() < escalateSkew &&
		c.compactor.ResidualRatio() < c.cfg.escalateResidual() {
		c.startCompaction()
		return
	}
	c.rebuilding = true
	c.cycles++
	rec := RebuildRecord{
		TriggeredAt: c.in.Sim.Now(),
		OldRho:      c.in.Engine.Plan().Coverage,
		OldExpected: c.mon.expected,
	}
	rec.Timing.Profiling = costmodel.ProfilingTime(c.in.Node.CPU, c.in.W.Spec, calibrationReplay)
	c.track(rec)
	c.in.Sim.After(rec.Timing.Profiling, func() { c.profileDone(rec) })
}

// startCompaction runs the cheap update cycle: the overlay is folded
// and purged for its modeled cost, the plan stays installed, and the
// monitor window resets exactly as after a swap — the drift the
// trigger saw was overlay volume, which the fold removes.
func (c *Controller) startCompaction() {
	c.rebuilding = true
	c.cycles++
	rec := RebuildRecord{
		TriggeredAt:    c.in.Sim.Now(),
		OldRho:         c.in.Engine.Plan().Coverage,
		OldExpected:    c.mon.expected,
		Compaction:     true,
		CompactionTime: c.compactor.CompactionCost(),
	}
	rec.NewRho = rec.OldRho
	rec.NewExpected = rec.OldExpected
	c.track(rec)
	c.in.Sim.After(rec.CompactionTime, func() { c.compactDone(rec) })
}

// compactDone applies the compaction at its modeled completion instant
// and closes the cycle.
func (c *Controller) compactDone(rec RebuildRecord) {
	rec.SwappedAt = c.in.Sim.Now()
	c.compactor.Compact()
	c.compactedLast = true
	c.settle(rec)
}

// track snapshots the in-flight cycle's latest state.
func (c *Controller) track(rec RebuildRecord) {
	snap := rec
	c.pending = &snap
}

// profileDone ends the profiling stage: sample the *current* (possibly
// drifted) query distribution and run Algorithm 1 against it.
func (c *Controller) profileDone(rec RebuildRecord) {
	rec.ProfileDoneAt = c.in.Sim.Now()
	seed := c.in.Seed + 7919*uint64(c.cycles) // fresh, reproducible sample per cycle
	prof, err := profiler.CollectAccess(c.in.W, c.cfg.ProfileQueries, seed)
	if err != nil {
		c.abort(rec, "profile", err)
		return
	}
	est, err := hitrate.NewEstimator(prof)
	if err != nil {
		c.abort(rec, "profile", err)
		return
	}
	part, err := partition.LatencyBounded(partition.Inputs{
		SLOSearch:    c.in.SLOSearch,
		Epsilon:      c.cfg.Epsilon,
		Perf:         c.in.Perf,
		Est:          est,
		MemKV:        c.in.MemKV,
		Mu0:          c.in.Mu0,
		IndexBytesAt: splitter.IndexBytesAt(prof),
	})
	if err != nil {
		c.abort(rec, "algorithm", err)
		return
	}
	rec.Iterations = part.Iterations
	rec.NewRho = part.Rho
	rec.NewExpected = est.MeanHitRate(part.Rho)
	rec.Timing.Algorithm = costmodel.AlgorithmTime(part.Iterations)
	c.track(rec)
	c.in.Sim.After(rec.Timing.Algorithm, func() { c.algoDone(rec, prof) })
}

// algoDone ends the partitioning stage: materialize the split.
func (c *Controller) algoDone(rec RebuildRecord, prof *profiler.AccessProfile) {
	rec.AlgoDoneAt = c.in.Sim.Now()
	plan, err := splitter.Build(prof, rec.NewRho, c.in.Node.NumGPUs)
	if err != nil {
		c.abort(rec, "split", err)
		return
	}
	rec.Timing.Splitting = costmodel.SplitTime(c.in.Node.CPU, plan.TotalBytes())
	c.track(rec)
	c.in.Sim.After(rec.Timing.Splitting, func() { c.splitDone(rec, plan) })
}

// splitDone ends the splitting stage and starts the concurrent per-
// shard PCIe loads. A shard being overwritten cannot serve, so each
// shard g is diverted to the CPU path from load start until the atomic
// swap; loads run concurrently and the slowest gates the swap.
func (c *Controller) splitDone(rec RebuildRecord, plan *splitter.Plan) {
	rec.SplitDoneAt = c.in.Sim.Now()
	for g := range plan.ShardBytes {
		c.in.Engine.SetShardRefreshing(g, true)
	}
	rec.Timing.Loading = loadingTime(c.in.Node.GPU, plan)
	c.track(rec)
	c.in.Sim.After(rec.Timing.Loading, func() { c.swap(rec, plan) })
}

// swap atomically installs the new plan, re-anchors the monitor, and
// closes the cycle. SetPlan resets the engine's refresh flags, so the
// CPU divert ends at the same instant the new routing takes effect.
func (c *Controller) swap(rec RebuildRecord, plan *splitter.Plan) {
	rec.SwappedAt = c.in.Sim.Now()
	c.in.Engine.SetPlan(plan)
	c.compactedLast = false
	c.mon.expected = rec.NewExpected
	c.settle(rec)
}

// settle closes a cycle that changed what serves (a swap or a
// compaction). The monitor drops its partial window, which mixes
// observations from before the change (including a reload's CPU
// diverts) that would otherwise re-trigger against the new state, and
// the cooldown starts.
func (c *Controller) settle(rec RebuildRecord) {
	c.mon.reset()
	c.windowsAtSwap = c.mon.windows
	c.rebuilds = append(c.rebuilds, rec)
	c.pending = nil
	c.rebuilding = false
}

// abort abandons the cycle at the named stage; the old plan keeps
// serving and any refresh flags are cleared.
func (c *Controller) abort(rec RebuildRecord, stage string, err error) {
	rec.Aborted = fmt.Sprintf("%s: %v", stage, err)
	if plan := c.in.Engine.Plan(); plan != nil {
		for g := 0; g < plan.NumShards; g++ {
			c.in.Engine.SetShardRefreshing(g, false)
		}
	}
	c.rebuilds = append(c.rebuilds, rec)
	c.pending = nil
	c.rebuilding = false
}
