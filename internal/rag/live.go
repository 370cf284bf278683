package rag

import (
	"fmt"
	"time"

	"vectorliterag/internal/adapt"
	"vectorliterag/internal/des"
	"vectorliterag/internal/ingest"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/workload"
)

// IngestOptions configures the streaming-ingest side of a live run:
// insert/delete mutation streams multiplexed onto the serving
// timeline, the background re-encode cadence, and the freshness SLO
// the run is judged against.
type IngestOptions struct {
	// InsertRate and DeleteRate are constant mutation rates in
	// mutations/second. A schedule below overrides the matching constant
	// rate (which then only labels the run), mirroring Options.Rate vs
	// RateSchedule.
	InsertRate float64
	DeleteRate float64
	// InsertSchedule / DeleteSchedule drive the streams as inhomogeneous
	// Poisson processes (ramps, bursts, diurnal cycles).
	InsertSchedule workload.Schedule
	DeleteSchedule workload.Schedule
	// ReencodeEvery is the background fold cadence: pending raw vectors
	// re-encode into PQ appends every such interval (default 25s). The
	// fold occupies the ingest station for its modeled encode time, so
	// an aggressive cadence under heavy ingest is the metastable regime.
	ReencodeEvery time.Duration
	// FreshnessSLO is the time-to-searchable budget (default 500ms).
	FreshnessSLO time.Duration
	// Compaction attaches the adaptive controller's cheap-compaction
	// action: drift triggers below the escalation thresholds run a
	// re-encode + tombstone purge instead of a full Algorithm-1
	// re-partition. Requires the vLiteRAG runtime.
	Compaction bool
	// EscalateSkew / EscalateResidual tune the controller's
	// compaction-vs-rebuild thresholds (zero keeps the adapt package
	// defaults; negative disables the compaction shortcut). Runs whose
	// insert stream tracks a drifting query distribution carry an
	// elevated residual floor by construction and may want the residual
	// threshold above it.
	EscalateSkew     float64
	EscalateResidual float64
}

// active reports whether any mutation stream is configured.
func (io *IngestOptions) active() bool {
	return io.InsertRate > 0 || io.DeleteRate > 0 ||
		io.InsertSchedule != nil || io.DeleteSchedule != nil
}

// validate rejects malformed ingest knobs and fills defaults.
func (io *IngestOptions) validate() error {
	if io.InsertRate < 0 || io.DeleteRate < 0 {
		return fmt.Errorf("rag: negative ingest rate (insert %v, delete %v)", io.InsertRate, io.DeleteRate)
	}
	if io.ReencodeEvery < 0 {
		return fmt.Errorf("rag: negative re-encode interval %v", io.ReencodeEvery)
	}
	for _, s := range []workload.Schedule{io.InsertSchedule, io.DeleteSchedule} {
		if s != nil {
			if err := workload.ValidateSchedule(s); err != nil {
				return fmt.Errorf("rag: %w", err)
			}
		}
	}
	if io.ReencodeEvery == 0 {
		io.ReencodeEvery = 25 * time.Second
	}
	if io.FreshnessSLO == 0 {
		io.FreshnessSLO = 500 * time.Millisecond
	}
	return nil
}

// LiveOptions configures a live-corpus run: the usual serving options
// plus the mutation streams.
type LiveOptions struct {
	Options
	Ingest IngestOptions
	// Monitor tunes the compaction controller's drift detection (used
	// only when Ingest.Compaction is set); zero fields derive defaults
	// exactly as RunAdaptive does.
	Monitor adapt.MonitorConfig
}

// LiveResult extends a run result with the ingest-side record.
type LiveResult struct {
	Result
	// Freshness summarizes time-to-searchable over the mutation log
	// (warmup excluded), against Ingest.FreshnessSLO.
	Freshness metrics.Freshness
	// FreshnessSLO echoes the budget the summary was computed against.
	FreshnessSLO time.Duration
	// Mutations is the applied-mutation log in arrival order — value
	// snapshots, the ingest twin of Result.Requests.
	Mutations []workload.Mutation
	// Reencodes counts completed background folds; Compactions counts
	// controller-driven compaction cycles.
	Reencodes   int
	Compactions int
	// SizeSkew and ResidualRatio are the drift trackers' final readings.
	SizeSkew      float64
	ResidualRatio float64
	// Rebuilds holds the compaction controller's cycle records (empty
	// without Compaction); compaction cycles carry Compaction == true.
	Rebuilds []adapt.RebuildRecord
}

// RunLive executes one live-corpus evaluation point: the serving
// pipeline of Run with a streaming-ingest subsystem sharing its DES
// timeline. Mutation streams feed a serial ingest station that routes
// inserts into per-cluster append buffers and resolves deletes into
// tombstones; the retrieval engines price every scan through the live
// overlay (raw pending costs dominate until the periodic re-encode
// folds them into PQ appends); and with Compaction set, the adaptive
// controller answers drift triggers with a cheap re-encode + purge,
// escalating to the full Algorithm-1 re-partition only past the skew
// thresholds.
//
// With no ingest configured the run is exactly Run — same events, same
// bytes — so frozen-corpus results are unchanged by construction.
// Everything schedules on the one shared timeline, so results are
// bit-identical for any Workers value, like every other run mode.
func RunLive(opts LiveOptions) (*LiveResult, error) {
	if opts.Kind == "" {
		opts.Kind = VLiteRAG
	}
	if err := opts.Ingest.validate(); err != nil {
		return nil, err
	}
	var io *IngestOptions
	var mon *adapt.MonitorConfig
	if opts.Ingest.active() {
		io = &opts.Ingest
		if io.Compaction {
			mon = &opts.Monitor
		}
	}
	run, err := runSingle(opts.Options, mon, io)
	if err != nil {
		return nil, err
	}
	res := &LiveResult{Result: run.Result, FreshnessSLO: opts.Ingest.FreshnessSLO}
	if io == nil {
		return res, nil
	}
	res.Mutations = run.ing.Log()
	res.Reencodes = run.ing.Reencodes()
	res.Compactions = run.ing.Compactions()
	res.SizeSkew = run.store.SizeSkew()
	res.ResidualRatio = run.store.ResidualRatio()
	res.Freshness = metrics.SummarizeFreshness(res.Mutations, io.FreshnessSLO, run.warmup)
	if run.ctrl != nil {
		res.Rebuilds = run.ctrl.Rebuilds()
	}
	return res, nil
}

// startIngest puts the streaming-ingest subsystem on a run's timeline:
// the live store, the serial ingest station (which arms its periodic
// re-encode at once), and the mutation sources to start beside the
// arrivals. Their seeds split off the run seed on their own stream IDs,
// so the request stream (Seed+7) and the profiling sample (Seed+1) are
// untouched — the frozen half of a frozen-vs-live A/B replays
// identically.
func startIngest(sim *des.Sim, opts *Options, io *IngestOptions) (*ingest.Store, *ingest.Ingester, []serve.Aux) {
	store := ingest.NewStore(opts.W)
	ing := ingest.New(ingest.Config{
		Sim:           sim,
		Store:         store,
		Node:          opts.Node,
		ReencodeEvery: io.ReencodeEvery,
		Horizon:       des.Time(opts.Duration + opts.Drain),
	})
	var aux []serve.Aux
	source := func(kind workload.MutationKind, rate float64, sched workload.Schedule, stream uint64) {
		if rate > 0 || sched != nil {
			g := workload.NewMutationGen(opts.W, kind, rate, sched, 0, rng.Stream(opts.Seed, stream))
			aux = append(aux, serve.AuxFunc(func(s *des.Sim, until des.Time) { g.Start(s, until, ing.Submit) }))
		}
	}
	source(workload.MutInsert, io.InsertRate, io.InsertSchedule, 21)
	source(workload.MutDelete, io.DeleteRate, io.DeleteSchedule, 22)
	return store, ing, aux
}
