package rag

import (
	"fmt"
	"time"

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
// the run is judged against. The streams feed a serial ingest station
// (inserts into append buffers, deletes into tombstones), and every
// scan is priced through the live overlay.
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
	// EscalateSkew / EscalateResidual tune the compaction controller a
	// Monitor attaches: drift triggers below these thresholds run a
	// re-encode + tombstone purge instead of a full Algorithm-1
	// re-partition (zero keeps the adapt package defaults; negative
	// disables the compaction shortcut). Runs whose insert stream tracks
	// a drifting query distribution carry an elevated residual floor by
	// construction and may want the residual threshold above it.
	EscalateSkew     float64
	EscalateResidual float64
}

// normalized validates the options and returns a private copy with the
// defaults filled in (see PrecisionOptions.normalized). A nil receiver
// stays nil.
func (io *IngestOptions) normalized() (*IngestOptions, error) {
	if io == nil {
		return nil, nil
	}
	q := *io
	if q.InsertRate < 0 || q.DeleteRate < 0 {
		return nil, fmt.Errorf("rag: negative ingest rate (insert %v, delete %v)", q.InsertRate, q.DeleteRate)
	}
	if q.ReencodeEvery < 0 {
		return nil, fmt.Errorf("rag: negative re-encode interval %v", q.ReencodeEvery)
	}
	for _, s := range []workload.Schedule{q.InsertSchedule, q.DeleteSchedule} {
		if s != nil {
			if err := workload.ValidateSchedule(s); err != nil {
				return nil, fmt.Errorf("rag: %w", err)
			}
		}
	}
	if q.ReencodeEvery == 0 {
		q.ReencodeEvery = 25 * time.Second
	}
	if q.FreshnessSLO == 0 {
		q.FreshnessSLO = 500 * time.Millisecond
	}
	return &q, nil
}

// LiveReport is the ingest side of a live-corpus run.
type LiveReport struct {
	// Freshness summarizes time-to-searchable over the mutation log
	// (warmup excluded), against FreshnessSLO.
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

// liveReport reads the ingest side back once the run has drained; a
// frozen corpus (ing nil) reports only the budget.
func liveReport(opts *Options, store *ingest.Store, ing *ingest.Ingester) *LiveReport {
	rep := &LiveReport{FreshnessSLO: opts.Ingest.FreshnessSLO}
	if ing == nil {
		return rep
	}
	rep.Mutations = ing.Log()
	rep.Reencodes, rep.Compactions = ing.Reencodes(), ing.Compactions()
	rep.SizeSkew, rep.ResidualRatio = store.SizeSkew(), store.ResidualRatio()
	rep.Freshness = metrics.SummarizeFreshness(rep.Mutations, rep.FreshnessSLO, des.Time(opts.Warmup))
	return rep
}
