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

// freshnessSLO is the time-to-searchable budget a live run's
// freshness is judged against.
const freshnessSLO = 500 * time.Millisecond

// IngestOptions configures the streaming-ingest side of a live run:
// insert/delete mutation streams multiplexed onto the serving timeline
// and the background re-encode cadence. The streams feed a serial
// ingest station (inserts into append buffers, deletes into
// tombstones), and every scan is priced through the live overlay.
type IngestOptions struct {
	// InsertRate and DeleteRate are constant mutation rates in
	// mutations/second.
	InsertRate float64
	DeleteRate float64
	// ReencodeEvery is the background fold cadence: pending raw vectors
	// re-encode into PQ appends every such interval (default 25s). The
	// fold occupies the ingest station for its modeled encode time, so
	// an aggressive cadence under heavy ingest is the metastable regime.
	ReencodeEvery time.Duration
	// EscalateResidual tunes the compaction controller a Monitor
	// attaches: drift triggers below it (and below the adapt package's
	// skew threshold) run a re-encode + tombstone purge instead of a
	// full Algorithm-1 re-partition (zero keeps the adapt default;
	// negative disables the compaction shortcut). Runs whose insert
	// stream tracks a drifting query distribution carry an elevated
	// residual floor by construction and may want the threshold above
	// it.
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
	if q.ReencodeEvery == 0 {
		q.ReencodeEvery = 25 * time.Second
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
	source := func(kind workload.MutationKind, rate float64, stream uint64) {
		if rate > 0 {
			g := workload.NewMutationGen(opts.W, kind, rate, rng.Stream(opts.Seed, stream))
			aux = append(aux, serve.AuxFunc(func(s *des.Sim, until des.Time) { g.Start(s, until, ing.Submit) }))
		}
	}
	source(workload.MutInsert, io.InsertRate, 21)
	source(workload.MutDelete, io.DeleteRate, 22)
	return store, ing, aux
}

// liveReport reads the ingest side back once the run has drained; a
// frozen corpus (ing nil) reports only the budget.
func liveReport(opts *Options, store *ingest.Store, ing *ingest.Ingester) *LiveReport {
	rep := &LiveReport{FreshnessSLO: freshnessSLO}
	if ing == nil {
		return rep
	}
	rep.Mutations = ing.Log()
	rep.Reencodes, rep.Compactions = ing.Reencodes(), ing.Compactions()
	rep.SizeSkew, rep.ResidualRatio = store.SizeSkew(), store.ResidualRatio()
	rep.Freshness = metrics.SummarizeFreshness(rep.Mutations, rep.FreshnessSLO, des.Time(opts.Warmup))
	return rep
}
