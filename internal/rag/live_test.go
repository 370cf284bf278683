package rag

import (
	"testing"
	"time"
)

func liveOpts(t *testing.T, rate float64) Options {
	t.Helper()
	o := baseOpts(t, VLiteRAG, rate)
	o.Ingest = &IngestOptions{InsertRate: 4, DeleteRate: 1, ReencodeEvery: 10 * time.Second}
	return o
}

// TestRunLiveFrozenMatchesRun: with no stream configured, a live run is
// the frozen one — identical summary, every per-request record
// identical. This is the frozen-corpus invariant: adding the subsystem
// changed nothing for runs that don't use it.
func TestRunLiveFrozenMatchesRun(t *testing.T) {
	opts := baseOpts(t, VLiteRAG, 12)
	frozen, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Ingest = &IngestOptions{}
	live, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if live.Summary != frozen.Summary ||
		live.Generated != frozen.Generated ||
		live.AvgBatch != frozen.AvgBatch {
		t.Fatalf("frozen RunLive diverged from Run:\n%+v\nvs\n%+v", live.Summary, frozen.Summary)
	}
	if len(live.Requests) != len(frozen.Requests) {
		t.Fatalf("request counts differ: %d vs %d", len(live.Requests), len(frozen.Requests))
	}
	for i := range frozen.Requests {
		if frozen.Requests[i] != live.Requests[i] {
			t.Fatalf("request %d diverged: %+v vs %+v", i, frozen.Requests[i], live.Requests[i])
		}
	}
	if lr := live.Live; len(lr.Mutations) != 0 || lr.Freshness.Inserts != 0 || lr.Reencodes != 0 || lr.FreshnessSLO != 500*time.Millisecond {
		t.Fatalf("frozen run reports ingest activity: %+v", lr)
	}
}

// TestRunLiveStreamingIngest: a streaming run applies mutations on the
// serving timeline, folds them on the re-encode cadence, and reports
// freshness next to the request summary.
func TestRunLiveStreamingIngest(t *testing.T) {
	res, err := Run(liveOpts(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	lr := res.Live
	f := lr.Freshness
	if f.Inserts < 100 || f.Deletes < 20 {
		t.Fatalf("too few mutations counted: %+v", f)
	}
	if lr.Reencodes < 4 {
		t.Fatalf("only %d re-encodes in 60s at 10s cadence", lr.Reencodes)
	}
	if f.TTS.P50 <= 0 || f.TTS.P99 < f.TTS.P50 {
		t.Fatalf("implausible time-to-searchable quantiles: %+v", f.TTS)
	}
	if f.Attainment <= 0.5 {
		t.Fatalf("freshness attainment %.3f implausibly low", f.Attainment)
	}
	if lr.SizeSkew <= 0 || lr.ResidualRatio <= 0 {
		t.Fatalf("drift trackers unset: skew %v, residual %v", lr.SizeSkew, lr.ResidualRatio)
	}
	// Serving survives the overlay: the live arm holds most of the
	// frozen arm's attainment (the experiment pins the exact margin).
	frozen, err := Run(baseOpts(t, VLiteRAG, 12))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Attainment < 0.90*frozen.Summary.Attainment {
		t.Fatalf("live attainment %.3f collapsed vs frozen %.3f",
			res.Summary.Attainment, frozen.Summary.Attainment)
	}
}

// TestRunLiveDeterministic: identical options give bit-identical
// results, and Workers is schedule-irrelevant (one shared timeline).
func TestRunLiveDeterministic(t *testing.T) {
	a, err := Run(liveOpts(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	opts := liveOpts(t, 12)
	opts.Workers = 4
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.Attainment != b.Summary.Attainment ||
		a.Summary.TTFT.P99 != b.Summary.TTFT.P99 ||
		a.Live.Freshness != b.Live.Freshness ||
		len(a.Live.Mutations) != len(b.Live.Mutations) {
		t.Fatalf("identical live runs diverged:\n%+v\nvs\n%+v", a.Live.Freshness, b.Live.Freshness)
	}
	for i := range a.Live.Mutations {
		ma, mb := &a.Live.Mutations[i], &b.Live.Mutations[i]
		if ma.ArrivalAt != mb.ArrivalAt || ma.AppliedAt != mb.AppliedAt || ma.ID != mb.ID {
			t.Fatalf("mutation %d diverged: %+v vs %+v", i, ma, mb)
		}
	}
}

// TestRunLiveValidation: malformed ingest knobs fail fast, before any
// work, and defaults land on a private copy.
func TestRunLiveValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		io   IngestOptions
	}{
		{"negative insert rate", IngestOptions{InsertRate: -1}},
		{"negative re-encode interval", IngestOptions{InsertRate: 4, ReencodeEvery: -time.Second}},
	} {
		opts := liveOpts(t, 12)
		opts.Ingest = &tc.io
		if err := opts.validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	opts := liveOpts(t, 12)
	opts.Ingest.ReencodeEvery = 0
	caller, want := opts.Ingest, *opts.Ingest
	if err := opts.validate(); err != nil || opts.Ingest.ReencodeEvery != 25*time.Second || *caller != want {
		t.Fatalf("validate: %v; filled %+v, caller's copy now %+v", err, *opts.Ingest, *caller)
	}
}
