package rag

import (
	"testing"
	"time"

	"vectorliterag/internal/workload"
)

func liveOpts(t *testing.T, rate float64) LiveOptions {
	t.Helper()
	return LiveOptions{
		Options: baseOpts(t, VLiteRAG, rate),
		Ingest: IngestOptions{
			InsertRate:    4,
			DeleteRate:    1,
			ReencodeEvery: 10 * time.Second,
		},
	}
}

// TestRunLiveFrozenMatchesRun: with no ingest configured, RunLive is
// Run — identical summary, every per-request record identical. This is
// the frozen-corpus invariant: adding the subsystem changed nothing for
// runs that don't use it.
func TestRunLiveFrozenMatchesRun(t *testing.T) {
	opts := baseOpts(t, VLiteRAG, 12)
	frozen, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	live, err := RunLive(LiveOptions{Options: opts})
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
	if len(live.Mutations) != 0 || live.Freshness.Inserts != 0 || live.Reencodes != 0 {
		t.Fatalf("frozen run reports ingest activity: %+v", live.Freshness)
	}
}

// TestRunLiveStreamingIngest: a streaming run applies mutations on the
// serving timeline, folds them on the re-encode cadence, and reports
// freshness next to the request summary.
func TestRunLiveStreamingIngest(t *testing.T) {
	res, err := RunLive(liveOpts(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Freshness
	if f.Inserts < 100 || f.Deletes < 20 {
		t.Fatalf("too few mutations counted: %+v", f)
	}
	if res.Reencodes < 4 {
		t.Fatalf("only %d re-encodes in 60s at 10s cadence", res.Reencodes)
	}
	if f.TTS.P50 <= 0 || f.TTS.P99 < f.TTS.P50 {
		t.Fatalf("implausible time-to-searchable quantiles: %+v", f.TTS)
	}
	if f.Attainment <= 0.5 {
		t.Fatalf("freshness attainment %.3f implausibly low", f.Attainment)
	}
	if res.SizeSkew <= 0 || res.ResidualRatio <= 0 {
		t.Fatalf("drift trackers unset: skew %v, residual %v", res.SizeSkew, res.ResidualRatio)
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
	a, err := RunLive(liveOpts(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	opts := liveOpts(t, 12)
	opts.Workers = 4
	b, err := RunLive(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.Attainment != b.Summary.Attainment ||
		a.Summary.TTFT.P99 != b.Summary.TTFT.P99 ||
		a.Freshness != b.Freshness ||
		len(a.Mutations) != len(b.Mutations) {
		t.Fatalf("identical live runs diverged:\n%+v\nvs\n%+v", a.Freshness, b.Freshness)
	}
	for i := range a.Mutations {
		ma, mb := &a.Mutations[i], &b.Mutations[i]
		if ma.ArrivalAt != mb.ArrivalAt || ma.AppliedAt != mb.AppliedAt || ma.ID != mb.ID {
			t.Fatalf("mutation %d diverged: %+v vs %+v", i, ma, mb)
		}
	}
}

// TestRunLiveValidation: malformed ingest knobs fail fast.
func TestRunLiveValidation(t *testing.T) {
	opts := liveOpts(t, 12)
	opts.Ingest.InsertRate = -1
	if _, err := RunLive(opts); err == nil {
		t.Fatal("negative insert rate accepted")
	}
	opts = liveOpts(t, 12)
	opts.Ingest.ReencodeEvery = -time.Second
	if _, err := RunLive(opts); err == nil {
		t.Fatal("negative re-encode interval accepted")
	}
	opts = liveOpts(t, 12)
	opts.Ingest.InsertSchedule = workload.ConstantSchedule{Rate: 0} // zero max rate: invalid
	if _, err := RunLive(opts); err == nil {
		t.Fatal("invalid mutation schedule accepted")
	}
}
