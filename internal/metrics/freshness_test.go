package metrics

import (
	"testing"
	"time"

	"vectorliterag/internal/des"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/workload"
)

// mut builds an applied insert with the given arrival and TTS.
func mut(arrival, tts time.Duration) workload.Mutation {
	return workload.Mutation{
		Kind:      workload.MutInsert,
		ArrivalAt: des.Time(arrival),
		AppliedAt: des.Time(arrival + tts),
	}
}

func TestSummarizeFreshness(t *testing.T) {
	slo := 100 * time.Millisecond
	muts := []workload.Mutation{
		mut(1*time.Second, 10*time.Millisecond),
		mut(2*time.Second, 50*time.Millisecond),
		mut(3*time.Second, 200*time.Millisecond),                         // violation
		{Kind: workload.MutInsert, ArrivalAt: des.Time(4 * time.Second)}, // pending: violation, no percentile
		{Kind: workload.MutDelete, ArrivalAt: des.Time(5 * time.Second)}, // counted, no searchability
		mut(0, 5*time.Millisecond),                                       // before cutoff: excluded entirely
	}
	f := SummarizeFreshness(muts, slo, des.Time(500*time.Millisecond))
	if f.Inserts != 4 || f.Deletes != 1 || f.Pending != 1 {
		t.Fatalf("counts wrong: %+v", f)
	}
	if f.Attainment != 0.5 {
		t.Fatalf("attainment = %v, want 0.5 (2 of 4 inserts within SLO)", f.Attainment)
	}
	if f.TTS.P50 != 50*time.Millisecond {
		t.Fatalf("TTS p50 = %v, want 50ms", f.TTS.P50)
	}
	if f.TTS.P99 < f.TTS.P50 || f.TTS.Mean <= 0 {
		t.Fatalf("TTS quantiles inconsistent: %+v", f.TTS)
	}
}

// TestFreshnessMatchesReference: the streamed time-to-searchable
// summary equals the materialized one — the mean by stats.Mean and the
// percentiles by stats.SelectPercentiles over the applied inserts in log
// order — on a log large enough to refine, with deletes, pending
// inserts and a run of equal times mixed in.
func TestFreshnessMatchesReference(t *testing.T) {
	r := rng.New(4)
	muts := make([]workload.Mutation, 20_000)
	var tts []float64
	for i := range muts {
		at := time.Duration(i) * time.Millisecond
		d := time.Duration(r.ExpFloat64() * 3e7)
		if i%4 == 0 {
			d = 12 * time.Millisecond // a fixed re-encode wait
		}
		muts[i] = mut(at, d)
		switch i % 9 {
		case 3:
			muts[i].Kind = workload.MutDelete
		case 5:
			muts[i].AppliedAt = 0
		default:
			tts = append(tts, float64(muts[i].TimeToSearchable()))
		}
	}
	got := SummarizeFreshness(muts, 30*time.Millisecond, 0).TTS
	if want := referenceQuantiles(tts); got != want {
		t.Fatalf("TTS %+v, reference %+v", got, want)
	}
}

func TestSummarizeFreshnessEmpty(t *testing.T) {
	f := SummarizeFreshness(nil, time.Second, 0)
	if f.Inserts != 0 || f.Attainment != 0 || f.TTS.P99 != 0 {
		t.Fatalf("empty log not zero: %+v", f)
	}
	// All-pending: attainment 0, no percentiles.
	f = SummarizeFreshness([]workload.Mutation{
		{Kind: workload.MutInsert, ArrivalAt: 1},
	}, time.Second, 0)
	if f.Inserts != 1 || f.Pending != 1 || f.Attainment != 0 || f.TTS.P50 != 0 {
		t.Fatalf("pending-only log wrong: %+v", f)
	}
}

func TestAnnotateFreshness(t *testing.T) {
	width := 30 * time.Second
	wins := []Window{{Start: 0}, {Start: width}}
	slo := 100 * time.Millisecond
	muts := []workload.Mutation{
		mut(1*time.Second, 10*time.Millisecond),
		mut(2*time.Second, 500*time.Millisecond), // violation in window 0
		mut(40*time.Second, 20*time.Millisecond),
		{Kind: workload.MutInsert, ArrivalAt: des.Time(45 * time.Second)}, // pending: violation
		{Kind: workload.MutDelete, ArrivalAt: des.Time(41 * time.Second)}, // ignored
		mut(100*time.Second, time.Millisecond),                            // past the timeline: dropped
	}
	AnnotateFreshness(wins, muts, slo, width)
	if wins[0].Inserts != 2 || wins[0].FreshAttainment != 0.5 {
		t.Fatalf("window 0 wrong: %+v", wins[0])
	}
	if wins[1].Inserts != 2 || wins[1].FreshAttainment != 0.5 {
		t.Fatalf("window 1 wrong: %+v", wins[1])
	}
	// Degenerate inputs are no-ops.
	AnnotateFreshness(nil, muts, slo, width)
	AnnotateFreshness(wins, muts, slo, 0)
}

func TestGoodput(t *testing.T) {
	slo := time.Second
	reqs := []workload.Request{
		{ArrivalAt: 0, FirstToken: des.Time(500 * time.Millisecond), Done: des.Time(time.Second)},
		{ArrivalAt: 0, FirstToken: des.Time(10 * time.Second), Done: des.Time(11 * time.Second)}, // SLO miss
		{ArrivalAt: des.Time(time.Second)}, // never served
	}
	g := Goodput(reqs, []time.Duration{slo}, 0, des.Time(2*time.Second))
	if g != 0.5 {
		t.Fatalf("goodput = %v, want 0.5 (1 SLO-met request / 2s)", g)
	}
	if Goodput(reqs, []time.Duration{slo}, 0, 0) != 0 {
		t.Fatal("zero window must yield zero goodput")
	}
	// Each request is judged against its own tenant's budget, and one out
	// of range against the first.
	reqs[1].Tenant = 1
	if g := Goodput(reqs, []time.Duration{slo, 20 * time.Second}, 0, des.Time(2*time.Second)); g != 1 {
		t.Fatalf("tenant goodput = %v, want 1 (2 SLO-met requests / 2s)", g)
	}
	if g := Goodput(reqs, []time.Duration{20 * time.Second}, 0, des.Time(2*time.Second)); g != 1 {
		t.Fatalf("out-of-range tenant goodput = %v, want 1 (judged against slos[0])", g)
	}
}
