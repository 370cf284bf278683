package rag

import (
	"reflect"
	"sync"
	"testing"
)

// TestDecideIsRunsDecision: for every system, Decide returns the
// decision a run makes for itself — the coverage, plan bytes, μ0 and
// partition diagnostics a Run reports.
func TestDecideIsRunsDecision(t *testing.T) {
	for _, kind := range AllKinds() {
		o := quickOpts(t, kind)
		d, err := Decide(o)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res, err := Run(o)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if d.Kind != kind || d.Rho != res.Rho || d.PlanBytes != res.PlanBytes || d.Mu0 != res.Mu0 ||
			!reflect.DeepEqual(d.Partition, res.Partition) {
			t.Errorf("%s: Decide made (%s, rho %v, %d bytes, mu0 %v, %+v); Run reports (rho %v, %d bytes, mu0 %v, %+v)",
				kind, d.Kind, d.Rho, d.PlanBytes, d.Mu0, d.Partition, res.Rho, res.PlanBytes, res.Mu0, res.Partition)
		}
	}
}

// TestOneDecisionServesManyRuns: one decision serves two rates and both
// arms of a drift study, each byte for byte the run that decided for
// itself, and serves two runs from two goroutines at once (the race
// detector checks that no run writes it).
func TestOneDecisionServesManyRuns(t *testing.T) {
	served := func(o Options, d *Decision) *Result {
		t.Helper()
		o.Decision = d
		res, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := func(label string, got, want *Result) {
		t.Helper()
		if !reflect.DeepEqual(got.Requests, want.Requests) || !reflect.DeepEqual(got.Adapt, want.Adapt) ||
			got.Rho != want.Rho || got.Mu0 != want.Mu0 {
			t.Errorf("%s: served from the shared decision, the run differs from one that decided for itself", label)
		}
	}

	static := driftOpts(t, 28)
	static.ProfileQueries = 1000
	d, err := Decide(static)
	if err != nil {
		t.Fatal(err)
	}
	ad := served(adaptive(static), d)
	if len(ad.Adapt.Rebuilds) == 0 {
		t.Fatal("the adaptive arm never re-planned on the shared decision's models")
	}
	same("adaptive arm", ad, served(adaptive(static), nil))
	same("static arm", served(static, d), served(static, nil))

	// Drift rotates the shared workload, so the concurrent runs take none.
	rates := []Options{quickOpts(t, VLiteRAG), quickOpts(t, VLiteRAG)}
	rates[1].Rate = 20
	want := []*Result{served(rates[0], nil), served(rates[1], nil)}
	shared, err := Decide(rates[0])
	if err != nil {
		t.Fatal(err)
	}
	got, errs := make([]*Result, len(rates)), make([]error, len(rates))
	var wg sync.WaitGroup
	for i := range rates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := rates[i]
			o.Decision = shared
			got[i], errs[i] = Run(o)
		}()
	}
	wg.Wait()
	for i := range rates {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		same("concurrent rate", got[i], want[i])
	}
}
