package partition

import (
	"testing"
	"testing/quick"
	"time"

	"vectorliterag/internal/dataset"
)

// Property-based coverage of Algorithm 1's output domain: for any
// plausible (SLO, mu0, MemKV), the result must be a valid configuration
// — rho in [0,1], a positive planned batch, tail hit rate within the
// mean curve's range, and index bytes consistent with rho.
func TestLatencyBoundedOutputDomain(t *testing.T) {
	f := setup(t, dataset.Orcas1K)
	bytesAt := f.inputs().IndexBytesAt
	check := func(sloMSRaw uint16, mu0Raw uint8, memGBRaw uint8) bool {
		sloMS := 20 + int(sloMSRaw%981)  // 20..1000 ms
		mu0 := 2 + float64(mu0Raw%99)    // 2..100 rps
		memGB := 50 + int64(memGBRaw%51) // 50..100 GB per... node-wide
		in := f.inputs()
		in.SLOSearch = time.Duration(sloMS) * time.Millisecond
		in.Mu0 = mu0
		in.MemKV = memGB << 30 * 4
		res, err := LatencyBounded(in)
		if err != nil {
			return false
		}
		if res.Rho < 0 || res.Rho > 1 {
			return false
		}
		if res.ExpectedBatch < 1 {
			return false
		}
		if res.EtaMin < 0 || res.EtaMin > 1 {
			return false
		}
		if res.IndexBytes != bytesAt(res.Rho) {
			return false
		}
		if res.TauS != in.SLOSearch/2 {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Bigger KV pools make the index memory relatively cheaper, so coverage
// should never *decrease* when MemKV grows (all else equal).
func TestCoverageMonotoneInMemKV(t *testing.T) {
	f := setup(t, dataset.Orcas1K)
	var prev float64 = -1
	for _, memGB := range []int64{100, 200, 400, 800} {
		in := f.inputs()
		in.MemKV = memGB << 30
		res, err := LatencyBounded(in)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.Rho < prev-0.03 {
			t.Fatalf("coverage fell from %v to %v when MemKV grew to %dGB", prev, res.Rho, memGB)
		}
		prev = res.Rho
	}
}

// Epsilon ablation: a larger queuing factor shrinks the search budget
// (tau_s = SLO/(1+eps)), so coverage must not decrease with eps.
func TestCoverageMonotoneInEpsilon(t *testing.T) {
	f := setup(t, dataset.Orcas1K)
	var prev float64 = -1
	for _, eps := range []float64{0.5, 1.0, 1.5, 2.0} {
		in := f.inputs()
		in.Epsilon = eps
		res, err := LatencyBounded(in)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.Rho < prev-0.03 {
			t.Fatalf("coverage fell from %v to %v at eps=%v", prev, res.Rho, eps)
		}
		prev = res.Rho
		wantTau := time.Duration(float64(in.SLOSearch) / (1 + eps))
		if diff := res.TauS - wantTau; diff > time.Millisecond || diff < -time.Millisecond {
			t.Fatalf("tauS = %v, want %v at eps=%v", res.TauS, wantTau, eps)
		}
	}
}

// Hedra's output domain under the same fuzzing.
func TestHedraOutputDomain(t *testing.T) {
	f := setup(t, dataset.Orcas1K)
	check := func(mu0Raw uint8) bool {
		mu0 := 2 + float64(mu0Raw) // 2..257 rps
		in := HedraInputs{
			Perf: f.perf, Est: f.est,
			MemKV: 300 << 30, Mu0: mu0,
			IndexBytesAt: f.inputs().IndexBytesAt,
		}
		res, err := Hedra(in)
		if err != nil {
			return false
		}
		return res.Rho >= 0 && res.Rho <= 1 && res.MuLLM >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
