package workload

import (
	"math"
	"testing"
	"time"

	"vectorliterag/internal/des"
)

func countArrivals(t *testing.T, sched Schedule, horizon time.Duration) []des.Time {
	t.Helper()
	w := testWorkload(t)
	g := NewScheduledGenerator(w, sched, DefaultShape(), 42)
	var sim des.Sim
	var at []des.Time
	g.Start(&sim, des.Time(horizon), func(r *Request) { at = append(at, r.ArrivalAt) })
	sim.Run()
	if g.Count() != len(at) {
		t.Fatalf("Count %d != emitted %d", g.Count(), len(at))
	}
	return at
}

func TestScheduleShapes(t *testing.T) {
	ramp := Ramp(10, 30, 60*time.Second)
	if got := ramp.RateAt(0); got != 10 {
		t.Fatalf("ramp at 0 = %v", got)
	}
	if got := ramp.RateAt(30 * time.Second); math.Abs(got-20) > 1e-9 {
		t.Fatalf("ramp midpoint = %v", got)
	}
	if got := ramp.RateAt(2 * time.Minute); got != 30 {
		t.Fatalf("ramp holds at %v", got)
	}
	b := Bursts(5, 50, time.Minute, 10*time.Second)
	if b.RateAt(5*time.Second) != 50 || b.RateAt(30*time.Second) != 5 || b.RateAt(65*time.Second) != 50 {
		t.Fatal("burst phases wrong")
	}
	d := Diurnal(20, 10, 4*time.Minute)
	if got := d.RateAt(time.Minute); math.Abs(got-30) > 1e-9 {
		t.Fatalf("diurnal peak = %v", got)
	}
	if got := d.RateAt(3 * time.Minute); math.Abs(got-10) > 1e-9 {
		t.Fatalf("diurnal trough = %v", got)
	}
	if got := Diurnal(5, 10, time.Minute).RateAt(45 * time.Second); got != 0 {
		t.Fatalf("diurnal should clamp at zero, got %v", got)
	}
	if Constant(7).MaxRate() != 7 || ramp.MaxRate() != 30 || b.MaxRate() != 50 || d.MaxRate() != 30 {
		t.Fatal("max rates wrong")
	}
}

func TestValidateSchedule(t *testing.T) {
	if err := ValidateSchedule(nil); err == nil {
		t.Fatal("nil schedule accepted")
	}
	if err := ValidateSchedule(Constant(0)); err == nil {
		t.Fatal("zero-rate schedule accepted")
	}
	if err := ValidateSchedule(Constant(math.Inf(1))); err == nil {
		t.Fatal("infinite rate accepted")
	}
	if err := ValidateSchedule(Ramp(5, 20, time.Minute)); err != nil {
		t.Fatal(err)
	}
}

// TestThinnedCountsMatchIntegral: over a long horizon, the realized
// arrival count of the thinned process must match the integral of the
// rate function (Poisson mean) within sampling error.
func TestThinnedCountsMatchIntegral(t *testing.T) {
	const horizon = 400 * time.Second
	cases := []struct {
		name  string
		sched Schedule
		mean  float64 // integral of rate over the horizon
	}{
		{"constant", Constant(20), 20 * 400},
		{"ramp", Ramp(10, 30, 400*time.Second), (10 + 30) / 2.0 * 400},
		{"burst", Bursts(10, 40, 100*time.Second, 25*time.Second), (40*25 + 10*75) * 4},
		{"diurnal", Diurnal(20, 10, 100*time.Second), 20 * 400}, // sine integrates to zero over full periods
	}
	for _, tc := range cases {
		got := float64(len(countArrivals(t, tc.sched, horizon)))
		// 5 sigma of a Poisson with this mean.
		tol := 5 * math.Sqrt(tc.mean)
		if math.Abs(got-tc.mean) > tol {
			t.Errorf("%s: %v arrivals, want %v ± %v", tc.name, got, tc.mean, tol)
		}
	}
}

// TestThinnedBurstConcentration: arrivals during burst windows must be
// denser than outside them, in the realized stream and not just the
// rate function.
func TestThinnedBurstConcentration(t *testing.T) {
	const period = 100 * time.Second
	const burstLen = 25 * time.Second
	at := countArrivals(t, Bursts(5, 40, period, burstLen), 400*time.Second)
	inBurst, outBurst := 0, 0
	for _, a := range at {
		if time.Duration(a)%period < burstLen {
			inBurst++
		} else {
			outBurst++
		}
	}
	// Rates 40 vs 5 over a 1:3 duration split → expected ~8:3 ratio.
	if inBurst <= outBurst {
		t.Fatalf("burst windows not denser: %d in vs %d out", inBurst, outBurst)
	}
}

func TestScheduledGeneratorDeterministic(t *testing.T) {
	a := countArrivals(t, Diurnal(15, 10, 90*time.Second), 200*time.Second)
	b := countArrivals(t, Diurnal(15, 10, 90*time.Second), 200*time.Second)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestConstantPathUnchanged: a Generator without a schedule must keep
// its original RNG draw sequence (the serving goldens depend on it).
func TestConstantPathUnchanged(t *testing.T) {
	w := testWorkload(t)
	g := NewGenerator(w, 20, DefaultShape(), 9)
	var sim des.Sim
	n := 0
	g.Start(&sim, des.Time(60*time.Second), func(*Request) { n++ })
	sim.Run()
	if g.Sched != nil {
		t.Fatal("plain generator has a schedule")
	}
	if n < 1000 || n > 1500 {
		t.Fatalf("constant 20 rps over 60s produced %d arrivals", n)
	}
}

// TestMeanArrivals checks the sizing integral against the closed forms.
func TestMeanArrivals(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Schedule
		d    time.Duration
		want float64
	}{
		{"constant", Constant(12), 100 * time.Second, 1200},
		{"ramp then hold", Ramp(0, 20, 50*time.Second), 100 * time.Second, 500 + 1000},
		{"bursts", Bursts(4, 30, 30*time.Second, 10*time.Second), 60 * time.Second, 2 * (10*30 + 20*4)},
		{"whole diurnal cycles", Diurnal(10, 5, 20*time.Second), 60 * time.Second, 600},
	} {
		if got := MeanArrivals(tc.s, tc.d); math.Abs(got-tc.want) > 0.01*tc.want {
			t.Errorf("%s: %.1f arrivals, want %.1f within 1%%", tc.name, got, tc.want)
		}
	}
}
