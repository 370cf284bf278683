package workload

import (
	"fmt"
	"math"
	"time"
)

// Schedule maps virtual time to an instantaneous arrival rate in
// requests per second — the non-stationary generalization of the
// constant-rate Poisson source. Implementations must be pure functions
// of time so runs stay deterministic.
type Schedule interface {
	// RateAt returns the arrival rate at virtual time t (>= 0).
	RateAt(t time.Duration) float64
	// MaxRate returns a finite upper bound on RateAt over the whole run;
	// the generator thins candidate arrivals drawn at this bound.
	MaxRate() float64
}

// ConstantSchedule is a stationary rate — Schedule's identity element,
// useful for composing comparisons where one arm drifts and one does
// not.
type ConstantSchedule struct{ Rate float64 }

// Constant wraps a fixed rate as a Schedule.
func Constant(rate float64) ConstantSchedule { return ConstantSchedule{Rate: rate} }

// RateAt implements Schedule.
func (s ConstantSchedule) RateAt(time.Duration) float64 { return s.Rate }

// MaxRate implements Schedule.
func (s ConstantSchedule) MaxRate() float64 { return s.Rate }

// RampSchedule interpolates linearly from From to To over the first
// Over of the run, then holds at To — the gradual traffic growth that
// pushes a plan sized for yesterday's load past its operating point.
type RampSchedule struct {
	From, To float64
	Over     time.Duration
}

// Ramp builds a linear ramp schedule.
func Ramp(from, to float64, over time.Duration) RampSchedule {
	return RampSchedule{From: from, To: to, Over: over}
}

// RateAt implements Schedule.
func (s RampSchedule) RateAt(t time.Duration) float64 {
	if s.Over <= 0 || t >= s.Over {
		return s.To
	}
	if t < 0 {
		t = 0
	}
	frac := float64(t) / float64(s.Over)
	return s.From + (s.To-s.From)*frac
}

// MaxRate implements Schedule.
func (s RampSchedule) MaxRate() float64 { return math.Max(s.From, s.To) }

// BurstSchedule is a periodic square wave: Base rate with bursts of
// Peak lasting BurstLen at the start of every Period — flash-crowd
// traffic.
type BurstSchedule struct {
	Base, Peak float64
	Period     time.Duration
	BurstLen   time.Duration
}

// Bursts builds a periodic burst schedule.
func Bursts(base, peak float64, period, burstLen time.Duration) BurstSchedule {
	return BurstSchedule{Base: base, Peak: peak, Period: period, BurstLen: burstLen}
}

// RateAt implements Schedule.
func (s BurstSchedule) RateAt(t time.Duration) float64 {
	if s.Period <= 0 {
		return s.Base
	}
	if phase := t % s.Period; phase < s.BurstLen {
		return s.Peak
	}
	return s.Base
}

// MaxRate implements Schedule.
func (s BurstSchedule) MaxRate() float64 { return math.Max(s.Base, s.Peak) }

// DiurnalSchedule is a sinusoid around Mean with the given Amplitude
// and Period — the day/night cycle compressed into virtual time.
type DiurnalSchedule struct {
	Mean, Amplitude float64
	Period          time.Duration
}

// Diurnal builds a sinusoidal schedule. The rate starts at Mean,
// peaks at Mean+Amplitude a quarter period in, and bottoms out at
// Mean-Amplitude three quarters in.
func Diurnal(mean, amplitude float64, period time.Duration) DiurnalSchedule {
	return DiurnalSchedule{Mean: mean, Amplitude: amplitude, Period: period}
}

// RateAt implements Schedule.
func (s DiurnalSchedule) RateAt(t time.Duration) float64 {
	if s.Period <= 0 {
		return s.Mean
	}
	r := s.Mean + s.Amplitude*math.Sin(2*math.Pi*float64(t)/float64(s.Period))
	if r < 0 {
		return 0
	}
	return r
}

// MaxRate implements Schedule.
func (s DiurnalSchedule) MaxRate() float64 { return s.Mean + math.Abs(s.Amplitude) }

// MeanArrivals is the expected number of arrivals a generator driven by
// s emits over [0, window]: the integral of the rate, by the midpoint
// rule on a fixed grid. It sizes buffers before a run, so a square wave
// landing a step off costs nothing that matters.
func MeanArrivals(s Schedule, window time.Duration) float64 {
	const steps = 1024
	dt := window / steps
	var sum float64
	for i := 0; i < steps; i++ {
		sum += s.RateAt(time.Duration(i)*dt + dt/2)
	}
	return sum * dt.Seconds()
}

// ValidateSchedule rejects schedules the thinning generator cannot
// drive: the bound must be positive and finite, and no rate may be
// negative at time zero (spot check; implementations are trusted to be
// non-negative throughout).
func ValidateSchedule(s Schedule) error {
	if s == nil {
		return fmt.Errorf("workload: nil schedule")
	}
	max := s.MaxRate()
	if !(max > 0) || math.IsInf(max, 0) || math.IsNaN(max) {
		return fmt.Errorf("workload: schedule max rate %v must be positive and finite", max)
	}
	if r := s.RateAt(0); r < 0 || r > max {
		return fmt.Errorf("workload: schedule rate at t=0 (%v) outside [0, max=%v]", r, max)
	}
	return nil
}
