package main

import "time"

// tracer accumulates spans and counts recorded from the benchmark's own
// files around calls into each layer. A nil tracer records nothing and
// costs one branch, which is how the end-to-end pass runs.
type tracer struct {
	spans  map[string]*span
	counts map[string]float64
}

// span is the running total of one named boundary: how often it was
// crossed and how long the calls behind it took.
type span struct {
	n     int64
	total time.Duration
}

func newTracer() *tracer {
	return &tracer{spans: map[string]*span{}, counts: map[string]float64{}}
}

// start opens a span; the zero time on a nil tracer is never read.
func (t *tracer) start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes the span opened at t0 under name, crediting it with n
// crossings (a span around a loop of n calls records n).
func (t *tracer) end(name string, t0 time.Time, n int) {
	if t == nil {
		return
	}
	d := time.Since(t0)
	s := t.spans[name]
	if s == nil {
		s = &span{}
		t.spans[name] = s
	}
	s.n += int64(n)
	s.total += d
}

// count adds v to a named counter at the boundary where the work happens.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// crossings returns how often the span was crossed.
func (t *tracer) crossings(name string) int64 {
	if s := t.spans[name]; s != nil {
		return s.n
	}
	return 0
}

// per returns the span's mean duration per crossing in the given unit.
func (t *tracer) per(name string, unit time.Duration) float64 {
	s := t.spans[name]
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / float64(unit)
}

// sum returns the span's total duration in the given unit.
func (t *tracer) sum(name string, unit time.Duration) float64 {
	s := t.spans[name]
	if s == nil {
		return 0
	}
	return float64(s.total) / float64(unit)
}
