// Package parallel provides the deterministic worker-pool primitive the
// offline build path (k-means, PQ training, template probing, profiling)
// uses to exploit multiple cores without changing results.
//
// Determinism contract: each chunk writes only to its own disjoint
// range of a preallocated output, so the result is independent of chunk
// boundaries and scheduling order. Order-sensitive floating-point
// reductions stay in the caller, which folds per-element partials in
// fixed index order; integer tallies may use per-worker partials since
// integer addition commutes exactly. Under that discipline a run with W
// workers is bit-identical to a run with one, so a fixed seed keeps
// producing the same index plan on any machine.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: non-positive means one worker
// per P — GOMAXPROCS, not the core count, because helpers beyond the Ps
// a CPU-limited process may run only queue behind one another.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// chunkSize picks a grain that amortizes scheduling overhead while
// keeping enough chunks in flight to balance uneven work.
func chunkSize(n, workers int) int {
	if workers <= 1 {
		return n
	}
	// Aim for ~8 chunks per worker, bounded below so tiny inputs do not
	// fragment into per-element tasks.
	c := n / (workers * 8)
	if c < 64 {
		c = 64
	}
	return c
}

// For runs body(start, end) over the half-open chunks of [0, n) on the
// given number of workers (non-positive = GOMAXPROCS, see Workers). Chunk boundaries are
// a pure function of n and workers only through the grain heuristic —
// body must only write to outputs indexed by [start, end), which makes
// the overall result independent of scheduling order.
func For(n, workers int, body func(start, end int)) {
	if n <= 0 {
		return
	}
	if min(Workers(workers), n) <= 1 {
		body(0, n) // before NewLoop: one worker allocates nothing
		return
	}
	NewLoop(body).Run(n, workers)
}

// Loop is For for a body that runs many times: the fan-out state (chunk
// counter, wait group, the worker function the helpers start) is built
// once, so each Run allocates nothing. The calling goroutine works
// through chunks beside the helpers. A Loop runs one Run at a time.
type Loop struct {
	body             func(start, end int)
	n, chunk, chunks int
	next             atomic.Int64
	wg               sync.WaitGroup
	helper           func() // drain, then Done; `go l.helper()` allocates nothing
}

// NewLoop prepares body for repeated Runs.
func NewLoop(body func(start, end int)) *Loop {
	l := &Loop{body: body}
	l.helper = func() {
		l.drain()
		l.wg.Done()
	}
	return l
}

// Run is For(n, workers, body) on the Loop's body: the same chunks,
// each run once, on at most the given number of workers.
func (l *Loop) Run(n, workers int) {
	if n <= 0 {
		return
	}
	w := min(Workers(workers), n)
	if w <= 1 {
		l.body(0, n)
		return
	}
	l.n, l.chunk = n, chunkSize(n, w)
	l.chunks = (n + l.chunk - 1) / l.chunk
	w = min(w, l.chunks)
	l.next.Store(0)
	l.wg.Add(w - 1)
	for g := 1; g < w; g++ {
		go l.helper()
	}
	l.drain()
	l.wg.Wait()
}

// drain runs chunks until none is left.
func (l *Loop) drain() {
	for {
		i := int(l.next.Add(1)) - 1
		if i >= l.chunks {
			return
		}
		start := i * l.chunk
		l.body(start, min(start+l.chunk, l.n))
	}
}

// ForEach runs body(i) for every i in [0, n) on the given number of
// workers. It is For with a per-element body; use it when each item is
// heavy (e.g. one k-means training per PQ subspace).
func ForEach(n, workers int, body func(i int)) {
	ForEachWorker(n, workers, func(_, i int) { body(i) })
}

// ForEachWorker is ForEach that also tells body which worker runs item
// i: w is in [0, min(workers, n)), and no two items run on one w at
// once, so body may reuse per-worker scratch indexed by w.
func ForEachWorker(n, workers int, body func(w, i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				body(g, i)
			}
		}()
	}
	wg.Wait()
}
