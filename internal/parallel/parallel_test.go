package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatalf("Workers(3) = %d", Workers(3))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, -1} {
			if Workers(n) != procs {
				t.Fatalf("GOMAXPROCS=%d: Workers(%d) = %d, want GOMAXPROCS", procs, n, Workers(n))
			}
		}
	}
}

// TestForCoversRangeOnce: every index is visited exactly once for any
// worker count — the determinism contract's precondition.
func TestForCoversRangeOnce(t *testing.T) {
	const n = 10_000
	for _, workers := range []int{1, 2, 7, 0} {
		visits := make([]int32, n)
		For(n, workers, func(start, end int) {
			if start < 0 || end > n || start >= end {
				t.Errorf("bad chunk [%d,%d)", start, end)
			}
			for i := start; i < end; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

// TestForDeterministic: disjoint-range writes produce identical output
// regardless of worker count.
func TestForDeterministic(t *testing.T) {
	const n = 5000
	run := func(workers int) []int {
		out := make([]int, n)
		For(n, workers, func(start, end int) {
			for i := start; i < end; i++ {
				out[i] = i * i
			}
		})
		return out
	}
	ref := run(1)
	for _, workers := range []int{2, 4, 0} {
		got := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestForEach(t *testing.T) {
	for _, workers := range []int{1, 3, 0} {
		const n = 500
		visits := make([]int32, n)
		ForEach(n, workers, func(i int) { atomic.AddInt32(&visits[i], 1) })
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

// TestForEachWorker: every item runs once, on a worker index below the
// resolved worker count, and no two items share a worker at once — so
// per-worker scratch indexed by w is never written concurrently.
func TestForEachWorker(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 500
		visits := make([]int32, n)
		busy := make([]int32, workers)
		ForEachWorker(n, workers, func(w, i int) {
			if w < 0 || w >= workers {
				t.Errorf("workers=%d: item %d ran on worker %d", workers, i, w)
				return
			}
			if atomic.AddInt32(&busy[w], 1) != 1 {
				t.Errorf("workers=%d: worker %d ran two items at once", workers, w)
			}
			atomic.AddInt32(&visits[i], 1)
			atomic.AddInt32(&busy[w], -1)
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	For(0, 4, func(int, int) { t.Fatal("body called for n=0") })
	ForEach(0, 4, func(int) { t.Fatal("body called for n=0") })
	ForEach(-3, 4, func(int) { t.Fatal("body called for n<0") })
	// n smaller than the worker count and the chunk grain.
	count := int32(0)
	For(5, 16, func(start, end int) { atomic.AddInt32(&count, int32(end-start)) })
	if count != 5 {
		t.Fatalf("tiny For covered %d of 5", count)
	}
}

// TestLoopReusedAcrossRuns: one Loop runs many times at changing sizes
// and worker counts, covering each index once per Run, and a Run
// allocates nothing — the helpers start from a function built once.
func TestLoopReusedAcrossRuns(t *testing.T) {
	var visits []int32
	l := NewLoop(func(start, end int) {
		for i := start; i < end; i++ {
			atomic.AddInt32(&visits[i], 1)
		}
	})
	for _, n := range []int{1, 63, 64, 1999, 10_000} {
		for _, workers := range []int{1, 2, 7, 0} {
			visits = make([]int32, n)
			l.Run(n, workers)
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
				}
			}
		}
	}
	visits = make([]int32, 1999)
	if allocs := testing.AllocsPerRun(50, func() { l.Run(1999, 4) }); allocs != 0 {
		t.Fatalf("a Run allocated %v objects, want 0", allocs)
	}
}
