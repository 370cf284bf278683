package rag

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"vectorliterag/internal/serve"
	"vectorliterag/internal/workload"
)

// TestFleetWritesEachRequestOnce is the fleet's footprint fence: under
// both policies — round-robin runs each lane alone, least-loaded runs the
// lanes in rounds — a whole Run, decision included, allocates at most one
// request record plus 64 bytes per admitted request. The arrival-ordered
// array is the only copy of a request: any second one — a per-replica
// record, a merged array — adds a full record per request and fails it.
// The run is long enough that the decision, measured on a run of the
// same options cut to one second, is under a tenth of the total.
func TestFleetWritesEachRequestOnce(t *testing.T) {
	limit := float64(unsafe.Sizeof(workload.Request{}) + 64)
	for _, policy := range serve.Policies() {
		o := routed(shardedClusterOpts(t, 1, 2), 4, policy)
		o.Rate, o.Duration, o.Warmup, o.Drain = 80, 800*time.Second, 10*time.Second, 10*time.Second
		short := o
		short.Duration = time.Second
		allocated := func(o Options) (uint64, int) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Run(o)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			return after.TotalAlloc - before.TotalAlloc, len(res.Requests)
		}
		allocated(short) // memoized set-up (the SLO, the workload's lazy state) stays out of both
		decision, _ := allocated(short)
		total, n := allocated(o)
		label := fmt.Sprintf("%s x4: %d requests, %d bytes (decision %d)", policy, n, total, decision)
		if 10*decision >= total {
			t.Fatalf("%s: the decision is not under a tenth of the run", label)
		}
		if per := float64(total) / float64(n); per > limit {
			t.Fatalf("%s: %.1f bytes per admitted request, want at most %.0f", label, per, limit)
		}
		t.Logf("%s: %.1f bytes per admitted request", label, float64(total)/float64(n))
	}
}
