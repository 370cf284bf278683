package dataset

import (
	"sync"
	"testing"
)

// TestDistortionMeasuredOnce: every caller — here eight at once — gets
// the one measurement, and the workload pays for the SQ8 training once.
func TestDistortionMeasuredOnce(t *testing.T) {
	w := buildWorkload(t, Orcas1K, smallGen())
	got := make([]*Distortion, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := w.Distortion()
			if err != nil {
				t.Error(err)
			}
			got[i] = d
		}()
	}
	wg.Wait()
	if again, _ := w.Distortion(); again != got[0] {
		t.Fatal("a later call measured again")
	}
	for i, d := range got {
		if d != got[0] {
			t.Fatalf("caller %d got a different measurement", i)
		}
	}
	if w.distortion.runs != 1 {
		t.Fatalf("%d measurements, want 1", w.distortion.runs)
	}
	if n := w.Index.NList(); len(got[0].PQ) != n || len(got[0].SQ) != n || got[0].MeanPQ <= 0 {
		t.Fatalf("distortion has %d/%d clusters (want %d) and mean %v", len(got[0].PQ), len(got[0].SQ), n, got[0].MeanPQ)
	}
}
