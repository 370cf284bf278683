package kmeans

import (
	"math"
	"testing"

	"vectorliterag/internal/rng"
	"vectorliterag/internal/vecmath"
)

// blob generates n points around each of the given centers with the
// given spread.
func blob(r *rng.Rand, centers [][]float32, nPer int, spread float64) []float32 {
	dim := len(centers[0])
	out := make([]float32, 0, len(centers)*nPer*dim)
	for _, c := range centers {
		for i := 0; i < nPer; i++ {
			for d := 0; d < dim; d++ {
				out = append(out, c[d]+float32(r.NormFloat64()*spread))
			}
		}
	}
	return out
}

func TestTrainRecoversWellSeparatedClusters(t *testing.T) {
	r := rng.New(1)
	centers := [][]float32{{0, 0}, {10, 10}, {-10, 10}}
	data := blob(r, centers, 100, 0.3)
	res, err := Train(data, Config{K: 3, Dim: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Every true center must be within 0.5 of some learned centroid.
	for _, c := range centers {
		idx, d := vecmath.ArgminL2(c, res.Centroids, 2)
		if math.Sqrt(float64(d)) > 0.5 {
			t.Fatalf("center %v not recovered; nearest centroid %d at dist %v", c, idx, math.Sqrt(float64(d)))
		}
	}
}

func TestAssignmentsConsistentWithCentroids(t *testing.T) {
	r := rng.New(2)
	data := blob(r, [][]float32{{0, 0}, {5, 5}}, 50, 0.5)
	res, err := Train(data, Config{K: 2, Dim: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data)/2; i++ {
		v := data[i*2 : (i+1)*2]
		want, _ := vecmath.ArgminL2(v, res.Centroids, 2)
		if res.Assignments[i] != want {
			t.Fatalf("vector %d assigned to %d but nearest centroid is %d", i, res.Assignments[i], want)
		}
	}
}

func TestInertiaDecreasesWithMoreClusters(t *testing.T) {
	r := rng.New(3)
	data := blob(r, [][]float32{{0, 0}, {8, 0}, {0, 8}, {8, 8}}, 60, 1.0)
	var prev float64 = math.Inf(1)
	for _, k := range []int{1, 2, 4} {
		res, err := Train(data, Config{K: k, Dim: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev {
			t.Fatalf("inertia rose from %v to %v at k=%d", prev, res.Inertia, k)
		}
		prev = res.Inertia
	}
}

func TestTrainDeterministic(t *testing.T) {
	r := rng.New(4)
	data := blob(r, [][]float32{{0, 0}, {5, 5}}, 40, 0.5)
	a, _ := Train(data, Config{K: 2, Dim: 2, Seed: 11})
	b, _ := Train(data, Config{K: 2, Dim: 2, Seed: 11})
	for i := range a.Centroids {
		if a.Centroids[i] != b.Centroids[i] {
			t.Fatal("same seed produced different centroids")
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train([]float32{1, 2, 3}, Config{K: 1, Dim: 2}); err == nil {
		t.Fatal("ragged data accepted")
	}
	if _, err := Train([]float32{1, 2}, Config{K: 2, Dim: 2}); err == nil {
		t.Fatal("fewer vectors than centroids accepted")
	}
	if _, err := Train([]float32{1, 2}, Config{K: 0, Dim: 2}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Train([]float32{1, 2}, Config{K: 1, Dim: 0}); err == nil {
		t.Fatal("dim=0 accepted")
	}
}

func TestNoEmptyClustersOnDuplicateData(t *testing.T) {
	// All-identical vectors force empty clusters; the re-seeding path
	// must still produce K centroids and valid assignments.
	data := make([]float32, 0, 20*2)
	for i := 0; i < 20; i++ {
		data = append(data, 1, 1)
	}
	res, err := Train(data, Config{K: 4, Dim: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 4*2 {
		t.Fatalf("expected 4 centroids, got %d floats", len(res.Centroids))
	}
	for _, a := range res.Assignments {
		if a < 0 || a >= 4 {
			t.Fatalf("invalid assignment %d", a)
		}
	}
}

// TestSeedPlusPlusMatchesPerRowReference pins the blocked seeding pass
// to the loop it replaced — one SquaredL2(row, centre) per vector per
// pick — on the same generator state: identical picks, in order, for
// sizes that leave remainder rows and partial blocks, at any worker
// count.
func TestSeedPlusPlusMatchesPerRowReference(t *testing.T) {
	for _, tc := range []struct{ n, dim, k int }{{50, 3, 7}, {130, 8, 16}, {333, 64, 12}} {
		data := trainData(tc.n, tc.dim, uint64(tc.n))
		// Duplicated rows make zero distances and ties in the draw.
		copy(data[tc.dim:2*tc.dim], data[:tc.dim])

		r := rng.New(9)
		want := make([]float32, tc.k*tc.dim)
		first := r.Intn(tc.n)
		copy(want[:tc.dim], data[first*tc.dim:(first+1)*tc.dim])
		d2 := make([]float64, tc.n)
		for c := 1; c < tc.k; c++ {
			prev := want[(c-1)*tc.dim : c*tc.dim]
			total := 0.0
			for i := range d2 {
				d := float64(vecmath.SquaredL2(data[i*tc.dim:(i+1)*tc.dim], prev))
				if c == 1 || d < d2[i] {
					d2[i] = d
				}
				total += d2[i]
			}
			pick := tc.n - 1
			if total <= 0 {
				pick = r.Intn(tc.n)
			} else {
				target, cum := r.Float64()*total, 0.0
				for i, d := range d2 {
					if cum += d; cum >= target {
						pick = i
						break
					}
				}
			}
			copy(want[c*tc.dim:(c+1)*tc.dim], data[pick*tc.dim:(pick+1)*tc.dim])
		}
		for _, workers := range []int{1, 3} {
			got := seedPlusPlus(data, tc.n, tc.dim, tc.k, workers, rng.New(9))
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n %d dim %d workers %d: seed centroid %d differs from the per-row reference", tc.n, tc.dim, workers, i/tc.dim)
				}
			}
		}
	}
}
