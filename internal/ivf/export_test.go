package ivf

import (
	"sort"

	"vectorliterag/internal/parallel"
	"vectorliterag/internal/vecmath"
)

// PQTrained reports whether ix has trained its PQ codebooks. It reads
// without synchronization: call it only while no search is in flight.
func PQTrained(ix *Index) bool { return ix.quant != nil }

// SearchClusters scans only the listed clusters (after an external
// Probe). The result is freshly allocated and owned by the caller.
func (ix *Index) SearchClusters(query []float32, clusters []int, k int) []vecmath.Neighbor {
	s := ix.getScratch()
	res := ix.SearchClustersInto(s, query, clusters, k)
	out := make([]vecmath.Neighbor, len(res))
	copy(out, res)
	ix.putScratch(s)
	return out
}

// Recall computes the fraction of brute-force top-k ground truth
// recovered by the index at the given nprobe, averaged over the queries
// (row-major).
func (ix *Index) Recall(data, queries []float32, nprobe, k int) float64 {
	nq := len(queries) / ix.dim
	if nq == 0 {
		return 0
	}
	// Row norms of the corpus are computed once and shared read-only
	// across workers; each worker chunk clones the forcer for its own
	// query scratch.
	bfShared := vecmath.NewBruteForcer(data, ix.dim)
	// Per-query recalls compute concurrently; the mean folds in query
	// order so the result matches a sequential run exactly.
	perQuery := make([]float64, nq)
	parallel.For(nq, ix.workers, func(start, end int) {
		bf := bfShared.Clone()
		s := ix.getScratch()
		truth := make([]vecmath.Neighbor, 0, k)
		truthIDs := make([]int, 0, k)
		for qi := start; qi < end; qi++ {
			q := queries[qi*ix.dim : (qi+1)*ix.dim]
			truth = bf.AppendTopK(truth[:0], q, k)
			got := ix.SearchInto(s, q, nprobe, k)
			truthIDs = truthIDs[:0]
			for _, nb := range truth {
				truthIDs = append(truthIDs, nb.Index)
			}
			sort.Ints(truthIDs)
			hit := 0
			for _, nb := range got {
				j := sort.SearchInts(truthIDs, nb.Index)
				if j < len(truthIDs) && truthIDs[j] == nb.Index {
					hit++
				}
			}
			perQuery[qi] = float64(hit) / float64(k)
		}
		ix.putScratch(s)
	})
	sum := 0.0
	for _, v := range perQuery {
		sum += v
	}
	return sum / float64(nq)
}
