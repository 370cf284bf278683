// Package ivf implements an Inverted File (IVF) index with product
// quantization — the index family VectorLiteRAG targets (paper §II).
//
// Construction: a coarse quantizer (k-means centroids) partitions the
// database into nlist clusters; each database vector is assigned to its
// nearest centroid and stored in that cluster's inverted list as a PQ
// code. Build trains only the coarse quantizer and fills the lists'
// IDs: the partitioner reads nothing else. The PQ codebooks train, and
// the codes fill, on the first call that reads them (see trainPQ).
// Search proceeds in the three stages of the paper's Figure 2:
//
//  1. coarse quantization (CQ): rank clusters by centroid distance and
//     keep the top nprobe;
//  2. LUT construction: precompute query-to-codeword partial distances;
//  3. LUT scan: accumulate approximate distances over the candidate
//     clusters' codes and keep the top-k. Once the top-k is full, a
//     list whose codeword-mask bound reaches its k-th best is skipped
//     (pq.LUT.Prunes): no code of it could enter, so the result is the
//     full scan's, bit for bit.
//
// The stages are exposed separately (Probe / BuildLUT / ScanCluster) so
// the hybrid CPU–GPU engine can route stage 3 per cluster, which is
// exactly the granularity VectorLiteRAG partitions at.
//
// Query-time execution is allocation-free in steady state: a
// SearchScratch owns the LUT buffer, top-k heap storage, probe list,
// and result slice, and is threaded through SearchInto /
// SearchClustersInto (Search wraps SearchInto over an internal scratch
// pool). SearchBatch amortizes scratch reuse across a
// batch and fans out over the internal/parallel pool with the
// repository's bit-identical determinism contract: results match a
// sequential per-query loop exactly for any worker count.
package ivf

import (
	"fmt"
	"slices"
	"sync"

	"vectorliterag/internal/kmeans"
	"vectorliterag/internal/parallel"
	"vectorliterag/internal/pq"
	"vectorliterag/internal/vecmath"
)

// BuildConfig controls index construction.
type BuildConfig struct {
	Dim        int
	NList      int // number of IVF clusters
	PQM        int // PQ subspaces (code bytes per vector)
	PQK        int // codewords per subspace (<= 256)
	TrainIters int
	Seed       uint64
	// Workers sizes the training worker pool; non-positive
	// means one per P (GOMAXPROCS). The built index is bit-identical for any
	// value (deterministic chunking; see internal/parallel).
	Workers int
}

// Index is an IVF-PQ index.
type Index struct {
	dim       int
	nlist     int
	centroids []float32 // nlist x dim
	centNorms []float32 // per-centroid squared norms for decomposed CQ
	lists     []list
	nvecs     int
	workers   int // build-time worker-pool size, reused by SearchBatch
	scratch   sync.Pool

	// The PQ half, trained by trainPQ on first use: pqData is Build's
	// corpus (not a copy) until then, quant and the lists' codes after.
	pqOnce sync.Once
	pqCfg  pq.Config
	pqData []float32
	quant  *pq.Quantizer
}

type list struct {
	ids   []int32
	codes []byte
	mask  []uint64 // the codewords its codes use (pq.MarkCodes)
}

// Build trains the coarse quantizer on the data and fills the inverted
// lists' IDs. data is row-major with cfg.Dim columns; the index keeps a
// reference to it, which the caller must not modify, until the PQ
// codebooks train on first use. The PQ config is validated here, so
// that training cannot fail.
func Build(data []float32, cfg BuildConfig) (*Index, error) {
	if cfg.Dim <= 0 || len(data) == 0 || len(data)%cfg.Dim != 0 {
		return nil, fmt.Errorf("ivf: bad data length %d for dim %d", len(data), cfg.Dim)
	}
	n := len(data) / cfg.Dim
	if cfg.NList <= 0 || cfg.NList > n {
		return nil, fmt.Errorf("ivf: nlist %d invalid for %d vectors", cfg.NList, n)
	}
	// PQ is trained on residuals-free raw vectors (IVFPQ "by_residual=false"
	// mode), which keeps LUT semantics simple: one LUT per query serves
	// every cluster. It does not depend on the coarse quantizer, so when
	// it trains does not change its bits.
	pqCfg := pq.Config{Dim: cfg.Dim, M: cfg.PQM, K: cfg.PQK, Iters: cfg.TrainIters, Seed: cfg.Seed + 1, Workers: cfg.Workers}
	if err := pqCfg.Validate(data); err != nil {
		return nil, fmt.Errorf("ivf: pq: %w", err)
	}
	coarse, err := kmeans.Train(data, kmeans.Config{K: cfg.NList, Dim: cfg.Dim, MaxIters: cfg.TrainIters, Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		return nil, fmt.Errorf("ivf: coarse quantizer: %w", err)
	}
	ix := &Index{
		dim:       cfg.Dim,
		nlist:     cfg.NList,
		centroids: coarse.Centroids,
		centNorms: vecmath.RowNorms(coarse.Centroids, cfg.Dim, nil),
		lists:     make([]list, cfg.NList),
		nvecs:     n,
		workers:   cfg.Workers,
		pqCfg:     pqCfg,
		pqData:    data,
	}
	// Fill the inverted lists in index order.
	for i, c := range coarse.Assignments {
		ix.lists[c].ids = append(ix.lists[c].ids, int32(i))
	}
	return ix, nil
}

// trained returns the trained product quantizer, training it and
// filling every list's codes on the first call. Later calls cost one
// atomic load.
func (ix *Index) trained() *pq.Quantizer {
	ix.pqOnce.Do(ix.trainPQ)
	return ix.quant
}

// trainPQ trains the PQ codebooks on Build's corpus and fills each
// list's codes in list order, and its codeword mask from them. Training
// on the whole corpus yields every vector's code (Encode's, bit for
// bit), so there is no encode pass. Build validated the config, so an
// error here is a broken invariant.
func (ix *Index) trainPQ() {
	quant, codes, err := pq.TrainEncode(ix.pqData, ix.pqCfg)
	if err != nil {
		panic(fmt.Sprintf("ivf: pq training failed on a config Build validated: %v", err))
	}
	cs := quant.CodeSize()
	arena := make([]byte, 0, len(codes))
	ml := pq.MaskLen(cs)
	masks := make([]uint64, len(ix.lists)*ml)
	for c := range ix.lists {
		l := &ix.lists[c]
		start := len(arena)
		for _, id := range l.ids {
			arena = append(arena, codes[int(id)*cs:(int(id)+1)*cs]...)
		}
		l.codes = arena[start:len(arena):len(arena)]
		l.mask = masks[c*ml : (c+1)*ml : (c+1)*ml]
		pq.MarkCodes(l.mask, l.codes, cs)
	}
	ix.quant, ix.pqData = quant, nil
}

// Dim returns the vector dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// NList returns the number of clusters.
func (ix *Index) NList() int { return ix.nlist }

// NVectors returns the number of indexed vectors.
func (ix *Index) NVectors() int { return ix.nvecs }

// CodeSize returns bytes per stored PQ code. It does not train PQ.
func (ix *Index) CodeSize() int { return ix.pqCfg.M }

// ClusterSize returns the number of vectors in cluster c.
func (ix *Index) ClusterSize(c int) int { return len(ix.lists[c].ids) }

// ClusterSizes returns a copy of all cluster sizes.
func (ix *Index) ClusterSizes() []int {
	out := make([]int, ix.nlist)
	for i := range ix.lists {
		out[i] = len(ix.lists[i].ids)
	}
	return out
}

// Quantizer exposes the trained product quantizer so a live-corpus
// layer can encode freshly inserted vectors into the same code space
// as the built lists.
func (ix *Index) Quantizer() *pq.Quantizer { return ix.trained() }

// ClusterIDs returns cluster c's inverted-list vector IDs. The slice
// is the index's own storage — callers must treat it as read-only.
func (ix *Index) ClusterIDs(c int) []int32 { return ix.lists[c].ids }

// ClusterCodes returns cluster c's PQ codes (ClusterSize(c) ×
// CodeSize() bytes). The slice is the index's own storage — callers
// must treat it as read-only.
func (ix *Index) ClusterCodes(c int) []byte {
	ix.trained()
	return ix.lists[c].codes
}

// ClusterMask returns cluster c's codeword mask (pq.MaskLen(CodeSize())
// words): the codewords its codes use, from which LUT.Prunes bounds
// the distance of every code of the list from below. The slice is the
// index's own storage — callers must treat it as read-only.
func (ix *Index) ClusterMask(c int) []uint64 {
	ix.trained()
	return ix.lists[c].mask
}

// NearestCentroid returns the cluster whose centroid is closest to v —
// the routing step for a live insert. It uses the same norm-decomposed
// scan as ProbeInto, so routing is consistent with query-time coarse
// quantization.
func (ix *Index) NearestCentroid(v []float32) int {
	if len(v) != ix.dim {
		panic(fmt.Sprintf("ivf: route vector dim %d != index dim %d", len(v), ix.dim))
	}
	c, _, _ := vecmath.ArgminNormScore(v, ix.centroids, ix.centNorms, ix.dim)
	return c
}

// CentroidResidual2 returns the squared L2 distance between v and
// cluster c's centroid — the residual norm the drift trackers watch.
func (ix *Index) CentroidResidual2(v []float32, c int) float32 {
	return vecmath.SquaredL2(v, ix.centroids[c*ix.dim:(c+1)*ix.dim])
}

// ScanClusterMasked scans one inverted list with the given LUT under a
// positional tombstone bitmap, pushing candidates into top: candidates
// whose bit is set in dead are skipped (an empty bitmap scans
// everything).
func (ix *Index) ScanClusterMasked(lut *pq.LUT, cluster int, dead []uint64, top *vecmath.TopK) {
	ix.trained()
	l := &ix.lists[cluster]
	lut.ScanCodesIDsMasked(l.codes, l.ids, dead, top)
}

// SearchScratch owns every buffer the three-stage search pipeline
// touches — the centroid products, probe heap and probe list, the
// per-query LUT, the top-k heap, and the result slice — so steady-state
// search performs zero allocations. A scratch is not safe for
// concurrent use; create one per worker (or let Search/SearchBatch draw
// from the index's internal pool). Result slices returned by the *Into
// methods alias the scratch and are valid until its next use.
type SearchScratch struct {
	lut      pq.LUT
	top      vecmath.TopK
	probeTop vecmath.TopK
	cdots    []float32 // <query, centroid> per cluster, one DotRows pass
	probes   []int
	out      []vecmath.Neighbor
}

// NewSearchScratch returns a reusable scratch for searches against this
// index.
func (ix *Index) NewSearchScratch() *SearchScratch {
	return &SearchScratch{probes: make([]int, 0, ix.nlist)}
}

func (ix *Index) getScratch() *SearchScratch {
	if s, ok := ix.scratch.Get().(*SearchScratch); ok {
		return s
	}
	return ix.NewSearchScratch()
}

func (ix *Index) putScratch(s *SearchScratch) { ix.scratch.Put(s) }

// ProbeInto runs coarse quantization into the scratch's probe list and
// returns it: the nprobe cluster IDs nearest to the query, most similar
// first. The returned slice aliases the scratch. Centroid distances use
// the norm decomposition with the index's precomputed centroid norms
// (the query norm is a shared constant and drops out of the ranking).
func (ix *Index) ProbeInto(s *SearchScratch, query []float32, nprobe int) []int {
	if len(query) != ix.dim {
		panic(fmt.Sprintf("ivf: query dim %d != index dim %d", len(query), ix.dim))
	}
	if nprobe <= 0 {
		return nil
	}
	if nprobe > ix.nlist {
		nprobe = ix.nlist
	}
	s.probeTop.Reset(nprobe)
	if cap(s.cdots) < ix.nlist {
		s.cdots = make([]float32, ix.nlist)
	}
	s.cdots = s.cdots[:ix.nlist]
	vecmath.DotRows(query, ix.centroids, ix.dim, s.cdots)
	for c, dot := range s.cdots {
		s.probeTop.Push(c, ix.centNorms[c]-2*dot)
	}
	s.out = s.probeTop.AppendSorted(s.out[:0])
	s.probes = s.probes[:0]
	for _, nb := range s.out {
		s.probes = append(s.probes, nb.Index)
	}
	return s.probes
}

// Probe runs coarse quantization: it returns the nprobe cluster IDs
// nearest to the query, most similar first.
func (ix *Index) Probe(query []float32, nprobe int) []int {
	s := ix.getScratch()
	defer ix.putScratch(s)
	probes := ix.ProbeInto(s, query, nprobe)
	if probes == nil {
		return nil
	}
	out := make([]int, len(probes))
	copy(out, probes)
	return out
}

// BuildLUT precomputes the query's distance lookup table (stage 2).
func (ix *Index) BuildLUT(query []float32) *pq.LUT {
	return ix.trained().BuildLUT(query)
}

// ScanCluster scans one inverted list with the given LUT, pushing
// candidates into top (stage 3 for a single cluster).
func (ix *Index) ScanCluster(lut *pq.LUT, cluster int, top *vecmath.TopK) {
	ix.ScanClusterMasked(lut, cluster, nil, top)
}

// SearchInto runs the full three-stage pipeline on the scratch and
// returns the top-k neighbors in ascending distance order. The returned
// slice aliases the scratch and is valid until its next use; steady
// state performs zero allocations.
func (ix *Index) SearchInto(s *SearchScratch, query []float32, nprobe, k int) []vecmath.Neighbor {
	probes := ix.ProbeInto(s, query, nprobe)
	return ix.searchProbed(s, query, probes, k)
}

// SearchClustersInto scans only the listed clusters (after an external
// Probe) on the scratch. The returned slice aliases the scratch.
func (ix *Index) SearchClustersInto(s *SearchScratch, query []float32, clusters []int, k int) []vecmath.Neighbor {
	return ix.searchProbed(s, query, clusters, k)
}

// searchProbed scans the clusters in order into a fresh top-k, skipping
// a list once LUT.Prunes proves it cannot change the collector: the
// result is the full scan's, bit for bit.
func (ix *Index) searchProbed(s *SearchScratch, query []float32, clusters []int, k int) []vecmath.Neighbor {
	ix.trained().BuildLUTInto(query, &s.lut)
	s.top.Reset(k)
	for _, c := range clusters {
		l := &ix.lists[c]
		if !s.lut.Prunes(l.mask, &s.top) {
			s.lut.ScanCodesIDsMasked(l.codes, l.ids, nil, &s.top)
		}
	}
	s.out = s.top.AppendSorted(s.out[:0])
	return s.out
}

// Search runs the full three-stage pipeline and returns the top-k
// neighbors in ascending distance order. The result is freshly
// allocated and owned by the caller; the transient buffers come from
// the index's scratch pool, so the steady-state cost is one result
// allocation per call. Allocation-sensitive callers use SearchInto.
func (ix *Index) Search(query []float32, nprobe, k int) []vecmath.Neighbor {
	s := ix.getScratch()
	res := ix.SearchInto(s, query, nprobe, k)
	out := make([]vecmath.Neighbor, len(res))
	copy(out, res)
	ix.putScratch(s)
	return out
}

// SearchBatch searches every query of the row-major batch (ix.Dim()
// columns) and returns one ascending-distance top-k result per query.
// The batch fans out over the internal/parallel worker pool sized by
// the build-time Workers knob; per-worker scratches amortize probe, LUT
// and heap storage across the batch. Results are bit-identical to
// calling Search per query in order, for any worker count: each query
// is an independent computation writing only its own output slot.
func (ix *Index) SearchBatch(queries []float32, nprobe, k int) ([][]vecmath.Neighbor, error) {
	if len(queries)%ix.dim != 0 {
		return nil, fmt.Errorf("ivf: batch length %d not a multiple of dim %d", len(queries), ix.dim)
	}
	nq := len(queries) / ix.dim
	out := make([][]vecmath.Neighbor, nq)
	parallel.For(nq, ix.workers, func(start, end int) {
		s := ix.getScratch()
		for qi := start; qi < end; qi++ {
			res := ix.SearchInto(s, queries[qi*ix.dim:(qi+1)*ix.dim], nprobe, k)
			own := make([]vecmath.Neighbor, len(res))
			copy(own, res)
			out[qi] = own
		}
		ix.putScratch(s)
	})
	return out, nil
}

// HotClusters returns cluster IDs sorted by the supplied access counts,
// hottest first; ties break toward lower IDs for determinism. The sort
// runs over explicit (count, id) pairs — no indirect comparator through
// a shared counts slice — with the tie-break encoded in the comparison.
func HotClusters(accessCounts []int64) []int {
	type pair struct {
		count int64
		id    int32
	}
	pairs := make([]pair, len(accessCounts))
	for i, c := range accessCounts {
		pairs[i] = pair{count: c, id: int32(i)}
	}
	// The comparator is a total order (count desc, id asc), so the
	// unstable generic sort is deterministic — and reflection-free,
	// unlike sort.Slice.
	slices.SortFunc(pairs, func(a, b pair) int {
		if a.count != b.count {
			if a.count > b.count {
				return -1
			}
			return 1
		}
		return int(a.id) - int(b.id)
	})
	out := make([]int, len(pairs))
	for i, p := range pairs {
		out[i] = int(p.id)
	}
	return out
}
