// Package ingest implements the streaming-ingest subsystem: a live
// overlay over the frozen two-scale workload that lets the corpus
// mutate while serving, as ordinary events on the DES timeline.
//
// The shared dataset.Workload and ivf.Index stay immutable — every
// experiment caches and reuses them — so all live state lives here, in
// a Store of per-cluster deltas:
//
//   - inserts are routed to their nearest centroid and land in that
//     cluster's raw-float *append buffer*, brute-force scanned (via
//     vecmath.BruteForcer) and merged into the same TopK as the PQ
//     scan, until a background re-encode folds them into store-owned
//     PQ codes;
//   - deletes set bits in per-cluster *tombstone bitmaps* honored by
//     the masked PQ scans and by the append-buffer scan; tombstoned
//     vectors keep costing scan bytes until a compaction purges them —
//     the EdgeRAG observation that deferred maintenance taxes every
//     query;
//   - the Store doubles as the live cost model: per-cluster logical
//     scan-byte deltas (raw pending vectors cost Dim×4 bytes per
//     logical vector, ~16× their PQ codes on ORCAS-2K) feed the
//     retrieval engines through retrieval.LiveCost, so freshly
//     inserted, not-yet-encoded vectors make probing their cluster
//     measurably more expensive.
//
// Drift trackers (insert residual norms against the routed centroid,
// live cluster-size skew) summarize how far the live corpus has walked
// from the built partition; adapt.Controller reads them to pick
// between a cheap compaction and the full Algorithm-1 re-partition.
package ingest

import (
	"math"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/ivf"
	"vectorliterag/internal/pq"
	"vectorliterag/internal/vecmath"
	"vectorliterag/internal/workload"
)

// where a live vector lives.
const (
	locBase = iota // built inverted list (masked by deadBase)
	locApp         // store-owned encoded appends (masked by deadApp)
	locPend        // raw-float append buffer (masked by deadPend)
)

// loc addresses one vector: its cluster and position within that
// cluster's base list, encoded-append list, or pending buffer.
type loc struct {
	cluster int32
	pos     int32
	where   uint8
	dead    bool
}

// clusterState is one cluster's live overlay.
type clusterState struct {
	// Tombstones over the immutable base inverted list, by position.
	deadBase      []uint64
	deadBaseCount int
	// purgedBase counts base tombstones already cost-purged by a
	// compaction: still masked in scans, no longer billed.
	purgedBase int

	// Store-owned encoded appends (IDs + PQ codes) from past re-encodes,
	// and the codewords those codes use (pq.MarkCodes).
	appIDs       []int32
	appCodes     []byte
	appMask      []uint64
	deadApp      []uint64
	deadAppCount int

	// Raw-float append buffer: pending inserts awaiting re-encode.
	// pendNorms[i] is row i's squared norm, derived once at Insert, so
	// the brute-force scan never re-derives the buffer's norms.
	pendIDs       []int32
	pendVecs      []float32
	pendNorms     []float32
	deadPend      []uint64
	deadPendCount int
}

// Store is the live-corpus overlay. It is single-goroutine, like the
// simulator whose events drive it.
type Store struct {
	w   *dataset.Workload
	ix  *ivf.Index
	dim int
	cs  int // PQ code size

	cl      []clusterState
	baseLoc []loc // vector ID → location, IDs < NVectors
	insLoc  []loc // inserted-vector ID - NVectors → location

	// Cost-model scaling: one physical vector stands for logicalPerVec
	// paper-scale vectors; deltas are pre-multiplied by kappa so they
	// add directly onto Workload.ScanBytes results.
	logicalPerVec float64
	encPerVec     float64   // kappa-scaled logical bytes, encoded form
	rawPerVec     float64   // kappa-scaled logical bytes, raw pending form
	basePerVec    []float64 // per-cluster kappa-scaled bytes of one base vector
	delta         []float64 // per-cluster live scan-byte delta

	// Drift trackers.
	baseResidual float64 // corpus mean centroid residual (L2)
	baseSkew     float64 // max/mean cluster size of the built partition
	resSum       float64 // sum of insert residuals
	resN         int

	inserts, deletes int
	pendingTotal     int // live pending vectors across clusters
	encScratch       []byte

	// Search's reusable buffers: probe scratch, LUT, top-k heap and the
	// result it returns.
	scratch *ivf.SearchScratch
	lut     pq.LUT
	top     vecmath.TopK
	res     []vecmath.Neighbor
}

// NewStore builds the live overlay for a workload. The workload and
// its index are read, never written.
func NewStore(w *dataset.Workload) *Store {
	ix := w.Index
	nlist := ix.NList()
	n := ix.NVectors()
	s := &Store{
		w: w, ix: ix, dim: ix.Dim(), cs: ix.CodeSize(),
		cl:         make([]clusterState, nlist),
		baseLoc:    make([]loc, n),
		basePerVec: make([]float64, nlist),
		delta:      make([]float64, nlist),
		encScratch: make([]byte, ix.CodeSize()),
		scratch:    ix.NewSearchScratch(),
	}
	spec := w.Spec
	s.logicalPerVec = float64(spec.NVectors) / float64(n)
	kappa := w.Kappa()
	s.encPerVec = s.logicalPerVec * float64(spec.CodeBytes) * kappa
	s.rawPerVec = s.logicalPerVec * float64(spec.Dim) * 4 * kappa
	var resSum float64
	for c := 0; c < nlist; c++ {
		ids := ix.ClusterIDs(c)
		if len(ids) > 0 {
			s.basePerVec[c] = float64(w.ClusterBytes(c)) / float64(len(ids)) * kappa
		}
		for pos, id := range ids {
			s.baseLoc[id] = loc{cluster: int32(c), pos: int32(pos), where: locBase}
			row := w.Data[int(id)*s.dim : (int(id)+1)*s.dim]
			resSum += math.Sqrt(float64(ix.CentroidResidual2(row, c)))
		}
	}
	if n > 0 {
		s.baseResidual = resSum / float64(n)
		maxSz := 0
		for c := 0; c < nlist; c++ {
			if sz := ix.ClusterSize(c); sz > maxSz {
				maxSz = sz
			}
		}
		s.baseSkew = float64(maxSz) / (float64(n) / float64(nlist))
	}
	return s
}

// cover grows a tombstone bitmap to one bit per entry of an n-entry
// list. The masked scan kernels index ceil(n/64) words of any bitmap
// that is not empty, so a bitmap is either empty or covers its list.
func cover(bits []uint64, n int) []uint64 {
	for len(bits) < (n+63)>>6 {
		bits = append(bits, 0)
	}
	return bits
}

// setBit sets bit i of the tombstone bitmap of an n-entry list.
func setBit(bits []uint64, i, n int) []uint64 {
	bits = cover(bits, n)
	bits[uint(i)>>6] |= 1 << (uint(i) & 63)
	return bits
}

// Insert routes the vector to its nearest centroid and appends it to
// that cluster's raw pending buffer, assigning the next vector ID. It
// fills the mutation's Cluster and ID fields and returns the cluster.
func (s *Store) Insert(m *workload.Mutation) int {
	c := s.ix.NearestCentroid(m.Vec)
	id := int32(s.ix.NVectors() + len(s.insLoc))
	cl := &s.cl[c]
	s.insLoc = append(s.insLoc, loc{cluster: int32(c), pos: int32(len(cl.pendIDs)), where: locPend})
	cl.pendIDs = append(cl.pendIDs, id)
	cl.pendVecs = append(cl.pendVecs, m.Vec...)
	cl.pendNorms = append(cl.pendNorms, vecmath.Norm2(m.Vec))
	if len(cl.deadPend) > 0 {
		cl.deadPend = cover(cl.deadPend, len(cl.pendIDs))
	}
	s.delta[c] += s.rawPerVec
	s.resSum += math.Sqrt(float64(s.ix.CentroidResidual2(m.Vec, c)))
	s.resN++
	s.inserts++
	s.pendingTotal++
	m.Cluster, m.ID = c, id
	return c
}

// Delete resolves the mutation's Pick against the live ID population
// (base corpus plus applied inserts, linear-probing past dead IDs) and
// tombstones the victim. It fills the mutation's Cluster and ID fields
// and returns false when no live vector exists.
func (s *Store) Delete(m *workload.Mutation) bool {
	space := s.ix.NVectors() + len(s.insLoc)
	if space == 0 {
		return false
	}
	start := int(m.Pick % uint64(space))
	for off := 0; off < space; off++ {
		id := start + off
		if id >= space {
			id -= space
		}
		l := s.locOf(id)
		if l.dead {
			continue
		}
		s.kill(l)
		m.Cluster, m.ID = int(l.cluster), int32(id)
		s.deletes++
		return true
	}
	return false
}

func (s *Store) locOf(id int) *loc {
	if id < len(s.baseLoc) {
		return &s.baseLoc[id]
	}
	return &s.insLoc[id-len(s.baseLoc)]
}

// kill sets the tombstone bit for the vector at l and marks it dead.
func (s *Store) kill(l *loc) {
	cl := &s.cl[l.cluster]
	switch l.where {
	case locBase:
		cl.deadBase = setBit(cl.deadBase, int(l.pos), s.ix.ClusterSize(int(l.cluster)))
		cl.deadBaseCount++
	case locApp:
		cl.deadApp = setBit(cl.deadApp, int(l.pos), len(cl.appIDs))
		cl.deadAppCount++
	default:
		cl.deadPend = setBit(cl.deadPend, int(l.pos), len(cl.pendIDs))
		cl.deadPendCount++
		s.pendingTotal--
	}
	l.dead = true
}

// Reencode folds every cluster's live pending vectors into store-owned
// PQ codes (the background re-encode event): each surviving raw vector
// is encoded with the index's quantizer and moved to the encoded
// append list; tombstoned pending vectors are dropped outright. After
// a re-encode the cluster's scan cost charges encoded bytes instead of
// raw floats. It returns how many vectors were encoded.
func (s *Store) Reencode() int {
	quant := s.ix.Quantizer()
	encoded := 0
	for c := range s.cl {
		cl := &s.cl[c]
		if len(cl.pendIDs) == 0 {
			continue
		}
		for pos, id := range cl.pendIDs {
			if isSet(cl.deadPend, pos) {
				s.delta[c] -= s.rawPerVec
				continue
			}
			code := quant.Encode(cl.pendVecs[pos*s.dim:(pos+1)*s.dim], s.encScratch)
			l := &s.insLoc[int(id)-len(s.baseLoc)]
			l.where, l.pos = locApp, int32(len(cl.appIDs))
			cl.appIDs = append(cl.appIDs, id)
			cl.appCodes = append(cl.appCodes, code...)
			if cl.appMask == nil {
				cl.appMask = make([]uint64, pq.MaskLen(s.cs))
			}
			pq.MarkCodes(cl.appMask, code, s.cs)
			s.delta[c] += s.encPerVec - s.rawPerVec
			encoded++
		}
		if len(cl.deadApp) > 0 {
			cl.deadApp = cover(cl.deadApp, len(cl.appIDs))
		}
		cl.pendIDs = cl.pendIDs[:0]
		cl.pendVecs = cl.pendVecs[:0]
		cl.pendNorms = cl.pendNorms[:0]
		cl.deadPend = cl.deadPend[:0]
		cl.deadPendCount = 0
	}
	// pendingTotal tracks live *raw* vectors; every buffer just drained.
	s.pendingTotal = 0
	return encoded
}

// Compact is Reencode plus tombstone purge: encoded append lists are
// rewritten without their dead entries (their codeword masks remarked
// from the survivors), and base-list tombstones stop being billed (the
// modeled list rewrite; scans still mask them). It returns (encoded,
// purged) counts.
func (s *Store) Compact() (int, int) {
	encoded := s.Reencode()
	purged := 0
	for c := range s.cl {
		cl := &s.cl[c]
		if cl.deadAppCount > 0 {
			keepIDs := cl.appIDs[:0]
			keepCodes := cl.appCodes[:0]
			for pos, id := range cl.appIDs {
				if isSet(cl.deadApp, pos) {
					s.delta[c] -= s.encPerVec
					purged++
					continue
				}
				l := &s.insLoc[int(id)-len(s.baseLoc)]
				l.pos = int32(len(keepIDs))
				keepIDs = append(keepIDs, id)
				keepCodes = append(keepCodes, cl.appCodes[pos*s.cs:(pos+1)*s.cs]...)
			}
			cl.appIDs = keepIDs
			cl.appCodes = keepCodes
			clear(cl.appMask)
			pq.MarkCodes(cl.appMask, keepCodes, s.cs)
			cl.deadApp = cl.deadApp[:0]
			cl.deadAppCount = 0
		}
		if un := cl.deadBaseCount - cl.purgedBase; un > 0 {
			s.delta[c] -= float64(un) * s.basePerVec[c]
			cl.purgedBase = cl.deadBaseCount
			purged += un
		}
	}
	return encoded, purged
}

func isSet(bits []uint64, i int) bool {
	w := uint(i) >> 6
	return int(w) < len(bits) && bits[w]&(1<<(uint(i)&63)) != 0
}

// Delta implements retrieval.LiveCost: cluster c's live scan-byte
// delta over its frozen cost (raw pending bytes, encoded appends,
// not-yet-purged tombstones).
func (s *Store) Delta(c int) float64 { return s.delta[c] }

// ScanBytesAll implements retrieval.LiveCost for the full probe set.
func (s *Store) ScanBytesAll(q dataset.QueryID) int64 {
	var d float64
	for _, c := range s.w.Probes(q) {
		d += s.delta[c]
	}
	return s.w.ScanBytesAll(q) + int64(d)
}

// Search runs the full live three-stage pipeline: probe, then per
// cluster a tombstone-masked PQ scan of the base list, a masked scan
// of the encoded appends, and a BruteForcer scan of the raw pending
// buffer — all merged into one TopK (brute distances are true squared
// L2, commensurate with the LUT's approximate squared distances). A
// code list that LUT.Prunes proves cannot change the heap is skipped;
// tombstones only remove codes, so a list's mask stays a superset. The
// raw buffers are always scanned: no LUT bounds their true distances. It
// is the correctness surface for the overlay (tests, examples); the
// serving engines consume the Store through its cost-model methods.
// Probe list, LUT, heap and result are the store's own and reused, so a
// warm store allocates nothing: the returned slice is valid until the
// next Search, and a caller that keeps it longer clones it.
func (s *Store) Search(q []float32, nprobe, k int) []vecmath.Neighbor {
	probes := s.ix.ProbeInto(s.scratch, q, nprobe)
	lut, top := &s.lut, &s.top
	s.ix.Quantizer().BuildLUTInto(q, lut)
	top.Reset(k)
	for _, c := range probes {
		cl := &s.cl[c]
		if !lut.Prunes(s.ix.ClusterMask(c), top) {
			s.ix.ScanClusterMasked(lut, c, cl.deadBase, top)
		}
		if len(cl.appIDs) > 0 && !lut.Prunes(cl.appMask, top) {
			lut.ScanCodesIDsMasked(cl.appCodes, cl.appIDs, cl.deadApp, top)
		}
		if len(cl.pendIDs) > 0 {
			bf := vecmath.NewBruteForcerNorms(cl.pendVecs, cl.pendNorms, s.dim)
			bf.ScanMaskedInto(top, q, cl.pendIDs, cl.deadPend)
		}
	}
	s.res = top.AppendSorted(s.res[:0])
	return s.res
}

// Alive reports whether the vector ID is live (exists and is not
// tombstoned).
func (s *Store) Alive(id int) bool {
	if id < 0 || id >= s.ix.NVectors()+len(s.insLoc) {
		return false
	}
	return !s.locOf(id).dead
}

// PendingRaw returns how many live raw vectors await re-encode.
func (s *Store) PendingRaw() int { return s.pendingTotal }

// PendingLogical returns the pending buffer size at paper scale — the
// quantity the re-encode cost model prices.
func (s *Store) PendingLogical() int64 {
	return int64(float64(s.pendingTotal) * s.logicalPerVec)
}

// PurgeableLogical returns the paper-scale count of tombstoned vectors
// a compaction would stop billing.
func (s *Store) PurgeableLogical() int64 {
	n := 0
	for c := range s.cl {
		cl := &s.cl[c]
		n += (cl.deadBaseCount - cl.purgedBase) + cl.deadAppCount + cl.deadPendCount
	}
	return int64(float64(n) * s.logicalPerVec)
}

// SizeSkew returns the live partition's max/mean cluster size relative
// to the built partition's — 1.0 at build time, growing as mutations
// concentrate. It is the re-partition escalation signal: a partition
// whose imbalance has outgrown what it was built with needs Algorithm
// 1, not just compaction. (The built partition is itself size-skewed by
// design, so the absolute ratio would read "escalate" on a pristine
// index.)
func (s *Store) SizeSkew() float64 {
	maxSz, total := 0, 0
	for c := range s.cl {
		cl := &s.cl[c]
		sz := s.ix.ClusterSize(c) - cl.deadBaseCount +
			len(cl.appIDs) - cl.deadAppCount +
			len(cl.pendIDs) - cl.deadPendCount
		total += sz
		if sz > maxSz {
			maxSz = sz
		}
	}
	if total == 0 || s.baseSkew == 0 {
		return 0
	}
	mean := float64(total) / float64(len(s.cl))
	return float64(maxSz) / mean / s.baseSkew
}

// ResidualRatio returns the mean centroid residual of live inserts
// over the built corpus's mean residual — >1 means new vectors land
// farther from their centroids than the partition was trained for.
func (s *Store) ResidualRatio() float64 {
	if s.resN == 0 || s.baseResidual == 0 {
		return 1
	}
	return s.resSum / float64(s.resN) / s.baseResidual
}
