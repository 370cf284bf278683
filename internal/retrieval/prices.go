package retrieval

import (
	"math"
	"slices"
	"sync"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/splitter"
)

// kernelWork is the GPU and NVMe work priced queries add up to: per-GPU
// PQ kernel bytes and thread blocks, per-GPU SQ8 streaming-kernel bytes
// and blocks (allocated only when some plan carries a precision
// refinement), and the NVMe-tier bytes and cluster count of the CPU
// remainder. Every field is an integer, so the order queries add their
// work in cannot change a sum.
type kernelWork struct {
	bytes, sqBytes   []int64
	blocks, sqBlocks []int
	nvmeBytes        int64
	nvmeClusters     int
}

// reset zeroes the work for gpus GPUs, reusing the backing arrays.
func (k *kernelWork) reset(gpus int, prec bool) {
	k.bytes = resize(&k.bytes, gpus)
	k.blocks = resize(&k.blocks, gpus)
	if prec {
		k.sqBytes = resize(&k.sqBytes, gpus)
		k.sqBlocks = resize(&k.sqBlocks, gpus)
	}
	k.nvmeBytes, k.nvmeClusters = 0, 0
}

// tierSum is one query's clusters routed to one tier, the CPU or a GPU
// shard, summed in probe order.
type tierSum struct {
	bytes, delta float64 // ClusterBytes and live deltas
	n            int     // clusters
}

// walk is the per-query pricer: it routes one query's probe list
// through its tenant's mapping tables (paper §IV-B1), adds the query's
// GPU kernel and NVMe work to k, and returns its CPU miss work and its
// served recall gain (zero without a precision refinement). refreshing
// and tiers have one entry per GPU (tiers one more, for the CPU) and
// tiers is all zero on entry and on return.
//
// One pass over the probe list sums each tier's bytes, live deltas and
// cluster count, indexed by the plan's dense shard table, so it takes
// no branch on where a cluster lives. A precision-refined plan splits
// resident clusters by codec — PQ clusters feed the LUT kernel, SQ8
// clusters the streaming kernel (pq.ScanSQIDs' modeled counterpart) —
// cluster by cluster, and tallies the NVMe-resident share of the CPU
// remainder. A mid-reload shard's clusters divert to the CPU path; a
// ForcePQ query (the brownout precision fallback) scans SQ8-upgraded
// clusters through the base PQ codec — cheaper bytes, no recall gain.
//
// Every float sum runs in the order of pricing each routed list on its
// own: a tier's bytes and deltas in probe order; the clusters diverted
// from mid-reload shards after the CPU-resident ones, shard by shard;
// the recall gain shard by shard, then in probe order. The last two
// take a second walk over the probes, and only when they are nonzero.
func walk(s *TenantSlot, probes []int, forcePQ bool, refreshing []bool, tiers []tierSum, k *kernelWork) (cpu int64, gain float64) {
	w, plan, prec := s.W, s.Plan, s.Plan.Prec
	for _, c := range probes {
		tier := &tiers[plan.ShardOf(c)+1]
		tier.bytes += float64(w.ClusterBytes(c))
		tier.delta += s.delta(c)
		tier.n++
	}
	cpuBytes, cpuDelta := tiers[0].bytes, tiers[0].delta
	tiers[0] = tierSum{}
	diverted := false
	for g, refresh := range refreshing {
		tier := &tiers[g+1]
		switch {
		case tier.n == 0:
		case refresh:
			diverted = true
		case prec == nil:
			k.bytes[g] += s.cost(tier.bytes, tier.delta)
			k.blocks[g] += tier.n * s.blockScale
		}
		*tier = tierSum{}
	}
	sq := false
	if prec != nil {
		for _, c := range probes {
			g := plan.ShardOf(c)
			bb := s.cost(float64(w.ClusterBytes(c)), s.delta(c))
			switch {
			case g < 0:
				if prec.IsNVMe(c) {
					k.nvmeBytes += bb
					k.nvmeClusters++
				}
			case refreshing[g]:
				// Diverted: the shard-order walk below prices it.
			case prec.IsSQ(c) && !forcePQ:
				k.sqBytes[g] += int64(float64(bb) * prec.SQRatio)
				k.sqBlocks[g] += s.blockScale
				sq = true
			default:
				k.bytes[g] += bb
				k.blocks[g] += s.blockScale
			}
		}
	}
	if diverted || sq {
		for g, refresh := range refreshing {
			for _, c := range probes {
				if plan.ShardOf(c) != g {
					continue
				}
				b, d := float64(w.ClusterBytes(c)), s.delta(c)
				switch {
				case refresh:
					cpuBytes += b
					cpuDelta += d
					if prec.IsNVMe(c) {
						k.nvmeBytes += s.cost(b, d)
						k.nvmeClusters++
					}
				case prec.IsSQ(c) && !forcePQ:
					gain += float64(s.cost(b, d)) * prec.Delta(c)
				}
			}
		}
	}
	return s.cost(cpuBytes, cpuDelta), gain
}

// PriceTable holds every query template's priced route through one
// plan on a frozen corpus, computed once by walk: the paper's runtime
// routes a query through precomputed cluster→GPU mapping tables
// (§IV-B1), and a template's route through an unchanging plan is itself
// a constant. The engines serving the plan add a template's row instead
// of walking its probe list; every replica of a run reads one table,
// read-only. Only dynamic state is priced by walking: a live overlay, a
// shard mid-reload, a Degrade-shed probe list and a ForcePQ request.
//
// A row is a run of entries, each a tier and the work the template
// sends it; blocks are stored as cluster counts, which an engine scales
// by its own blocks per cluster, so one table serves pruned and
// unpruned engines alike.
type PriceTable struct {
	w       *dataset.Workload
	plan    *splitter.Plan
	end     []int32 // template q's entries are entries[end[q]:end[q+1]]
	entries []priceEntry
	hit     []float64 // per template: the served hit rate
	share   []float64 // per template: the recall-gain share; precision plans only
}

// priceEntry is one tier of a row: the CPU miss work, a GPU's PQ or SQ8
// kernel (n clusters), or the NVMe tier (n clusters), and the bytes the
// template sends it.
type priceEntry struct {
	bytes uint32
	n     uint16
	shard uint8
	kind  tierKind
}

type tierKind uint8

const (
	tierCPU tierKind = iota
	tierPQ
	tierSQ
	tierNVMe
)

// NewPriceTable prices every template of w through plan. A plan of more
// than 256 shards, or a corpus whose malformed Spec prices negative
// work, gets no table (nil), and its engines walk every query.
func NewPriceTable(w *dataset.Workload, plan *splitter.Plan) *PriceTable {
	shards, prec := plan.NumShards, plan.Prec != nil
	if shards > math.MaxUint8+1 {
		return nil
	}
	t := &PriceTable{w: w, plan: plan, end: make([]int32, 1, w.Templates()+1), hit: make([]float64, 0, w.Templates())}
	if prec {
		t.share = make([]float64, 0, w.Templates())
	}
	// The rows collect in a buffer reused across builds, so the table is
	// allocated once, at its exact size.
	buf := rowBuffers.Get().(*[]priceEntry)
	defer rowBuffers.Put(buf)
	rows := (*buf)[:0]
	negative := false
	// put appends a tier's entries; work beyond one entry's fields spreads
	// over several, and a tier without work takes none.
	put := func(kind tierKind, g int, b int64, n int) {
		negative = negative || b < 0
		for b > 0 || n > 0 {
			e := priceEntry{bytes: uint32(min(b, math.MaxUint32)), n: uint16(min(n, math.MaxUint16)), shard: uint8(g), kind: kind}
			rows = append(rows, e)
			b, n = b-int64(e.bytes), n-int(e.n)
		}
	}
	s := TenantSlot{W: w, Plan: plan, blockScale: 1}
	tiers := make([]tierSum, shards+1)
	refreshing := make([]bool, shards)
	var k kernelWork
	for q := range w.Templates() {
		k.reset(shards, prec)
		cpu, gain := walk(&s, w.Probes(dataset.QueryID(q)), false, refreshing, tiers, &k)
		put(tierCPU, 0, cpu, 0)
		for g := range shards {
			put(tierPQ, g, k.bytes[g], k.blocks[g])
			if prec {
				put(tierSQ, g, k.sqBytes[g], k.sqBlocks[g])
			}
		}
		put(tierNVMe, 0, k.nvmeBytes, k.nvmeClusters)
		if negative {
			return nil
		}
		full := w.ScanBytesAll(dataset.QueryID(q))
		t.end = append(t.end, int32(len(rows)))
		t.hit = append(t.hit, servedHitRate(full, cpu))
		if prec {
			t.share = append(t.share, recallShare(gain, full))
		}
	}
	*buf = rows
	t.entries = slices.Clone(rows)
	return t
}

// rowBuffers holds NewPriceTable's row buffers.
var rowBuffers = sync.Pool{New: func() any { return new([]priceEntry) }}

// serves reports whether t is the table of plan over w.
func (t *PriceTable) serves(w *dataset.Workload, plan *splitter.Plan) bool {
	return t != nil && t.w == w && t.plan == plan
}

// add adds template q's row to k, scaling cluster counts by blockScale
// thread blocks each, and returns the template's CPU miss work, served
// hit rate and recall-gain share: exactly what walking it gives.
func (t *PriceTable) add(q dataset.QueryID, blockScale int, k *kernelWork) (cpu int64, hit, share float64) {
	for _, e := range t.entries[t.end[q]:t.end[q+1]] {
		b := int64(e.bytes)
		switch e.kind {
		case tierCPU:
			cpu += b
		case tierPQ:
			k.bytes[e.shard] += b
			k.blocks[e.shard] += int(e.n) * blockScale
		case tierSQ:
			k.sqBytes[e.shard] += b
			k.sqBlocks[e.shard] += int(e.n) * blockScale
		case tierNVMe:
			k.nvmeBytes += b
			k.nvmeClusters += int(e.n)
		}
	}
	if t.share != nil {
		share = t.share[q]
	}
	return cpu, t.hit[q], share
}
