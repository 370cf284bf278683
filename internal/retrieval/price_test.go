package retrieval

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/workload"
)

// floatLive is a streaming-ingest overlay with fractional, signed
// per-cluster deltas, like ingest.Store's.
type floatLive struct {
	w      *dataset.Workload
	deltas []float64
}

func (l floatLive) Delta(c int) float64 { return l.deltas[c] }

func (l floatLive) ScanBytesAll(q dataset.QueryID) int64 {
	var d float64
	for _, c := range l.w.Probes(q) {
		d += l.deltas[c]
	}
	return l.w.ScanBytesAll(q) + int64(d)
}

// pricing is every per-batch output of Hybrid.price.
type pricing struct {
	shardBytes, sqBytes   []int64
	shardBlocks, sqBlocks []int
	nvmeBytes             int64
	nvmeClusters          int
	cpuWork, missByTenant []int64
	hitRate               []float64
	recallSum             float64
	recallN               int
}

// refRoute splits a query's probes into per-shard resident lists and
// the CPU remainder, each in probe order, through the plan's Mapping.
func refRoute(plan *splitter.Plan, probes []int) (perShard [][]int, cpu []int) {
	perShard = make([][]int, plan.NumShards)
	for _, c := range probes {
		if loc, ok := plan.Mapping[c]; ok {
			perShard[loc.Shard] = append(perShard[loc.Shard], c)
			continue
		}
		cpu = append(cpu, c)
	}
	return perShard, cpu
}

// refScanBytes prices one routed list: its frozen bytes plus its live
// deltas summed in list order.
func refScanBytes(s *TenantSlot, q dataset.QueryID, clusters []int) int64 {
	b := s.W.ScanBytes(q, clusters)
	if s.Live == nil {
		return b
	}
	var d float64
	for _, c := range clusters {
		d += s.Live.Delta(c)
	}
	return b + int64(d)
}

// refPrice is the reference batch pricing: route each query into lists,
// then price every list on its own. It reads the engine's configuration
// and leaves the engine and the requests alone.
func refPrice(e *Hybrid, batch []*workload.Request) pricing {
	g := len(e.gpus)
	out := pricing{
		shardBytes: make([]int64, g), sqBytes: make([]int64, g),
		shardBlocks: make([]int, g), sqBlocks: make([]int, g),
		cpuWork: make([]int64, len(batch)), missByTenant: make([]int64, len(e.slots)),
		hitRate: make([]float64, len(batch)), recallSum: e.recallSum, recallN: e.recallN,
	}
	for i, req := range batch {
		s := &e.slots[e.slot(req)]
		prec := s.Plan.Prec
		perShard, cpuClusters := refRoute(s.Plan, degradeProbes(s.W.Probes(req.Query), req.Degrade))
		var gain float64
		for g, resident := range perShard {
			if e.unpruned {
				out.shardBlocks[g] += s.W.Spec.NProbe
			}
			if len(resident) == 0 {
				continue
			}
			if e.refreshing[g] {
				cpuClusters = append(cpuClusters, resident...)
				continue
			}
			if prec == nil {
				out.shardBytes[g] += refScanBytes(s, req.Query, resident)
				out.shardBlocks[g] += len(resident) * s.blockScale
				continue
			}
			for j, c := range resident {
				bb := refScanBytes(s, req.Query, resident[j:j+1])
				if prec.IsSQ(c) && !req.ForcePQ {
					out.sqBytes[g] += int64(float64(bb) * prec.SQRatio)
					out.sqBlocks[g] += s.blockScale
					gain += float64(bb) * prec.Delta(c)
				} else {
					out.shardBytes[g] += bb
					out.shardBlocks[g] += s.blockScale
				}
			}
		}
		if prec != nil {
			for j, c := range cpuClusters {
				if prec.IsNVMe(c) {
					out.nvmeBytes += refScanBytes(s, req.Query, cpuClusters[j:j+1])
					out.nvmeClusters++
				}
			}
		}
		out.cpuWork[i] = refScanBytes(s, req.Query, cpuClusters)
		out.missByTenant[e.slot(req)] += out.cpuWork[i]
		full := s.scanBytesFull(req.Query)
		out.hitRate[i] = servedHitRate(full, out.cpuWork[i])
		if prec != nil {
			if full > 0 {
				out.recallSum += gain / float64(full)
			}
			out.recallN++
		}
	}
	return out
}

// onePass runs the engine's pricing on the batch and collects its
// outputs.
func onePass(e *Hybrid, batch []*workload.Request) pricing {
	anyPrec := false
	for i := range e.slots {
		anyPrec = anyPrec || e.slots[i].Plan.Prec != nil
	}
	var out pricing
	out.nvmeBytes, out.nvmeClusters = e.price(batch, anyPrec)
	out.shardBytes = append([]int64(nil), e.shardBytes...)
	out.shardBlocks = append([]int(nil), e.shardBlocks...)
	out.sqBytes = make([]int64, len(e.gpus))
	out.sqBlocks = make([]int, len(e.gpus))
	if anyPrec {
		copy(out.sqBytes, e.sqBytes)
		copy(out.sqBlocks, e.sqBlocks)
	}
	out.cpuWork = append([]int64(nil), e.cpuWork[:len(batch)]...)
	out.missByTenant = append([]int64(nil), e.missByTenant...)
	for _, req := range batch {
		out.hitRate = append(out.hitRate, req.HitRate)
	}
	out.recallSum, out.recallN = e.recallSum, e.recallN
	return out
}

func samePricing(a, b pricing) bool {
	bitsEqual := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return slices.Equal(a.shardBytes, b.shardBytes) && slices.Equal(a.sqBytes, b.sqBytes) &&
		slices.Equal(a.shardBlocks, b.shardBlocks) && slices.Equal(a.sqBlocks, b.sqBlocks) &&
		a.nvmeBytes == b.nvmeBytes && a.nvmeClusters == b.nvmeClusters &&
		slices.Equal(a.cpuWork, b.cpuWork) && slices.Equal(a.missByTenant, b.missByTenant) &&
		slices.EqualFunc(a.hitRate, b.hitRate, bitsEqual) &&
		bitsEqual(a.recallSum, b.recallSum) && a.recallN == b.recallN
}

// randPrecision marks a random half of the plan's hot clusters SQ8, with
// random recall deltas, and demotes a random half of the cold ones to
// NVMe.
func randPrecision(r *rand.Rand, f *fixture, plan *splitter.Plan) *splitter.Precision {
	nlist := len(f.prof.Counts)
	prec := &splitter.Precision{
		SQ: make([]bool, nlist), NVMe: make([]bool, nlist), Deltas: make([]float64, nlist),
		SQRatio: 1 + 7*r.Float64(),
	}
	for c := 0; c < nlist; c++ {
		switch {
		case plan.IsHot(c) && r.Intn(2) == 0:
			prec.SQ[c] = true
			prec.Deltas[c] = r.Float64() * 0.1
		case !plan.IsHot(c) && r.Intn(2) == 0:
			prec.NVMe[c] = true
		}
	}
	plan.AttachPrecision(prec)
	return prec
}

// TestOnePassPricingMatchesRoutedLists is the bit-identity proof of
// one-pass query pricing: over random plans, coverages and batches, the
// engine's per-batch outputs equal routing each query into per-shard
// lists and pricing every list separately, for plain plans, precision
// refinements (SQ8, NVMe, ForcePQ), refreshing shards, live overlays
// with fractional deltas, Degrade, unpruned engines and a 3-tenant
// lineup.
func TestOnePassPricingMatchesRoutedLists(t *testing.T) {
	f := setup(t)
	nlist := len(f.prof.Counts)
	for trial := 0; trial < 300; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		shards := 1 + r.Intn(f.node.NumGPUs)
		plan := func() *splitter.Plan {
			p := f.plan(t, r.Float64(), shards)
			if r.Intn(3) == 0 {
				randPrecision(r, f, p)
			}
			return p
		}
		var live LiveCost
		if r.Intn(3) == 0 {
			// Magnitudes from 1 to 1e15 B: a sum of them loses low-order
			// bits differently in any other order, and that shows in the
			// truncated byte counts.
			deltas := make([]float64, nlist)
			for c := range deltas {
				deltas[c] = (r.Float64() - 0.3) * math.Pow(10, float64(r.Intn(16)))
			}
			live = floatLive{f.w, deltas}
		}
		cfg := f.cfg
		cfg.Live = live
		gpus := gpu.NewStates(f.node)[:shards]
		var e *Hybrid
		tenants := 1
		switch r.Intn(4) {
		case 0:
			e = NewSharded(cfg, "ALL-GPU", plan(), gpus, f.gm)
		case 1:
			tenants = 3
			slots := make([]TenantSlot, tenants)
			for i := range slots {
				slots[i] = TenantSlot{W: f.w, Plan: plan(), CPUModel: f.cfg.CPUModel, Priority: i}
			}
			slots[1].Live = live
			var err error
			if e, err = NewMultiTenant(cfg, slots, gpus, f.gm); err != nil {
				t.Fatal(err)
			}
		default:
			e = NewHybrid(cfg, plan(), gpus, f.gm)
		}
		for g := 0; g < shards; g++ {
			e.SetShardRefreshing(g, r.Intn(4) == 0)
		}
		for batchNo := 0; batchNo < 3; batchNo++ {
			batch := make([]*workload.Request, 1+r.Intn(48))
			for i := range batch {
				batch[i] = &workload.Request{
					ID:      i,
					Query:   dataset.QueryID(r.Intn(f.w.Templates())),
					Tenant:  r.Intn(tenants + 1),
					Degrade: []float64{0, 0, 0.25, 0.5, 0.95}[r.Intn(5)],
					ForcePQ: r.Intn(3) == 0,
				}
			}
			want := refPrice(e, batch)
			if got := onePass(e, batch); !samePricing(got, want) {
				t.Fatalf("trial %d batch %d (%s, %d shards): one-pass pricing\n%+v\nrouted lists\n%+v",
					trial, batchNo, e.Name(), shards, got, want)
			}
		}
	}
}
