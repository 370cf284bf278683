package retrieval

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/profiler"
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
	e.price(batch, anyPrec)
	k := &e.work
	out.nvmeBytes, out.nvmeClusters = k.nvmeBytes, k.nvmeClusters
	out.shardBytes = append([]int64(nil), k.bytes...)
	out.shardBlocks = append([]int(nil), k.blocks...)
	out.sqBytes = make([]int64, len(e.gpus))
	out.sqBlocks = make([]int, len(e.gpus))
	if anyPrec {
		copy(out.sqBytes, k.sqBytes)
		copy(out.sqBlocks, k.sqBlocks)
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

// tableBytes is the footprint of t's arrays.
func tableBytes(t *PriceTable) int {
	return int(unsafe.Sizeof(int32(0)))*len(t.end) + int(unsafe.Sizeof(priceEntry{}))*len(t.entries) +
		int(unsafe.Sizeof(0.0))*(len(t.hit)+len(t.share))
}

// sameWork reports whether two kernel work areas hold equal sums.
func sameWork(a, b *kernelWork) bool {
	return slices.Equal(a.bytes, b.bytes) && slices.Equal(a.blocks, b.blocks) &&
		slices.Equal(a.sqBytes, b.sqBytes) && slices.Equal(a.sqBlocks, b.sqBlocks) &&
		a.nvmeBytes == b.nvmeBytes && a.nvmeClusters == b.nvmeClusters
}

// randPlan is a random-coverage plan over shards GPUs, precision-refined
// one time in three.
func randPlan(t *testing.T, r *rand.Rand, f *fixture, shards int) *splitter.Plan {
	p := f.plan(t, r.Float64(), shards)
	if r.Intn(3) == 0 {
		randPrecision(r, f, p)
	}
	return p
}

// TestPriceTableRowsMatchWalk: over random plans — plain and SQ8/NVMe
// precision-refined, at every shard count — every template's stored
// row adds exactly the work walking its probe list adds, bit for bit,
// at a pruned engine's blocks per cluster and at an unpruned one's.
// Every fourth plan is over a corpus a thousand times ORCAS 1K's size,
// whose tiers carry more bytes than one entry holds, so rows that
// spread a tier over several entries are covered too.
func TestPriceTableRowsMatchWalk(t *testing.T) {
	f := setup(t)
	spec := dataset.Orcas1K
	spec.NVectors *= 1000
	big, err := dataset.Build(spec, f.w.Gen)
	if err != nil {
		t.Fatal(err)
	}
	bigProf, err := profiler.CollectAccess(big, 3000, 41)
	if err != nil {
		t.Fatal(err)
	}
	spread := 0
	defer func() {
		if spread == 0 {
			t.Error("no row spread a tier over several entries")
		}
	}()
	for trial := 0; trial < 80; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		w, prof := f.w, f.prof
		if trial%4 == 3 {
			w, prof = big, bigProf
		}
		shards := 1 + r.Intn(f.node.NumGPUs)
		plan, err := splitter.Build(prof, r.Float64(), shards)
		if err != nil {
			t.Fatal(err)
		}
		if r.Intn(3) == 0 {
			randPrecision(r, f, plan)
		}
		tab := NewPriceTable(w, plan)
		if tab == nil {
			t.Fatalf("trial %d: no table for a %d-shard plan", trial, shards)
		}
		for q := range w.Templates() {
			row := tab.entries[tab.end[q]:tab.end[q+1]]
			for j := 1; j < len(row); j++ {
				if row[j].kind == row[j-1].kind && row[j].shard == row[j-1].shard {
					spread++
				}
			}
		}
		prec := plan.Prec != nil
		tiers := make([]tierSum, shards+1)
		refreshing := make([]bool, shards)
		for _, scale := range []int{w.Spec.NProbe / w.Gen.PhysNProbe, 0} {
			s := TenantSlot{W: w, Plan: plan, blockScale: scale}
			var walked, added kernelWork
			for q := range w.Templates() {
				walked.reset(shards, prec)
				added.reset(shards, prec)
				wantCPU, gain := walk(&s, w.Probes(dataset.QueryID(q)), false, refreshing, tiers, &walked)
				full := w.ScanBytesAll(dataset.QueryID(q))
				wantHit, wantShare := servedHitRate(full, wantCPU), 0.0
				if prec {
					wantShare = recallShare(gain, full)
				}
				cpu, hit, share := tab.add(dataset.QueryID(q), scale, &added)
				if cpu != wantCPU || math.Float64bits(hit) != math.Float64bits(wantHit) ||
					math.Float64bits(share) != math.Float64bits(wantShare) || !sameWork(&added, &walked) {
					t.Fatalf("trial %d (%d shards, precision %v, %d blocks per cluster) template %d: row cpu %d hit %v share %v %+v, walk cpu %d hit %v share %v %+v",
						trial, shards, prec, scale, q, cpu, hit, share, added, wantCPU, wantHit, wantShare, walked)
				}
			}
		}
	}
}

// randEngine builds one of the engines over random plans — vLiteRAG, an
// unpruned baseline, or three tenants — twice from the same plans: the
// first prices from tables, the second has them removed and walks.
func randEngine(t *testing.T, r *rand.Rand, f *fixture) (tabled, walking *Hybrid, tenants int) {
	shards := 1 + r.Intn(f.node.NumGPUs)
	gpus := gpu.NewStates(f.node)[:shards]
	kind := r.Intn(3)
	tenants = 1
	if kind == 2 {
		tenants = 3
	}
	plans := make([]*splitter.Plan, tenants)
	for i := range plans {
		plans[i] = randPlan(t, r, f, shards)
	}
	build := func() *Hybrid {
		switch kind {
		case 0:
			return NewHybrid(f.cfg, plans[0], gpus, f.gm)
		case 1:
			return NewSharded(f.cfg, "ALL-GPU", plans[0], gpus, f.gm)
		}
		slots := make([]TenantSlot, tenants)
		for i := range slots {
			slots[i] = TenantSlot{W: f.w, Plan: plans[i], CPUModel: f.cfg.CPUModel, Priority: i}
		}
		e, err := NewMultiTenant(f.cfg, slots, gpus, f.gm)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	tabled, walking = build(), build()
	for i := range walking.slots {
		if tabled.slots[i].Prices == nil {
			t.Fatalf("%s: tenant %d has no price table", tabled.Name(), i)
		}
		walking.slots[i].Prices = nil
	}
	return tabled, walking, tenants
}

// randBatch draws a batch of frozen-corpus requests over tenants; with
// dynamic set, some shed probes and some force PQ.
func randBatch(r *rand.Rand, f *fixture, tenants int, dynamic bool) []*workload.Request {
	batch := make([]*workload.Request, 1+r.Intn(48))
	for i := range batch {
		batch[i] = &workload.Request{ID: i, Query: dataset.QueryID(r.Intn(f.w.Templates())), Tenant: r.Intn(tenants + 1)}
		if dynamic {
			batch[i].Degrade = []float64{0, 0, 0.25, 0.95}[r.Intn(4)]
			batch[i].ForcePQ = r.Intn(3) == 0
		}
	}
	return batch
}

// cloneBatch copies a batch's requests, so two engines can each record
// hit rates on their own.
func cloneBatch(batch []*workload.Request) []*workload.Request {
	out := make([]*workload.Request, len(batch))
	for i, req := range batch {
		c := *req
		out[i] = &c
	}
	return out
}

// TestPriceTableMatchesWalkInBatches: price over random batches gives
// bit-equal shard bytes and blocks, SQ8 kernel work, NVMe terms, CPU
// work, per-tenant misses, hit rates and recall sums with the price
// tables on and off — for vLiteRAG, an unpruned baseline and a 3-tenant
// engine, plain and precision-refined, with Degrade, ForcePQ and
// refreshing shards mixed in.
func TestPriceTableMatchesWalkInBatches(t *testing.T) {
	f := setup(t)
	for trial := 0; trial < 150; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		tabled, walking, tenants := randEngine(t, r, f)
		for batchNo := 0; batchNo < 4; batchNo++ {
			if r.Intn(4) == 0 {
				g := r.Intn(len(tabled.gpus))
				on := !tabled.ShardRefreshing(g)
				tabled.SetShardRefreshing(g, on)
				walking.SetShardRefreshing(g, on)
			}
			batch := randBatch(r, f, tenants, r.Intn(2) == 0)
			got, want := onePass(tabled, batch), onePass(walking, cloneBatch(batch))
			if !samePricing(got, want) {
				t.Fatalf("trial %d batch %d (%s): with tables\n%+v\nwalking\n%+v", trial, batchNo, tabled.Name(), got, want)
			}
		}
	}
}

// poison replaces every tenant's price table with a copy whose every
// entry is one byte off, so a query priced from a table shows.
func poison(e *Hybrid) {
	for i := range e.slots {
		s := &e.slots[i]
		if s.Prices == nil {
			continue
		}
		bad := *s.Prices
		bad.entries = slices.Clone(bad.entries)
		for j := range bad.entries {
			bad.entries[j].bytes++
		}
		s.Prices = &bad
	}
}

// TestDynamicStateTakesTheWalk: a live overlay, a shard mid-reload, a
// Degrade-shed probe list and a ForcePQ request are each priced by
// walking, never from the (here poisoned) table, while a plain request
// on the same engine reads the table.
func TestDynamicStateTakesTheWalk(t *testing.T) {
	f := setup(t)
	for trial := 0; trial < 40; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		e, _, tenants := randEngine(t, r, f)
		poison(e)
		plain := randBatch(r, f, tenants, false)
		if samePricing(onePass(e, cloneBatch(plain)), refPrice(e, plain)) {
			t.Fatalf("trial %d (%s): a plain batch was not priced from the table", trial, e.Name())
		}
		degraded, forced := cloneBatch(plain), cloneBatch(plain)
		for i := range plain {
			degraded[i].Degrade = 0.25
			forced[i].ForcePQ = true
		}
		for name, batch := range map[string][]*workload.Request{"Degrade": degraded, "ForcePQ": forced} {
			if want := refPrice(e, batch); !samePricing(onePass(e, batch), want) {
				t.Fatalf("trial %d (%s): a %s batch was priced from the table", trial, e.Name(), name)
			}
		}
		e.SetShardRefreshing(r.Intn(len(e.gpus)), true)
		if want := refPrice(e, plain); !samePricing(onePass(e, plain), want) {
			t.Fatalf("trial %d (%s): a batch beside a reloading shard was priced from the table", trial, e.Name())
		}
	}

	// A live overlay drops even a table the configuration hands in.
	plan := f.plan(t, 0.4, 4)
	cfg := f.cfg
	cfg.Prices = NewPriceTable(f.w, plan)
	cfg.Live = floatLive{f.w, make([]float64, len(f.prof.Counts))}
	if e := NewHybrid(cfg, plan, gpu.NewStates(f.node)[:4], f.gm); e.slots[0].Prices != nil {
		t.Fatal("an engine on a live corpus kept a price table")
	}
}

// TestEnginesShareTheConfiguredTable: engines built from one Config
// whose table prices their plan all read that table; an engine built on
// another plan builds its own.
func TestEnginesShareTheConfiguredTable(t *testing.T) {
	f := setup(t)
	plan, other := f.plan(t, 0.3, 8), f.plan(t, 0.6, 8)
	cfg := f.cfg
	cfg.Prices = NewPriceTable(f.w, plan)
	for _, e := range []*Hybrid{NewHybrid(cfg, plan, f.gpus, f.gm), NewHybrid(cfg, plan, f.gpus, f.gm), NewSharded(cfg, "ALL-GPU", plan, f.gpus, f.gm)} {
		if e.slots[0].Prices != cfg.Prices {
			t.Fatalf("%s built its own table beside the configured one", e.Name())
		}
	}
	if e := NewHybrid(cfg, other, f.gpus, f.gm); e.slots[0].Prices == cfg.Prices || !e.slots[0].Prices.serves(f.w, other) {
		t.Fatal("an engine on another plan priced from the configured plan's table")
	}
}

// TestSetPlanPricesAgainstTheNewTable: after a hot swap the engine
// prices from a table of the new plan, never the old plan's.
func TestSetPlanPricesAgainstTheNewTable(t *testing.T) {
	f := setup(t)
	for trial := 0; trial < 20; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		shards := 1 + r.Intn(f.node.NumGPUs)
		gpus := gpu.NewStates(f.node)[:shards]
		e := NewHybrid(f.cfg, randPlan(t, r, f, shards), gpus, f.gm)
		old := e.slots[0].Prices
		next := randPlan(t, r, f, shards)
		e.SetPlan(next)
		if e.slots[0].Prices == old || !e.slots[0].Prices.serves(f.w, next) {
			t.Fatalf("trial %d: after SetPlan the engine holds the old plan's table", trial)
		}
		batch := randBatch(r, f, 1, false)
		if want := refPrice(e, batch); !samePricing(onePass(e, batch), want) {
			t.Fatalf("trial %d: after SetPlan the engine did not price the new plan", trial)
		}
	}
}

// TestPriceTableFitsBudget: at the default geometry (512 templates of
// 16 probes on an 8-GPU node) one plan's table stays within 48 KiB,
// largest when the whole index is resident (ALL-GPU).
func TestPriceTableFitsBudget(t *testing.T) {
	for _, spec := range []dataset.Spec{dataset.Orcas1K, dataset.WikiAll} {
		w, err := dataset.Build(spec, dataset.DefaultGen())
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profiler.CollectAccess(w, 4000, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name     string
			coverage float64
			shards   int
		}{{"ALL-GPU", 1, 8}, {"DED-GPU", 1, 1}, {"vLiteRAG", 0.2, 8}} {
			plan, err := splitter.Build(prof, tc.coverage, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			tab := NewPriceTable(w, plan)
			size := tableBytes(tab)
			t.Logf("%s %s: %d entries, %d bytes", spec.Name, tc.name, len(tab.entries), size)
			if size > 48<<10 {
				t.Errorf("%s %s: price table takes %d bytes, budget 48 KiB", spec.Name, tc.name, size)
			}
		}
	}
}

// TestNoTableForNegativeWork: a malformed Spec whose probe count is
// negative prices negative scan work, which no entry holds, so its plans
// get no table and their engines walk.
func TestNoTableForNegativeWork(t *testing.T) {
	f := setup(t)
	spec := f.w.Spec
	spec.NProbe = -spec.NProbe
	w, err := dataset.Build(spec, f.w.Gen)
	if err != nil {
		t.Fatal(err)
	}
	if tab := NewPriceTable(w, f.plan(t, 0.3, 4)); tab != nil {
		t.Fatalf("negative scan work got a %d-entry table", len(tab.entries))
	}
}
