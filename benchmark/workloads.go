package main

import (
	"fmt"
	"slices"
	"sort"
)

// shared sets the metrics every workload reports under the same names:
// the pass's steady wall (see laps) and allocation, the host latency of
// the workload's unit operation, and its output quality.
func (r *run) shared(wall, allocMB []float64, opP50us, opTailus, quality float64) {
	r.set("wall_s", r.laps.steady(), "s")
	r.set("alloc_mb", median(allocMB), "MB")
	r.set("op_p50_us", opP50us, "us")
	r.set("op_tail_us", opTailus, "us")
	r.set("quality", quality, "ratio")
	r.Samples["passes"] = len(wall)
	r.Passes["wall_s"], r.Passes["alloc_mb"] = wall, allocMB
}

const (
	distinctQueries = 4096 // query vectors drawn per run
	recallQueries   = 512  // fixed subset recall is computed on
	batchSize       = 64   // queries per SearchBatch call
	minRecall       = 0.80
	lapEvery        = 1000 // operations per timed chunk of a search pass
)

// queryQuantiles keeps each pass's query-latency quantiles, and the p95
// of every chunk of consecutive queries.
type queryQuantiles struct {
	p50, p95, p99 []float64 // per pass
	chunkP95      []float64 // per chunk, all passes
}

// add records one pass's quantiles. It sorts lat, chunk by chunk and
// then as a whole, in place.
func (q *queryQuantiles) add(lat []float64, chunk int) {
	at := func(v []float64, p float64) float64 { return v[int(p*float64(len(v)-1))] }
	chunk = min(chunk, len(lat)) // a scaled-down pass is one chunk
	for i := 0; i+chunk <= len(lat); i += chunk {
		sort.Float64s(lat[i : i+chunk])
		q.chunkP95 = append(q.chunkP95, at(lat[i:i+chunk], 0.95))
	}
	sort.Float64s(lat)
	q.p50, q.p95, q.p99 = append(q.p50, at(lat, 0.50)), append(q.p95, at(lat, 0.95)), append(q.p99, at(lat, 0.99))
}

// report names the query metrics, each the median over passes of the
// pass's quantile, and returns the median and the quiet-host tail: the
// first quartile over all chunks of the chunk's p95. A pass's own p95
// swings between 18 and 30 us with the sandbox's slow periods, which
// stretch the tail of every chunk they touch; the quieter quarter of the
// chunks is what the code's own tail looks like.
func (q *queryQuantiles) report(r *run) (p50, tail float64) {
	p50 = median(q.p50)
	r.name("query_p50_us", p50, "us")
	r.name("query_p99_us", median(q.p99), "us")
	r.Passes["query_p50_us"], r.Passes["query_p95_us"], r.Passes["query_p99_us"] = q.p50, q.p95, q.p99
	r.Samples["query chunks"] = len(q.chunkP95)
	return p50, quantile(q.chunkP95, 0.25)
}

// checkRecall computes recall_at_10 over the fixed query subset and
// fails the run when it is below minRecall.
func checkRecall(r *run, t *truth, qs []float32, dim int, search func(q []float32) []neighbor) float64 {
	sum := 0.0
	for i := 0; i < recallQueries; i++ {
		q := qs[i*dim : (i+1)*dim]
		sum += t.recall(q, search(q))
	}
	recall := sum / recallQueries
	r.check(recall >= minRecall, "recall_at_10 %.4f below %.2f", recall, minRecall)
	r.name("recall_at_10", recall, "ratio")
	return recall
}

// ---------------------------------------------------------------------
// search_read: a frozen IVF-PQ index, one closed-loop caller.

type searchRead struct {
	c      *corpus
	s, ref *searcher // ref answers the traced pass's equality checks
	qs     []float32

	lat []float64 // one pass's per-query latencies, us
	qq  queryQuantiles
}

func (b *searchRead) setup(r *run) error {
	c, err := buildSearchCorpus(nil, r.Scale)
	if err != nil {
		return err
	}
	b.c, b.s, b.ref = c, c.newSearcher(), c.newSearcher()
	b.qs = c.queries(r.Seed, distinctQueries)
	b.lat = make([]float64, 0, r.scaled(50000, 500))
	return nil
}

func (b *searchRead) query(i int) []float32 {
	j := i % distinctQueries
	return b.qs[j*b.c.dim : (j+1)*b.c.dim]
}

func (b *searchRead) pass(r *run, pass int) {
	single, batches := cap(b.lat), r.scaled(250, 4)
	b.lat = b.lat[:0]
	bad := 0
	t0 := nowNS()
	for i := 0; i < single; i++ {
		q := b.query(i)
		var res []neighbor
		if r.tr == nil {
			res = b.s.search(q)
		} else {
			res = b.s.searchStaged(r.tr, q)
			if i%64 == 0 && !slices.Equal(res, b.ref.search(q)) {
				r.check(false, "staged search of query %d differs from SearchInto", i)
			}
		}
		t1 := nowNS()
		b.lat = append(b.lat, float64(t1-t0)/1e3)
		t0 = t1
		if len(res) != topK {
			bad++
		}
		if (i+1)%lapEvery == 0 {
			r.laps.lap()
		}
	}
	r.Attempted += single
	if bad > 0 {
		r.Failed += bad
		fmt.Fprintf(r.log, "FAILED: %d queries returned fewer than %d neighbors\n", bad, topK)
	}
	windows := distinctQueries / batchSize
	for j := 0; j < batches; j++ {
		w := j % windows
		t0 := r.tr.start()
		res, err := b.c.searchBatch(b.qs[w*batchSize*b.c.dim : (w+1)*batchSize*b.c.dim])
		r.tr.end("ivf.search_batch", t0, batchSize)
		r.check(err == nil && len(res) == batchSize, "SearchBatch %d: %v", j, err)
		if (j+1)%(lapEvery/batchSize) == 0 {
			r.laps.lap()
		}
	}
	b.qq.add(b.lat, lapEvery)
}

func (b *searchRead) finish(r *run, wall, allocMB []float64) {
	recall := checkRecall(r, b.c.storedTruth(nil, nil, nil), b.qs, b.c.dim, b.s.search)
	p50, tail := b.qq.report(r)
	r.Samples["query latencies per pass"] = cap(b.lat)
	r.shared(wall, allocMB, p50, tail, recall)
}

// ---------------------------------------------------------------------
// search_live: the same index under ingest.Store, reads beside writes.

// The fixed interleave: of every 25 operations 20 search, 4 insert and
// 1 deletes (80 % / 16 % / 4 %).
const livePeriod = 25

func liveOp(i int) byte {
	switch k := i % livePeriod; {
	case k == livePeriod-1:
		return 'd'
	case k%5 == 4:
		return 'i'
	}
	return 's'
}

type searchLive struct {
	preset  *corpus // set by the layer probes, with a shorter ops
	c       *corpus
	qs      []float32
	ins     []float32 // insert payloads of one pass
	victims []int     // base IDs in delete order

	st     *liveStore // the last pass's store, kept for the checks
	insIDs []int32    // IDs that store assigned, in insert order

	searchLat, mutLat  []float64 // one pass's latencies, us
	qq                 queryQuantiles
	mutP50s            []float64
	ops, reencodeEvery int
}

func (b *searchLive) setup(r *run) error {
	c := b.preset
	if c == nil {
		var err error
		if c, err = buildSearchCorpus(nil, r.Scale); err != nil {
			return err
		}
		b.ops = r.scaled(40000, 500)
	}
	b.c = c
	b.ops = b.ops / livePeriod * livePeriod
	b.reencodeEvery = b.ops / 5
	b.qs = c.queries(r.Seed, distinctQueries)
	b.ins = c.insertVectors(r.Seed+1, b.ops/livePeriod*4+64)
	b.victims = c.shuffledIDs(r.Seed + 2)
	b.searchLat = make([]float64, 0, b.ops)
	b.mutLat = make([]float64, 0, b.ops)
	return nil
}

func (b *searchLive) pass(r *run, pass int) {
	dim := b.c.dim
	st := b.c.newLiveStore()
	b.st, b.insIDs = st, b.insIDs[:0]
	b.searchLat, b.mutLat = b.searchLat[:0], b.mutLat[:0]
	nq, ni, nv := 0, 0, 0
	for i := 0; i < b.ops; i++ {
		switch liveOp(i) {
		case 's':
			q := b.qs[(nq%distinctQueries)*dim : (nq%distinctQueries+1)*dim]
			nq++
			t0 := nowNS()
			res := st.search(r.tr, q)
			b.searchLat = append(b.searchLat, float64(nowNS()-t0)/1e3)
			ok := len(res) == topK
			for _, nb := range res {
				ok = ok && st.alive(nb.Index)
			}
			r.check(ok, "live search %d returned a tombstoned id or fewer than %d neighbors", i, topK)
		case 'i':
			vec := b.ins[ni*dim : (ni+1)*dim]
			ni++
			t0 := nowNS()
			id := st.insert(r.tr, vec)
			b.mutLat = append(b.mutLat, float64(nowNS()-t0)/1e3)
			b.insIDs = append(b.insIDs, int32(id))
			r.check(id >= b.c.vectors() && st.alive(id), "insert %d got id %d", i, id)
		case 'd':
			for !st.alive(b.victims[nv]) {
				nv++ // tombstoned by the store's set-up
			}
			t0 := nowNS()
			ok := st.deleteBase(r.tr, b.victims[nv])
			b.mutLat = append(b.mutLat, float64(nowNS()-t0)/1e3)
			r.check(ok && !st.alive(b.victims[nv]), "delete %d of base id %d", i, b.victims[nv])
			nv++
		}
		if (i+1)%b.reencodeEvery == 0 && i+1 < b.ops {
			st.reencode(r.tr)
		}
		if (i+1)%lapEvery == 0 {
			r.laps.lap()
		}
	}
	st.compact(r.tr)
	b.qq.add(b.searchLat, lapEvery/livePeriod*(livePeriod-5)) // the searches of one timed chunk
	b.mutP50s = append(b.mutP50s, median(b.mutLat))
}

func (b *searchLive) finish(r *run, wall, allocMB []float64) {
	dim := b.c.dim
	// A vector just inserted sits in a raw buffer scanned with exact
	// distances, so a search for it must return it first.
	extra := b.ins[len(b.insIDs)*dim:]
	for i := 0; i*dim < len(extra); i++ {
		vec := extra[i*dim : (i+1)*dim]
		id := b.st.insert(nil, vec)
		b.insIDs = append(b.insIDs, int32(id))
		res := b.st.search(nil, vec)
		r.check(len(res) > 0 && res[0].Index == id, "inserted vector %d is not its own top-1", id)
	}
	b.st.compact(nil)

	recall := checkRecall(r, b.c.storedTruth(b.st.alive, b.insIDs, b.ins), b.qs, dim,
		func(q []float32) []neighbor { return b.st.search(nil, q) })
	p50, tail := b.qq.report(r)
	r.name("mutation_p50_us", median(b.mutP50s), "us")
	r.Samples["query latencies per pass"] = len(b.searchLat)
	r.Samples["mutation latencies per pass"] = len(b.mutLat)
	r.Passes["mutation_p50_us"] = b.mutP50s
	r.shared(wall, allocMB, p50, tail, recall)
}

// ---------------------------------------------------------------------
// serve_sweep: the single-timeline serving path through the public API.

// sloTarget is the attainment a rate must hold to count as SLO
// compliant.
const sloTarget = 0.90

type serveSweep struct {
	env      *servingEnv
	points   []sweepPoint
	controls []controlRun

	first *tally     // the first pass's runs, which every pass must repeat
	stats []simStats // per point, from the first pass
}

func (b *serveSweep) setup(r *run) error {
	orcas, err := buildOrcas(nil, r.Scale)
	if err != nil {
		return err
	}
	wiki, err := buildWiki(nil, r.Scale)
	if err != nil {
		return err
	}
	if b.env, err = newServingEnv(orcas, wiki, r.Scale); err != nil {
		return err
	}
	b.points, b.controls = b.env.sweepPoints(), b.env.controlRuns()
	return nil
}

// callSeed gives every public call of a pass its own seed, so that one
// seed's luck (the profiling sample decides rho) does not colour a whole
// run and the per-pass sums average over independent draws.
func (b *serveSweep) callSeed(r *run, call int) uint64 {
	return r.Seed*1000 + uint64(call)
}

// pass runs the fig-11 pattern and the six control-plane runs. Every
// pass uses the same seeds, so every pass simulates the same thing:
// simulated statistics then do not depend on how many passes the host
// fits into the time budget, and their digests must agree. That holds
// for a traced pass too, whose vLiteRAG points decide call by call.
func (b *serveSweep) pass(r *run, pass int) {
	var sums tally
	stats := make([]simStats, 0, len(b.points))
	for i, p := range b.points {
		sum, st, err := b.env.servePoint(r.tr, p, b.callSeed(r, i))
		r.laps.lap()
		r.check(err == nil, "Serve %s at %.2f x capacity: %v", p, p.share, err)
		if b.first != nil {
			r.check(st.rho == b.stats[i].rho, "Serve %s decided rho %v, the first pass %v", p, st.rho, b.stats[i].rho)
		}
		sums.add(sum)
		stats = append(stats, st)
	}
	for j, c := range b.controls {
		sum, err := c.run(b.callSeed(r, len(b.points)+j))
		r.laps.lap()
		r.check(err == nil, "%s: %v", c.name, err)
		sums.add(sum)
	}
	if b.first == nil {
		b.first, b.stats = &sums, stats
	}
	r.check(sums.digest() == b.first.digest(), "pass %d sim_digest %s differs from the first pass's %s", pass, sums.digest(), b.first.digest())
}

// sloRateMax returns the highest rate at which vLiteRAG on ORCAS-1K
// holds the attainment target at that and every lower swept rate,
// interpolated linearly between the last swept rate that holds and the
// first that does not, so the metric moves smoothly and not in steps of
// one sweep point.
func (b *serveSweep) sloRateMax() float64 {
	best := 0.0
	var prevShare, prevAtt float64
	for i, p := range b.points {
		if !p.vlite() || p.c != b.env.orcas {
			continue
		}
		att := b.stats[i].attainment
		if att < sloTarget {
			if prevShare > 0 {
				best = prevShare + (p.share-prevShare)*(prevAtt-sloTarget)/(prevAtt-att)
			}
			break
		}
		best, prevShare, prevAtt = p.share, p.share, att
	}
	return best * b.env.capacity
}

func (b *serveSweep) finish(r *run, wall, allocMB []float64) {
	var att []float64
	var ref simStats
	for i, p := range b.points {
		if !p.vlite() {
			continue
		}
		att = append(att, b.stats[i].attainment)
		if p.c == b.env.orcas && p.share == refShare {
			ref = b.stats[i]
		}
	}
	// One chunk per public call: each call's median over the passes. The
	// slowest twentieth are control-plane runs whose simulated work
	// depends on the seed (a drift may or may not trigger a rebuild), so
	// the shared tail metric is p90, which lands among the vLiteRAG
	// calls and their decision.
	calls := r.laps.medians()[:len(b.points)+len(b.controls)]
	p50, p95 := quantile(calls, 0.50)*1e3, quantile(calls, 0.95)*1e3
	r.name("run_p50_ms", p50, "ms")
	r.name("run_p95_ms", p95, "ms")
	r.name("sim_req_per_s", float64(b.first.reqs)/r.laps.steady(), "1/s")
	r.name("sim_slo_rate_max", b.sloRateMax(), "1/s")
	r.name("sim_attainment", mean(att), "ratio")
	r.name("sim_ttft_p50_ms", float64(ref.ttftP50)/1e6, "ms")
	r.name("sim_ttft_p90_ms", float64(ref.ttftP90)/1e6, "ms")
	r.SimDigest = b.first.digest()
	r.Samples["public calls per pass"] = len(calls)
	r.Samples["simulated requests per pass"] = b.first.reqs
	r.shared(wall, allocMB, p50*1e3, quantile(calls, 0.90)*1e6, b.first.attainment())
}

// ---------------------------------------------------------------------
// fleet_sharded: 64 replicas on the sharded engine, once per policy.

type fleetSharded struct {
	env  *servingEnv
	spec fleetSpec

	first *tally     // the first pass's runs
	stats []simStats // per policy, first pass
}

func (b *fleetSharded) setup(r *run) error {
	orcas, err := buildOrcas(nil, r.Scale)
	if err != nil {
		return err
	}
	b.spec = fleetAt(r.Scale)
	b.env, err = newServingEnv(orcas, nil, r.Scale)
	return err
}

// fleet runs the fleet once per policy at the given worker count, one
// chunk per run, and returns the tally of the runs and the per-policy
// statistics.
func (b *fleetSharded) fleet(r *run, workers int, lap func()) (*tally, []simStats) {
	var sums tally
	var stats []simStats
	for _, pol := range fleetPolicies() {
		sum, st, err := b.env.fleetRun(b.spec, pol, workers, netDelay, r.Seed)
		lap()
		r.check(err == nil, "ServeCluster %s workers=%d: %v", pol, workers, err)
		sums.add(sum)
		stats = append(stats, st)
	}
	return &sums, stats
}

func (b *fleetSharded) pass(r *run, pass int) {
	sums, stats := b.fleet(r, 0, r.laps.lap)
	if b.first == nil {
		b.first, b.stats = sums, stats
	}
	r.check(sums.digest() == b.first.digest(), "pass %d sim_digest %s differs from the first pass's %s", pass, sums.digest(), b.first.digest())
}

func (b *fleetSharded) finish(r *run, wall, allocMB []float64) {
	// The sharded engine's contract: worker count changes wall clock only.
	w1, _ := b.fleet(r, 1, func() {})
	r.check(w1.digest() == b.first.digest(), "sim_digest at Workers:1 %s differs from Workers:0 %s", w1.digest(), b.first.digest())

	runs := r.laps.medians()[:len(b.stats)] // one chunk per policy's run
	r.name("sim_req_per_s", float64(b.first.reqs)/r.laps.steady(), "1/s")
	r.name("sim_attainment", (b.stats[0].attainment+b.stats[1].attainment)/2, "ratio")
	r.name("sim_ttft_p50_ms", float64(b.stats[0].ttftP50)/1e6, "ms")
	r.name("sim_ttft_p90_ms", float64(b.stats[0].ttftP90)/1e6, "ms")
	r.SimDigest = b.first.digest()
	r.Samples["cluster runs per pass"] = len(runs)
	r.Samples["simulated requests per pass"] = b.first.reqs
	r.shared(wall, allocMB, median(runs)*1e6, maxOf(runs)*1e6, b.first.attainment())
}
