package main

// surface.go holds every call the benchmark makes into the module: the
// public Serve*/BuildSystem/Capacity API for whole runs and the listed
// internal functions for single layers. No other file of the benchmark
// imports a module package, so an API refactor is a one-file change
// here. Functions take a *tracer and record a span around each call
// into a layer; a nil tracer records nothing.

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	vlr "vectorliterag"
	"vectorliterag/internal/adapt"
	"vectorliterag/internal/brownout"
	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/gpu"
	"vectorliterag/internal/hitrate"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/ingest"
	"vectorliterag/internal/ivf"
	"vectorliterag/internal/kmeans"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/metrics"
	"vectorliterag/internal/parallel"
	"vectorliterag/internal/partition"
	"vectorliterag/internal/perfmodel"
	"vectorliterag/internal/pq"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/retrieval"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/tenant"
	"vectorliterag/internal/vecmath"
	"vectorliterag/internal/workload"
)

// Search geometry shared by the two search workloads: every query
// probes nprobe lists and keeps the topK nearest.
const (
	nprobe = 16
	topK   = 10
	// The physical index is always PQ 8x64 trained for 8 iterations,
	// the values dataset.Build passes to ivf.Build.
	pqM, pqK, trainIters = 8, 64, 8
)

type neighbor = vecmath.Neighbor

// netDelay is the fleet's modelled front-end-to-replica transit, which
// selects the sharded engine and is its lookahead.
const netDelay = time.Millisecond

// epoch anchors nowNS to the monotonic clock.
var epoch = time.Now()

// nowNS is the monotonic time since process start, for chained
// per-operation latency samples.
func nowNS() int64 { return int64(time.Since(epoch)) }

// ---------------------------------------------------------------------
// Corpus: a dataset.Workload and the real IVF-PQ index inside it.

// corpus wraps one built workload.
type corpus struct {
	w   *dataset.Workload
	dim int
}

// corpusSeed fixes the synthetic corpus: it is the benchmark's dataset,
// the same for every --seed. The seed argument generates the traffic
// (queries, mutations, arrivals) that runs against it.
const corpusSeed = 1

// searchGen is the physical realization the search workloads index. At
// scale 1 it is 32 768 vectors of 64 dimensions in 128 lists.
func searchGen(scale float64) dataset.GenConfig {
	g := dataset.GenConfig{NCenters: 128, PerCenter: 256, Dim: 64,
		PhysNList: 128, PhysNProbe: nprobe, Templates: 1024, Seed: corpusSeed}
	if scale < 1 {
		g.NCenters, g.PerCenter, g.PhysNList, g.Templates = 32, 64, 32, 128
	}
	return g
}

// servingGen is the realization the serving workloads simulate over:
// dataset.DefaultGen at scale 1.
func servingGen(scale float64) dataset.GenConfig {
	g := dataset.DefaultGen()
	if scale < 1 {
		g.NCenters, g.PerCenter, g.PhysNList, g.Templates = 32, 64, 32, 128
	}
	return g
}

func buildCorpus(tr *tracer, spec dataset.Spec, gen dataset.GenConfig) (*corpus, error) {
	t0 := tr.start()
	w, err := dataset.Build(spec, gen)
	tr.end("dataset.build", t0, 1)
	if err != nil {
		return nil, err
	}
	return &corpus{w: w, dim: gen.Dim}, nil
}

func buildSearchCorpus(tr *tracer, scale float64) (*corpus, error) {
	return buildCorpus(tr, dataset.Orcas1K, searchGen(scale))
}

func buildOrcas(tr *tracer, scale float64) (*corpus, error) {
	return buildCorpus(tr, dataset.Orcas1K, servingGen(scale))
}

func buildWiki(tr *tracer, scale float64) (*corpus, error) {
	return buildCorpus(tr, dataset.WikiAll, servingGen(scale))
}

func (c *corpus) vectors() int { return c.w.Index.NVectors() }

// queries draws n query vectors (row-major): Zipf-skewed templates plus
// noise, the distribution Workload.Sample serves.
func (c *corpus) queries(seed uint64, n int) []float32 {
	r := rng.New(seed)
	out := make([]float32, 0, n*c.dim)
	for i := 0; i < n; i++ {
		out = append(out, c.w.QueryVector(c.w.Sample(r), r)...)
	}
	return out
}

// insertVectors draws n fresh database vectors from the live insert
// distribution.
func (c *corpus) insertVectors(seed uint64, n int) []float32 {
	r := rng.New(seed)
	out := make([]float32, 0, n*c.dim)
	for i := 0; i < n; i++ {
		out = append(out, c.w.InsertVector(r)...)
	}
	return out
}

// shuffledIDs returns a seeded permutation of the base vector IDs.
func (c *corpus) shuffledIDs(seed uint64) []int {
	return rng.New(seed).Perm(c.vectors())
}

// searcher owns the scratch one closed-loop caller reuses.
type searcher struct {
	ix  *ivf.Index
	s   *ivf.SearchScratch
	lut pq.LUT
	top vecmath.TopK
	out []neighbor
}

func (c *corpus) newSearcher() *searcher {
	return &searcher{ix: c.w.Index, s: c.w.Index.NewSearchScratch()}
}

// search is the frozen-index read path; the result aliases the scratch.
func (s *searcher) search(q []float32) []neighbor {
	return s.ix.SearchInto(s.s, q, nprobe, topK)
}

func (c *corpus) searchBatch(qs []float32) ([][]neighbor, error) {
	return c.w.Index.SearchBatch(qs, nprobe, topK)
}

// searchStaged runs one query stage by stage — coarse quantization, LUT
// build, list scans, top-k merge — with a span around each stage. It
// must return what search returns.
func (s *searcher) searchStaged(tr *tracer, q []float32) []neighbor {
	t0 := tr.start()
	probes := s.ix.ProbeInto(s.s, q, nprobe)
	tr.end("ivf.probe", t0, 1)

	t0 = tr.start()
	s.ix.Quantizer().BuildLUTInto(q, &s.lut)
	tr.end("pq.lut_build", t0, 1)

	s.top.Reset(topK)
	codes := 0
	t0 = tr.start()
	for _, c := range probes {
		s.ix.ScanCluster(&s.lut, c, &s.top)
		codes += s.ix.ClusterSize(c)
	}
	tr.end("pq.scan", t0, codes)
	tr.count("ivf.codes_scanned", float64(codes))
	tr.count("ivf.staged_queries", 1)

	t0 = tr.start()
	s.out = s.top.AppendSorted(s.out[:0])
	tr.end("vecmath.topk_merge", t0, 1)
	return s.out
}

// truth is brute force over a set of live vectors, for recall.
type truth struct {
	bf    *vecmath.BruteForcer
	dim   int
	rows  []float32
	ids   []int32
	rowOf map[int]int // vector ID -> row
	buf   []neighbor
}

func (t *truth) add(id int32, vec []float32) {
	t.rowOf[int(id)] = len(t.ids)
	t.ids = append(t.ids, id)
	t.rows = append(t.rows, vec...)
}

// storedTruth brute-forces the corpus *as the index stores it*: every
// live base vector decoded from its PQ code, plus extra vectors passed
// through the same quantizer. Recall against it isolates what probing
// only nprobe lists (and any kernel error) loses; recall against the
// raw floats is ~0.02 on this distance-concentrated corpus for any
// 8-byte code, so it cannot gate anything (rawTruth reports it).
func (c *corpus) storedTruth(alive func(id int) bool, extraIDs []int32, extraVecs []float32) *truth {
	ix, quant := c.w.Index, c.w.Index.Quantizer()
	cs := ix.CodeSize()
	t := &truth{dim: c.dim, rowOf: map[int]int{}}
	for cl := 0; cl < ix.NList(); cl++ {
		ids, codes := ix.ClusterIDs(cl), ix.ClusterCodes(cl)
		for p, id := range ids {
			if alive == nil || alive(int(id)) {
				t.add(id, quant.Decode(codes[p*cs:(p+1)*cs]))
			}
		}
	}
	code := make([]byte, cs)
	for i, id := range extraIDs {
		if alive == nil || alive(int(id)) {
			t.add(id, quant.Decode(quant.Encode(extraVecs[i*c.dim:(i+1)*c.dim], code)))
		}
	}
	t.bf = vecmath.NewBruteForcer(t.rows, c.dim)
	return t
}

// rawTruth brute-forces the raw float corpus.
func (c *corpus) rawTruth() *truth {
	t := &truth{dim: c.dim, rowOf: map[int]int{}}
	for id := 0; id < c.vectors(); id++ {
		t.add(int32(id), c.w.Data[id*c.dim:(id+1)*c.dim])
	}
	t.bf = vecmath.NewBruteForcer(t.rows, c.dim)
	return t
}

// recall returns the share of the returned neighbors that belong in
// the true top-k. Eight-byte codes make many stored vectors identical,
// so membership is by distance, not by ID: a returned vector counts
// when it is no farther than the true k-th neighbor.
func (t *truth) recall(q []float32, got []neighbor) float64 {
	t.buf = t.bf.AppendTopK(t.buf[:0], q, topK)
	if len(t.buf) == 0 {
		return 0
	}
	dist := func(row int) float32 { return vecmath.SquaredL2(q, t.rows[row*t.dim:(row+1)*t.dim]) }
	kth := dist(t.buf[len(t.buf)-1].Index) * (1 + 1e-4)
	hit := 0
	for _, g := range got {
		if row, ok := t.rowOf[g.Index]; ok && dist(row) <= kth {
			hit++
		}
	}
	return float64(hit) / float64(topK)
}

// ---------------------------------------------------------------------
// Offline build layers, on a prefix of the corpus.

func (c *corpus) prefix(rows int) []float32 {
	if rows > c.vectors() {
		rows = c.vectors()
	}
	return c.w.Data[:rows*c.dim]
}

func (c *corpus) buildConfig(rows, workers int) ivf.BuildConfig {
	nlist := c.w.Gen.PhysNList
	if nlist > rows/8 {
		nlist = rows / 8
	}
	return ivf.BuildConfig{Dim: c.dim, NList: nlist, PQM: pqM, PQK: pqK,
		TrainIters: trainIters, Seed: corpusSeed + 11, Workers: workers}
}

func (c *corpus) kmeansTrain(tr *tracer, rows int) error {
	cfg := c.buildConfig(rows, 0)
	t0 := tr.start()
	_, err := kmeans.Train(c.prefix(rows), kmeans.Config{K: cfg.NList, Dim: cfg.Dim,
		MaxIters: cfg.TrainIters, Seed: cfg.Seed})
	tr.end("kmeans.train", t0, 1)
	return err
}

func (c *corpus) pqTrain(tr *tracer, rows int) error {
	cfg := c.buildConfig(rows, 0)
	t0 := tr.start()
	_, err := pq.Train(c.prefix(rows), pq.Config{Dim: cfg.Dim, M: cfg.PQM, K: cfg.PQK,
		Iters: cfg.TrainIters, Seed: cfg.Seed + 1})
	tr.end("pq.train", t0, 1)
	return err
}

// ivfBuild builds an index over the prefix under the named span.
func (c *corpus) ivfBuild(tr *tracer, span string, rows, workers int) error {
	t0 := tr.start()
	_, err := ivf.Build(c.prefix(rows), c.buildConfig(rows, workers))
	tr.end(span, t0, 1)
	return err
}

// encode PQ-encodes the prefix with the corpus's trained quantizer.
func (c *corpus) encode(tr *tracer, rows int) {
	data, quant := c.prefix(rows), c.w.Index.Quantizer()
	code := make([]byte, quant.CodeSize())
	t0 := tr.start()
	for i := 0; i*c.dim < len(data); i++ {
		quant.Encode(data[i*c.dim:(i+1)*c.dim], code)
	}
	tr.end("pq.encode", t0, len(data)/c.dim)
}

// ---------------------------------------------------------------------
// Live store.

// liveStore wraps ingest.Store for one closed-loop caller.
type liveStore struct {
	st  *ingest.Store
	mut workload.Mutation
}

// newLiveStore overlays a fresh ingest.Store on the corpus and
// tombstones the last position of every base list.
//
// Workaround, documented and not fixed here: ingest.setBit grows a
// tombstone bitmap only up to the bit it sets, while the masked PQ
// kernels index ceil(n/64) words of any non-empty bitmap, so deleting a
// vector early in a list panics the next masked scan of that list.
// Setting the last bit first sizes every base bitmap fully. For the
// same reason deletes target live *base* IDs only (deleteBase): the
// bitmaps over appended and pending vectors have no such anchor.
func (c *corpus) newLiveStore() *liveStore {
	l := &liveStore{st: ingest.NewStore(c.w)}
	ix := c.w.Index
	for cl := 0; cl < ix.NList(); cl++ {
		if ids := ix.ClusterIDs(cl); len(ids) > 0 {
			l.deleteBase(nil, int(ids[len(ids)-1]))
		}
	}
	return l
}

func (l *liveStore) search(tr *tracer, q []float32) []neighbor {
	t0 := tr.start()
	res := l.st.Search(q, nprobe, topK)
	tr.end("ingest.search", t0, 1)
	tr.count("ingest.pending_at_search", float64(l.st.PendingRaw()))
	return res
}

// insert appends vec and returns its assigned vector ID.
func (l *liveStore) insert(tr *tracer, vec []float32) int {
	l.mut = workload.Mutation{Kind: workload.MutInsert, Vec: vec}
	t0 := tr.start()
	l.st.Insert(&l.mut)
	tr.end("ingest.insert", t0, 1)
	return int(l.mut.ID)
}

// deleteBase tombstones the live base vector id and reports whether
// exactly that vector died.
func (l *liveStore) deleteBase(tr *tracer, id int) bool {
	l.mut = workload.Mutation{Kind: workload.MutDelete, Pick: uint64(id)}
	t0 := tr.start()
	ok := l.st.Delete(&l.mut)
	tr.end("ingest.delete", t0, 1)
	return ok && int(l.mut.ID) == id
}

func (l *liveStore) reencode(tr *tracer) {
	t0 := tr.start()
	l.st.Reencode()
	tr.end("ingest.reencode", t0, 1)
}

func (l *liveStore) compact(tr *tracer) {
	t0 := tr.start()
	l.st.Compact()
	tr.end("ingest.compact", t0, 1)
}

func (l *liveStore) alive(id int) bool { return l.st.Alive(id) }

// ---------------------------------------------------------------------
// Scan kernels called directly: the masked PQ scan, the pending-buffer
// brute scan, and the SQ8 family (which real search never calls).

// kernelBench is one prepared kernel call over codes vectors.
type kernelBench struct {
	span string
	n    int // vectors one call scans
	call func()
}

// scanKernels prepares the four direct kernel calls over the corpus's
// largest inverted list, one vector in eight tombstoned.
func (c *corpus) scanKernels(seed uint64) ([]kernelBench, error) {
	ix := c.w.Index
	big := 0
	for cl := 1; cl < ix.NList(); cl++ {
		if ix.ClusterSize(cl) > ix.ClusterSize(big) {
			big = cl
		}
	}
	ids, codes := ix.ClusterIDs(big), ix.ClusterCodes(big)
	n := len(ids)
	dead := make([]uint64, (n+63)/64)
	for i := 0; i < n; i += 8 {
		dead[i>>6] |= 1 << (uint(i) & 63)
	}
	q := c.queries(seed, 1)
	lut := ix.BuildLUT(q)
	top := vecmath.NewTopK(topK)

	raw := make([]float32, 0, n*c.dim)
	for _, id := range ids {
		raw = append(raw, c.w.Data[int(id)*c.dim:(int(id)+1)*c.dim]...)
	}
	bf := vecmath.NewBruteForcer(raw, c.dim)

	sq, err := pq.TrainSQ(c.w.Data, c.dim)
	if err != nil {
		return nil, err
	}
	sqCodes := make([]byte, 0, n*sq.CodeSize())
	buf := make([]byte, sq.CodeSize())
	for i := 0; i < n; i++ {
		sqCodes = append(sqCodes, sq.Encode(raw[i*c.dim:(i+1)*c.dim], buf)...)
	}
	return []kernelBench{
		{"pq.scan_masked", n, func() { top.Reset(topK); lut.ScanCodesIDsMasked(codes, ids, dead, top) }},
		{"vecmath.pending_scan", n, func() { top.Reset(topK); bf.ScanMaskedInto(top, q, ids, dead) }},
		{"pq.scan_sq", n, func() { top.Reset(topK); sq.ScanSQIDs(q, sqCodes, ids, top) }},
		{"pq.scan_sq_masked", n, func() { top.Reset(topK); sq.ScanSQIDsMasked(q, sqCodes, ids, dead, top) }},
	}, nil
}

// ---------------------------------------------------------------------
// Cost model against the timed kernels.

// stageTimes is one batch's per-stage time, modelled or measured, in
// seconds.
type stageTimes struct {
	batch         int
	cq, lut, scan float64
}

func profileBatches() []int { return profiler.DefaultBatches() }

// modelledStages prices the batch sizes with costmodel.SearchModel at
// paper scale on the H100 node's CPU.
func (c *corpus) modelledStages() []stageTimes {
	m := costmodel.NewSearchModel(hw.H100Node().CPU, c.w.Spec)
	var out []stageTimes
	for _, b := range profileBatches() {
		br := m.SearchBreakdown(b)
		out = append(out, stageTimes{b, br.CQ.Seconds(), br.LUTBuild.Seconds(), br.LUTScan.Seconds()})
	}
	return out
}

// measuredStages times the Go kernels on the same batch sizes, each
// stage fanned out over the repo's worker pool as SearchBatch does.
func (c *corpus) measuredStages(qs []float32, reps int) []stageTimes {
	ix := c.w.Index
	nq := len(qs) / c.dim
	var out []stageTimes
	for _, b := range profileBatches() {
		st := stageTimes{batch: b}
		probes := make([][]int, b)
		luts := make([]pq.LUT, b)
		query := func(i int) []float32 { j := i % nq; return qs[j*c.dim : (j+1)*c.dim] }
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			parallel.For(b, 0, func(start, end int) {
				s := ix.NewSearchScratch()
				for i := start; i < end; i++ {
					probes[i] = append(probes[i][:0], ix.ProbeInto(s, query(i), nprobe)...)
				}
			})
			st.cq += time.Since(t0).Seconds()
			t0 = time.Now()
			parallel.For(b, 0, func(start, end int) {
				for i := start; i < end; i++ {
					ix.Quantizer().BuildLUTInto(query(i), &luts[i])
				}
			})
			st.lut += time.Since(t0).Seconds()
			t0 = time.Now()
			parallel.For(b, 0, func(start, end int) {
				top := vecmath.NewTopK(topK)
				for i := start; i < end; i++ {
					top.Reset(topK)
					for _, cl := range probes[i] {
						ix.ScanCluster(&luts[i], cl, top)
					}
				}
			})
			st.scan += time.Since(t0).Seconds()
		}
		st.cq /= float64(reps)
		st.lut /= float64(reps)
		st.scan /= float64(reps)
		out = append(out, st)
	}
	return out
}

// ---------------------------------------------------------------------
// The offline decision, call by call (the BuildSystem sequence).

// decisionParts keeps what the later decision layers reuse.
type decisionParts struct {
	prof  *profiler.AccessProfile
	est   *hitrate.Estimator
	perf  *perfmodel.Model
	mu0   float64
	memKV int64
	part  partition.Result
	plan  *splitter.Plan
}

func nodeKV(node hw.Node, model llm.ModelSpec) int64 {
	perGPU := node.GPU.UsableMem() - model.WeightBytesPerGPU()
	if perGPU < 0 {
		perGPU = 0
	}
	return perGPU * int64((node.NumGPUs/model.TP)*model.TP)
}

// decideStaged runs vlr.BuildSystem's pipeline one call at a time with
// a span around each layer and returns the built system, which must
// equal what Serve decides for the same seed.
func (c *corpus) decideStaged(tr *tracer, seed uint64) (*vlr.BuiltSystem, *decisionParts, error) {
	node, model := hw.H100Node(), llm.Qwen3_32B
	d := &decisionParts{memKV: nodeKV(node, model)}
	var err error

	t0 := tr.start()
	d.prof, err = profiler.CollectAccess(c.w, 4000, seed+1)
	tr.end("profiler.collect_access", t0, 1)
	if err != nil {
		return nil, nil, err
	}
	t0 = tr.start()
	d.est, err = hitrate.NewEstimator(d.prof)
	tr.end("hitrate.new_estimator", t0, 1)
	if err != nil {
		return nil, nil, err
	}
	samples := profiler.ProfileLatency(costmodel.NewSearchModel(node.CPU, c.w.Spec), profiler.DefaultBatches())
	t0 = tr.start()
	d.perf, err = perfmodel.Fit(samples)
	tr.end("perfmodel.fit", t0, 1)
	if err != nil {
		return nil, nil, err
	}
	if d.mu0, err = vlr.Capacity(node, model); err != nil {
		return nil, nil, err
	}
	t0 = tr.start()
	d.part, err = partition.LatencyBounded(partition.Inputs{
		SLOSearch: c.w.Spec.SLOSearch, Perf: d.perf, Est: d.est,
		MemKV: d.memKV, Mu0: d.mu0, IndexBytesAt: splitter.IndexBytesAt(d.prof),
	})
	tr.end("partition.latency_bounded", t0, 1)
	if err != nil {
		return nil, nil, err
	}
	tr.count("partition.iterations", float64(d.part.Iterations))
	tr.count("partition.runs", 1)
	t0 = tr.start()
	d.plan, err = splitter.Build(d.prof, d.part.Rho, node.NumGPUs)
	tr.end("splitter.build", t0, 1)
	if err != nil {
		return nil, nil, err
	}
	return &vlr.BuiltSystem{Rho: d.part.Rho, PlanBytes: d.plan.TotalBytes(), Plan: d.plan,
		Partition: d.part, Mu0: d.mu0}, d, nil
}

// decisionExtras runs the decision layers BuildSystem does not reach:
// the hit-rate integral alone, HedraRAG's rule, the precision
// refinement, and the three-tenant joint allocation.
func (c *corpus) decisionExtras(tr *tracer, d *decisionParts) error {
	t0 := tr.start()
	n := 0
	for _, cov := range []float64{0.05, 0.1, 0.2, 0.4, 0.8} {
		for _, b := range []int{4, 16, 64} {
			d.est.MinHitRate(cov, b)
			n++
		}
	}
	tr.end("hitrate.min_hit_rate", t0, n)

	t0 = tr.start()
	_, err := partition.Hedra(partition.HedraInputs{Perf: d.perf, Est: d.est,
		MemKV: d.memKV, Mu0: d.mu0, IndexBytesAt: splitter.IndexBytesAt(d.prof)})
	tr.end("partition.hedra", t0, 1)
	if err != nil {
		return err
	}

	deltas, err := profiler.SQRecallDeltas(d.prof)
	if err != nil {
		return err
	}
	plan, err := splitter.Build(d.prof, d.part.Rho, hw.H100Node().NumGPUs)
	if err != nil {
		return err
	}
	t0 = tr.start()
	_, err = partition.AssignPrecision(partition.PrecisionInputs{
		Prof: d.prof, Plan: plan, RecallDeltas: deltas,
		SQRatio:       float64(c.w.Spec.Dim) / float64(c.w.Spec.CodeBytes),
		SQBudgetBytes: (d.memKV - plan.TotalBytes()) / 10,
		NVMeColdShare: 0.02,
	})
	tr.end("partition.assign_precision", t0, 1)
	if err != nil {
		return err
	}

	prefix := make([]int64, len(d.prof.Counts)+1)
	for k, cl := range d.prof.HotOrder {
		prefix[k+1] = prefix[k] + c.w.ClusterBytes(cl)
	}
	var tenants []tenant.Input
	for i, tier := range tenant.Tiers() {
		tenants = append(tenants, tenant.Input{Name: string(tier), Tier: tier,
			Rate: float64(4 * (i + 1)), SLOSearch: c.w.Spec.SLOSearch,
			Perf: d.perf, Est: d.est, PrefixBytes: prefix})
	}
	t0 = tr.start()
	_, err = tenant.JointAllocate(tenant.Inputs{Tenants: tenants, MemKV: d.memKV, Mu0: d.mu0})
	tr.end("tenant.joint_allocate", t0, 1)
	return err
}

// ---------------------------------------------------------------------
// Simulator layers, each alone on a bare des.Sim.

// desTimers runs events self-rescheduling timer events over the given
// number of concurrent timers: one timer stays in the simulator's
// one-event register, many exercise the heap.
func desTimers(tr *tracer, span string, timers, events int) {
	var sim des.Sim
	left := events
	var tick func(any)
	tick = func(arg any) {
		if left > 0 {
			left--
			sim.AfterArg(arg.(time.Duration), tick, arg)
		}
	}
	for i := 0; i < timers; i++ {
		sim.AfterArg(time.Duration(i+1), tick, time.Duration(timers+i))
	}
	t0 := tr.start()
	sim.Run()
	tr.end(span, t0, events)
}

// arrivals runs the Poisson generator into a sink that only recycles
// the request.
func (c *corpus) arrivals(tr *tracer, seed uint64, rate float64, virtual time.Duration) {
	var sim des.Sim
	pool := &workload.Pool{}
	g := workload.NewGenerator(c.w, rate, workload.DefaultShape(), seed)
	g.Pool = pool
	g.Start(&sim, des.Time(virtual), pool.Release)
	t0 := tr.start()
	sim.Run()
	tr.end("workload.arrivals", t0, g.Count())
}

// feed starts a pooled Poisson stream into submit and returns the
// generator (for its count).
func (c *corpus) feed(sim *des.Sim, pool *workload.Pool, seed uint64, rate float64, virtual time.Duration, submit func(*workload.Request)) *workload.Generator {
	g := workload.NewGenerator(c.w, rate, workload.DefaultShape(), seed)
	g.Pool = pool
	g.Start(sim, des.Time(virtual), submit)
	return g
}

// llmAlone drives llm.Cluster directly at the given share of its
// capacity.
func (c *corpus) llmAlone(tr *tracer, seed uint64, load float64, virtual time.Duration) error {
	node, model := hw.H100Node(), llm.Qwen3_32B
	mu0, err := vlr.Capacity(node, model)
	if err != nil {
		return err
	}
	var sim des.Sim
	pool := &workload.Pool{}
	cl, err := llm.NewCluster(&sim, node, model, gpu.NewStates(node), llm.DefaultEngineConfig())
	if err != nil {
		return err
	}
	cl.SetCallbacks(nil, pool.Release)
	g := c.feed(&sim, pool, seed, load*mu0, virtual, cl.Submit)
	t0 := tr.start()
	sim.Run()
	tr.end("llm.cluster", t0, g.Count())
	return nil
}

func measureCapacity(tr *tracer) error {
	node := hw.H100Node()
	t0 := tr.start()
	_, err := llm.MeasureCapacity(node, llm.Qwen3_32B, gpu.NewStates(node), workload.DefaultShape(), llm.DefaultEngineConfig())
	tr.end("llm.measure_capacity", t0, 1)
	return err
}

// retrievalAlone drives one retrieval engine with a null forward and
// returns its mean batch size.
func (c *corpus) retrievalAlone(tr *tracer, span string, hybrid bool, d *decisionParts, seed uint64, rate float64, virtual time.Duration) float64 {
	node := hw.H100Node()
	var sim des.Sim
	pool := &workload.Pool{}
	cfg := retrieval.Config{Sim: &sim, W: c.w, Forward: pool.Release,
		CPUModel: costmodel.NewSearchModel(node.CPU, c.w.Spec)}
	var eng retrieval.Engine
	if hybrid {
		eng = retrieval.NewHybrid(cfg, d.plan, gpu.NewStates(node), costmodel.GPUScanModel{GPU: node.GPU})
	} else {
		eng = retrieval.NewCPUOnly(cfg)
	}
	g := c.feed(&sim, pool, seed, rate, virtual, eng.Submit)
	t0 := tr.start()
	sim.Run()
	tr.end(span, t0, g.Count())
	return eng.AvgBatch()
}

// fairSched pushes a three-tier stream through serve.FairScheduler
// with a terminal that releases the slot at once.
func (c *corpus) fairSched(tr *tracer, seed uint64, rate float64, virtual time.Duration) error {
	var sim des.Sim
	pool := &workload.Pool{}
	var classes []serve.TenantClass
	for _, t := range tenant.Tiers() {
		classes = append(classes, serve.TenantClass{Weight: t.Weight(), Priority: t.Priority()})
	}
	sched, err := serve.NewFairScheduler(classes, 32)
	if err != nil {
		return err
	}
	pipe, err := serve.Compose(&sim, serve.Tee(sched.Release, pool.Release), serve.Scheduled(sched))
	if err != nil {
		return err
	}
	n := 0
	g := c.feed(&sim, pool, seed, rate, virtual, func(r *workload.Request) {
		r.Tenant = n % len(classes)
		n++
		pipe.Submit(r)
	})
	t0 := tr.start()
	sim.Run()
	tr.end("serve.fairsched", t0, g.Count())
	return nil
}

// completed fabricates n finished request records with plausible stage
// timestamps, the input of the collector-path observers.
func completed(seed uint64, n int) []workload.Request {
	r := rng.New(seed)
	out := make([]workload.Request, n)
	for i := range out {
		at := des.Time(i) * des.Time(30*time.Millisecond)
		search := des.Time((50 + 150*r.Float64()) * float64(time.Millisecond))
		prefill := des.Time((80 + 200*r.Float64()) * float64(time.Millisecond))
		out[i] = workload.Request{ID: i, Shape: workload.DefaultShape(), ArrivalAt: at,
			SearchStart: at + 1, SearchDone: at + search, LLMStart: at + search + 1,
			FirstToken: at + search + prefill, Done: at + search + prefill + des.Time(4*time.Second),
			HitRate: 0.9}
	}
	return out
}

// observers feeds the records to brownout.Controller.Observe,
// adapt.Controller.Observe (unbound: observe only) and
// metrics.Summarizer.Summarize.
func (c *corpus) observers(tr *tracer, d *decisionParts, reqs []workload.Request) error {
	var sim des.Sim
	bc, err := brownout.NewController(&sim, brownout.Config{},
		[]brownout.StageBudget{{Retrieval: time.Second, Generation: time.Second}}, []float64{1})
	if err != nil {
		return err
	}
	t0 := tr.start()
	for i := range reqs {
		bc.Observe(&reqs[i])
	}
	tr.end("brownout.observe", t0, len(reqs))

	ac, err := adapt.NewController(adapt.Config{}, adapt.Inputs{Sim: &sim, W: c.w, Node: hw.H100Node(),
		SLOTotal: time.Second, SLOSearch: c.w.Spec.SLOSearch, Perf: d.perf, Mu0: d.mu0,
		MemKV: d.memKV, Expected: 0.9, Seed: 1})
	if err != nil {
		return err
	}
	t0 = tr.start()
	for i := range reqs {
		ac.Observe(&reqs[i])
	}
	tr.end("adapt.observe", t0, len(reqs))

	var sum metrics.Summarizer
	sum.Summarize(reqs, time.Second, 0) // sizes the scratch
	t0 = tr.start()
	sum.Summarize(reqs, time.Second, 0)
	tr.end("metrics.summarize", t0, len(reqs))
	return nil
}

// ---------------------------------------------------------------------
// Sharded engine layers.

// linkRoundTrips bounces one message between two shards over a pair of
// links, round trips times, on one worker. On two workers this
// message-only pattern ends early on today's code: Link.pop bumps
// delivered before the group's activity counter, so a quiescence scan
// that read the receiver's idle flag just before it woke sees balanced
// links and an unchanged counter (see README.md, "Found while building").
func linkRoundTrips(tr *tracer, trips int) error {
	g := des.NewGroup()
	a, b := g.AddShard(), g.AddShard()
	const delay = des.Time(time.Microsecond)
	var ab, ba *des.Link
	left := trips
	ab, err := des.Connect(a, b, delay, func(arg any) { ba.Send(b.Sim.Now()+delay, arg) })
	if err != nil {
		return err
	}
	ba, err = des.Connect(b, a, delay, func(arg any) {
		if left--; left > 0 {
			ab.Send(a.Sim.Now()+delay, arg)
		}
	})
	if err != nil {
		return err
	}
	a.Sim.At(0, func() { ab.Send(delay, 0) })
	t0 := tr.start()
	g.Run(des.Time(trips+1)*2*delay, 1)
	tr.end("des.shard.link_roundtrip", t0, trips)
	if left != 0 {
		return fmt.Errorf("link round trips: %d of %d never completed", left, trips)
	}
	return nil
}

// exchange routes a Poisson stream through serve.Exchange to replica
// heads that echo each request straight back.
func (c *corpus) exchange(tr *tracer, seed uint64, replicas int, rate float64, virtual time.Duration) error {
	pool := &workload.Pool{}
	x, err := serve.NewExchange(serve.RoundRobin, replicas, time.Millisecond, time.Millisecond, pool)
	if err != nil {
		return err
	}
	for i := 0; i < replicas; i++ {
		x.BindReplica(i, x.NoticeSink(i))
	}
	g := c.feed(x.FrontSim(), pool, seed, rate, virtual, x.Submit)
	t0 := tr.start()
	x.Run(des.Time(virtual+time.Second), runtime.NumCPU())
	tr.end("serve.exchange", t0, g.Count())
	return nil
}

// ---------------------------------------------------------------------
// Whole runs through the public API.

// simStats is what one public run contributes to the simulated
// metrics and the digest.
type simStats struct {
	n          int
	attainment float64
	ttftP50    time.Duration
	ttftP90    time.Duration
	rho        float64
}

func statsOf(rep *vlr.Report) simStats {
	return simStats{n: rep.Summary.N, attainment: rep.Summary.Attainment,
		ttftP50: rep.Summary.TTFT.P50, ttftP90: rep.Summary.TTFT.P90, rho: rep.Rho}
}

// tally folds the summaries of a pass's runs: a digest of every run's
// N, unserved count, attainment and TTFT/E2E quantiles (so a
// simulator-only change can be shown to leave simulated statistics
// identical), the requests counted, and how many met their SLO.
type tally struct {
	h    uint64
	reqs int
	met  float64
}

func (t *tally) add(s vlr.Summary) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|%d|%d|%x|", t.h, s.N, s.Unserved, math.Float64bits(s.Attainment))
	for _, q := range []metrics.Quantiles{s.TTFT, s.E2E} {
		fmt.Fprintf(h, "%d,%d,%d,%d,%d|", q.Mean, q.P50, q.P90, q.P95, q.P99)
	}
	t.h = h.Sum64()
	t.reqs += s.N
	t.met += s.Attainment * float64(s.N)
}

func (t *tally) digest() string { return fmt.Sprintf("%016x", t.h) }

// attainment is the share of all tallied requests that met their SLO.
func (t *tally) attainment() float64 { return t.met / float64(t.reqs) }

// servingEnv is what the serving workloads run against.
type servingEnv struct {
	orcas, wiki *corpus
	capacity    float64
	scale       float64
}

// newServingEnv warms the memoized capacity and generation-SLO caches,
// so no timed run pays for them.
func newServingEnv(orcas, wiki *corpus, scale float64) (*servingEnv, error) {
	capa, err := vlr.Capacity(vlr.H100Node(), vlr.Qwen3_32B)
	if err != nil {
		return nil, err
	}
	e := &servingEnv{orcas: orcas, wiki: wiki, capacity: capa, scale: scale}
	warm := e.serveOpts(orcas, vlr.CPUOnly, capa/2, 0)
	warm.Duration = 21 * time.Second
	_, err = vlr.Serve(warm)
	return e, err
}

// window is a run's arrival window: the API default (120 s) at scale 1.
func (e *servingEnv) window() time.Duration {
	if e.scale < 1 {
		return 30 * time.Second
	}
	return 120 * time.Second
}

func (e *servingEnv) serveOpts(c *corpus, sys vlr.System, rate float64, seed uint64) vlr.ServeOptions {
	return vlr.ServeOptions{Workload: c.w, System: sys, Rate: rate, Seed: seed,
		Duration: e.window(), Drain: e.window()}
}

// sweepRates are the swept shares of the bare LLM capacity.
func sweepRates(scale float64) []float64 {
	if scale < 1 {
		return []float64{0.8, 1.0}
	}
	return []float64{0.4, 0.55, 0.7, 0.8, 0.9, 1.0}
}

// refShare is the swept share the simulated TTFT metrics are read at.
const refShare = 0.8

// sweepPoint is one Serve call of the fig-11 pattern.
type sweepPoint struct {
	c     *corpus
	sys   vlr.System
	share float64
}

func (p sweepPoint) vlite() bool { return p.sys == vlr.VLiteRAG }

// refPoint is the sweep point the simulated TTFT metrics are read at:
// vLiteRAG on ORCAS-1K at refShare of capacity.
func (e *servingEnv) refPoint() sweepPoint { return sweepPoint{e.orcas, vlr.VLiteRAG, refShare} }

// sweepPoints lists the pattern: every system at every rate on both
// datasets, re-deciding at every point exactly as the experiments do.
func (e *servingEnv) sweepPoints() []sweepPoint {
	var out []sweepPoint
	for _, c := range []*corpus{e.orcas, e.wiki} {
		for _, sys := range vlr.AllSystems() {
			for _, share := range sweepRates(e.scale) {
				out = append(out, sweepPoint{c, sys, share})
			}
		}
	}
	return out
}

func (p sweepPoint) String() string { return fmt.Sprintf("%s on %s", p.sys, p.c.w.Spec.Name) }

// servePoint is one public Serve call, decision included. When tracing,
// a vLiteRAG point on ORCAS-1K instead runs the BuildSystem sequence
// call by call and then serves the result with Prebuilt, which must
// decide and simulate exactly what the plain call does.
func (e *servingEnv) servePoint(tr *tracer, p sweepPoint, seed uint64) (vlr.Summary, simStats, error) {
	opts := e.serveOpts(p.c, p.sys, p.share*e.capacity, seed)
	span := ""
	if tr != nil && p.vlite() && p.c == e.orcas {
		built, _, err := p.c.decideStaged(tr, seed)
		if err != nil {
			return vlr.Summary{}, simStats{}, err
		}
		opts.Prebuilt, span = built, "rag.simulate"
	}
	t0 := tr.start()
	rep, err := vlr.Serve(opts)
	if span != "" {
		tr.end(span, t0, 1)
	}
	if err != nil {
		return vlr.Summary{}, simStats{}, err
	}
	return rep.Summary, statsOf(rep), nil
}

// controlRun is one control-plane run of the sweep workload.
type controlRun struct {
	name string
	run  func(seed uint64) (vlr.Summary, error)
}

// controlRuns lists the six control-plane arms. Together they make
// "nil config costs nothing" measurable against the plain sweep.
func (e *servingEnv) controlRuns() []controlRun {
	o, w, mu := e.orcas, e.wiki, e.capacity
	win := e.window()
	return []controlRun{
		{"adaptive-drift", func(seed uint64) (vlr.Summary, error) {
			opts := e.serveOpts(o, vlr.VLiteRAG, 0.7*mu, seed)
			opts.Drift = []vlr.DriftEvent{{At: win / 3, Rotate: o.w.DefaultDriftRotation()}}
			rep, err := vlr.ServeAdaptive(vlr.AdaptiveServeOptions{ServeOptions: opts})
			if err != nil {
				return vlr.Summary{}, err
			}
			return rep.Summary, nil
		}},
		{"live-ingest", func(seed uint64) (vlr.Summary, error) {
			rep, err := vlr.ServeLive(vlr.LiveServeOptions{
				ServeOptions: e.serveOpts(o, vlr.VLiteRAG, 0.7*mu, seed),
				Ingest:       vlr.LiveIngestOptions{InsertRate: 4, DeleteRate: 1, Compaction: true}})
			if err != nil {
				return vlr.Summary{}, err
			}
			return rep.Summary, nil
		}},
		{"tenants-brownout", func(seed uint64) (vlr.Summary, error) {
			ramp := win / 4
			rep, err := vlr.ServeTenants(vlr.MultiTenantServeOptions{
				Tenants: []vlr.TenantSpec{
					{Name: "gold", Tier: vlr.GoldTier, Workload: o.w, Rate: 9,
						SLOSearch: 350 * time.Millisecond, RateSchedule: vlr.RampRate(9, 12, ramp)},
					{Name: "silver", Tier: vlr.SilverTier, Workload: w.w, Rate: 3,
						SLOSearch: 500 * time.Millisecond, RateSchedule: vlr.RampRate(3, 6, ramp)},
					{Name: "bronze", Tier: vlr.BronzeTier, Workload: o.w, Rate: 2.5,
						SLOSearch: 300 * time.Millisecond, RateSchedule: vlr.RampRate(2.5, 39, ramp)},
				},
				Duration: win, Seed: seed,
				Precision: &vlr.PrecisionOptions{},
				Overload:  &vlr.OverloadOptions{QueueCap: 32, Brownout: true},
			})
			if err != nil {
				return vlr.Summary{}, err
			}
			// The multi-tenant report has no single Summary: fold the
			// per-tenant ones into the digest through the gold tenant's
			// quantiles and the aggregate counts.
			s := rep.Tenants[0].Summary
			s.N, s.Unserved, s.Attainment = 0, 0, rep.Attainment
			for _, t := range rep.Tenants {
				s.N += t.Summary.N
				s.Unserved += t.Summary.Unserved
			}
			return s, nil
		}},
		{"cluster-precision", func(seed uint64) (vlr.Summary, error) {
			opts := e.serveOpts(o, vlr.VLiteRAG, 1.5*mu, seed)
			opts.Precision = &vlr.PrecisionOptions{}
			rep, err := vlr.ServeCluster(vlr.ClusterOptions{ServeOptions: opts, Replicas: 2, Policy: vlr.LeastLoaded})
			if err != nil {
				return vlr.Summary{}, err
			}
			return rep.Summary, nil
		}},
		{"cluster-faults", func(seed uint64) (vlr.Summary, error) {
			rep, err := vlr.ServeCluster(vlr.ClusterOptions{
				ServeOptions: e.serveOpts(o, vlr.VLiteRAG, 2*mu, seed), Replicas: 3,
				Faults: fmt.Sprintf("crash@%v:r0:10s,straggler@%v:r1:8s:x3", win/6, win*7/24),
				Resilience: &vlr.ResilienceConfig{Policy: vlr.LeastLoaded, Timeout: 20 * time.Second,
					MaxRetries: 2, Backoff: 100 * time.Millisecond,
					HedgeDelay: 2 * time.Second, HedgeAuto: true, Degrade: true},
			})
			if err != nil {
				return vlr.Summary{}, err
			}
			return rep.Summary, nil
		}},
		{"overload-single", func(seed uint64) (vlr.Summary, error) {
			opts := e.serveOpts(o, vlr.VLiteRAG, 1.1*mu, seed)
			opts.Overload = &vlr.OverloadOptions{QueueCap: 32, Brownout: true}
			rep, err := vlr.Serve(opts)
			if err != nil {
				return vlr.Summary{}, err
			}
			return rep.Summary, nil
		}},
	}
}

// fleetSpec sizes the sharded fleet: 64 replicas at 20 req/s each.
type fleetSpec struct {
	replicas int
	window   time.Duration
}

func fleetAt(scale float64) fleetSpec {
	if scale < 1 {
		return fleetSpec{replicas: 4, window: 30 * time.Second}
	}
	return fleetSpec{replicas: 64, window: 200 * time.Second}
}

// fleetRun is one sharded ServeCluster run of vLiteRAG. netDelay 0
// selects the single-timeline path instead.
func (e *servingEnv) fleetRun(f fleetSpec, policy vlr.RoutePolicy, workers int, netDelay time.Duration, seed uint64) (vlr.Summary, simStats, error) {
	opts := vlr.ServeOptions{Workload: e.orcas.w, System: vlr.VLiteRAG,
		Rate: 20 * float64(f.replicas), Duration: f.window, Drain: 60 * time.Second,
		NetDelay: netDelay, Workers: workers, Seed: seed}
	rep, err := vlr.ServeCluster(vlr.ClusterOptions{ServeOptions: opts, Replicas: f.replicas, Policy: policy})
	if err != nil {
		return vlr.Summary{}, simStats{}, err
	}
	return rep.Summary, statsOf(&rep.Report), nil
}

func fleetPolicies() []vlr.RoutePolicy { return []vlr.RoutePolicy{vlr.RoundRobin, vlr.LeastLoaded} }
