package vectorliterag_test

// One sub-benchmark per registered table and figure of the paper's
// evaluation (the registry in internal/experiments): each regenerates
// the corresponding artifact on the simulated substrate in quick mode.
// Run the full-scale versions with `go run ./cmd/vliterag run -exp <id>`.
//
// Micro-benchmarks for the hot algorithmic paths (IVF search, live-store
// search, LUT scan, first-order-statistic integral, Algorithm 1 and the
// joint allocator on a cold estimator, each retrieval engine
// configuration, discrete-event throughput) follow at the bottom.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	vlr "vectorliterag"

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
	"vectorliterag/internal/partition"
	"vectorliterag/internal/perfmodel"
	"vectorliterag/internal/profiler"
	"vectorliterag/internal/retrieval"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/splitter"
	"vectorliterag/internal/stats"
	"vectorliterag/internal/tenant"
	"vectorliterag/internal/vecmath"
	"vectorliterag/internal/workload"
)

// BenchmarkExperiments regenerates every registered table and figure
// (vlr.Experiments) at quick scale, one sub-benchmark per id:
// `-bench 'Experiments/fig11'` runs Fig. 11's SLO attainment and
// E2E latency grid alone.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range vlr.Experiments() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vlr.RunExperiment(id, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Offline build ----------------------------------------------------

// BenchmarkBuildSystemOffline times the whole offline build path —
// synthetic corpus, k-means coarse quantizer, per-subspace PQ
// codebooks and codes, template probing — sequentially (workers=1) vs on
// the full worker pool (workers=NumCPU). The parallel run is
// bit-identical to the sequential one (see the parallel_test.go files);
// on a ≥4-core machine it completes the build ≥2× faster, since the
// distance-dominated loops carry almost all of the work.
func BenchmarkBuildSystemOffline(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gc := dataset.DefaultGen()
				gc.Workers = workers
				if _, err := dataset.Build(dataset.Orcas1K, gc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildSystemPlan times the public BuildSystem pipeline
// (profile → estimate → model → partition → split) on a prebuilt
// workload — the "algorithm" half of an online index rebuild.
func BenchmarkBuildSystemPlan(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vlr.BuildSystem(vlr.SystemOptions{Workload: w, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks -------------------------------------------------

var benchW *dataset.Workload

func benchWorkload(b *testing.B) *dataset.Workload {
	b.Helper()
	if benchW == nil {
		w, err := dataset.Build(dataset.Orcas1K, dataset.GenConfig{
			NCenters: 64, PerCenter: 128, Dim: 32,
			PhysNList: 64, PhysNProbe: 8, Templates: 256, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchW = w
	}
	return benchW
}

// searchCases are the (nprobe, k) settings the search benchmarks time:
// a wide top-k on the bench index's 8 probes, and the benchmark
// command's own search_read settings.
var searchCases = []struct{ nprobe, k int }{{8, 25}, {16, 10}}

// benchQueries returns one query per template of the bench workload.
// A search skips the probed lists that cannot reach its top-k, and how
// many it skips depends on the query, so the search benchmarks cycle
// over these rather than time one query's pruning.
func benchQueries(w *dataset.Workload, r *rng.Rand) [][]float32 {
	qs := make([][]float32, w.Templates())
	for i := range qs {
		qs[i] = w.QueryVector(dataset.QueryID(i), r)
	}
	return qs
}

// BenchmarkIVFSearch measures a full three-stage IVF-PQ search.
func BenchmarkIVFSearch(b *testing.B) {
	w := benchWorkload(b)
	qs := benchQueries(w, rng.New(1))
	for _, sc := range searchCases {
		b.Run(fmt.Sprintf("nprobe=%d,k=%d", sc.nprobe, sc.k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = w.Index.Search(qs[i%len(qs)], sc.nprobe, sc.k)
			}
		})
	}
}

var denseW *dataset.Workload

// denseWorkload is one Gaussian blob cut into 64 lists. Each list's
// codes use most of the codewords of every PQ subspace, so its codeword
// mask marks most row minima and its bound seldom reaches the k-th
// best: the corpus on which list skipping prunes almost nothing and
// must cost almost nothing.
func denseWorkload(b *testing.B) *dataset.Workload {
	b.Helper()
	if denseW == nil {
		w, err := dataset.Build(dataset.Orcas1K, dataset.GenConfig{
			NCenters: 1, PerCenter: 8192, Dim: 32,
			PhysNList: 64, PhysNProbe: 8, Templates: 256, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		denseW = w
	}
	return denseW
}

// BenchmarkIVFSearchScratch measures the allocation-free scratch path:
// the same three-stage search with all buffers reused across calls, on
// the bench workload and (dense/) on denseWorkload.
func BenchmarkIVFSearchScratch(b *testing.B) {
	for _, corpus := range []struct {
		prefix string
		w      *dataset.Workload
	}{{"", benchWorkload(b)}, {"dense/", denseWorkload(b)}} {
		w := corpus.w
		w.Index.Quantizer() // trains the PQ codebooks outside the timed loops
		qs := benchQueries(w, rng.New(1))
		s := w.Index.NewSearchScratch()
		for _, sc := range searchCases {
			b.Run(fmt.Sprintf("%snprobe=%d,k=%d", corpus.prefix, sc.nprobe, sc.k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = w.Index.SearchInto(s, qs[i%len(qs)], sc.nprobe, sc.k)
				}
			})
		}
	}
}

// BenchmarkIVFSearchBatch measures batched search throughput per query
// (64-query batches over the worker pool).
func BenchmarkIVFSearchBatch(b *testing.B) {
	w := benchWorkload(b)
	r := rng.New(1)
	const batch = 64
	queries := make([]float32, 0, batch*w.Gen.Dim)
	for i := 0; i < batch; i++ {
		queries = append(queries, w.QueryVector(dataset.QueryID(i%w.Templates()), r)...)
	}
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		if _, err := w.Index.SearchBatch(queries, 8, 25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIVFProbe measures coarse quantization alone.
func BenchmarkIVFProbe(b *testing.B) {
	w := benchWorkload(b)
	r := rng.New(2)
	q := w.QueryVector(1, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Index.Probe(q, 8)
	}
}

// BenchmarkLiveStoreSearch measures the live three-stage search through
// ingest.Store on a warm store holding encoded appends, pending raw
// vectors and tombstones, so the masked base scan, the masked append
// scan and the brute-force pending scan all run. A warm store returns
// its result in a slice it reuses, so the search allocates nothing.
func BenchmarkLiveStoreSearch(b *testing.B) {
	w := benchWorkload(b)
	r := rng.New(4)
	s := ingest.NewStore(w)
	insert := func(n int) {
		for i := 0; i < n; i++ {
			s.Insert(&workload.Mutation{Kind: workload.MutInsert, Vec: w.InsertVector(r)})
		}
	}
	insert(256)
	s.Reencode()
	insert(256)
	for i := 0; i < 64; i++ {
		s.Delete(&workload.Mutation{Kind: workload.MutDelete, Pick: r.Uint64()})
	}
	qs := benchQueries(w, r)
	for _, sc := range searchCases {
		b.Run(fmt.Sprintf("nprobe=%d,k=%d", sc.nprobe, sc.k), func(b *testing.B) {
			s.Search(qs[0], sc.nprobe, sc.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Search(qs[i%len(qs)], sc.nprobe, sc.k)
			}
		})
	}
}

// BenchmarkDotRows measures the blocked one-vector-against-many-rows
// kernel at the three shapes the index runs it at: coarse quantization
// (128 centroids x 64 dims), one PQ subspace of a 64-d vector (64
// codewords x 8 dims), and coarse quantization at dim 32.
func BenchmarkDotRows(b *testing.B) {
	for _, sh := range []struct{ rows, dim int }{{128, 64}, {64, 8}, {128, 32}} {
		b.Run(fmt.Sprintf("%dx%d", sh.rows, sh.dim), func(b *testing.B) {
			q, rows := gaussianMatrix(1, sh.dim), gaussianMatrix(sh.rows, sh.dim)
			out := make([]float32, sh.rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vecmath.DotRows(q, rows, sh.dim, out)
			}
		})
	}
}

// BenchmarkKMeansAssign measures one k-means assignment step — every
// vector's norm-decomposed argmin over the centroids, the loop k-means
// training, PQ encoding and insert routing all spend their time in —
// at the coarse-quantizer shape and at the PQ-subspace shape. One
// iteration assigns 1 024 vectors.
func BenchmarkKMeansAssign(b *testing.B) {
	const n = 1024
	for _, sh := range []struct{ k, dim int }{{128, 64}, {64, 8}} {
		b.Run(fmt.Sprintf("k%d_dim%d", sh.k, sh.dim), func(b *testing.B) {
			data, cents := gaussianMatrix(n, sh.dim), gaussianMatrix(sh.k, sh.dim)
			norms := vecmath.RowNorms(cents, sh.dim, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for v := 0; v < n; v++ {
					benchSink, _, _ = vecmath.ArgminNormScore(data[v*sh.dim:(v+1)*sh.dim], cents, norms, sh.dim)
				}
			}
		})
	}
}

// BenchmarkKMeansTrain measures one whole k-means training — k-means++
// seeding and eight Lloyd passes, both pruned by the triangle bound — at
// the two shapes the index build runs: the coarse quantizer (32 768
// vectors of the search corpus, 64-d, K = 128, on the worker pool) and
// one PQ subspace of it (8-d, K = 64, one worker, as pq.Train runs its
// subspaces side by side).
func BenchmarkKMeansTrain(b *testing.B) {
	w, err := dataset.Build(dataset.Orcas1K, dataset.GenConfig{NCenters: 128, PerCenter: 256, Dim: 64,
		PhysNList: 128, PhysNProbe: 16, Templates: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sub := make([]float32, 0, len(w.Data)/8)
	for i := 0; i < len(w.Data); i += 64 {
		sub = append(sub, w.Data[i:i+8]...)
	}
	for _, c := range []struct {
		name string
		data []float32
		cfg  kmeans.Config
	}{
		{"k128_dim64", w.Data, kmeans.Config{K: 128, Dim: 64, MaxIters: 8, Seed: 12}},
		{"k64_dim8", sub, kmeans.Config{K: 64, Dim: 8, MaxIters: 8, Seed: 13, Workers: 1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kmeans.Train(c.data, c.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDatasetBuild measures dataset.Build — corpus synthesis,
// coarse and PQ training (which yields the codes), query profiling: the set-up every
// benchmark workload, experiment and example pays — on the search
// workloads' corpus (32 768 x 64-d, 128 lists) and on DefaultGen.
func BenchmarkDatasetBuild(b *testing.B) {
	for _, c := range []struct {
		name string
		gen  dataset.GenConfig
	}{
		{"search_corpus", dataset.GenConfig{NCenters: 128, PerCenter: 256, Dim: 64,
			PhysNList: 128, PhysNProbe: 16, Templates: 1024, Seed: 1}},
		{"default_gen", dataset.DefaultGen()},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dataset.Build(dataset.Orcas1K, c.gen); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSink keeps a measured call's result live.
var benchSink int

// gaussianMatrix returns a fixed n x dim row-major Gaussian matrix.
func gaussianMatrix(n, dim int) []float32 {
	r := rng.New(uint64(n*1000 + dim))
	m := make([]float32, n*dim)
	for i := range m {
		m[i] = float32(r.NormFloat64())
	}
	return m
}

// BenchmarkLUTScan measures the ADC scan of one cluster.
func BenchmarkLUTScan(b *testing.B) {
	w := benchWorkload(b)
	r := rng.New(3)
	q := w.QueryVector(2, r)
	lut := w.Index.BuildLUT(q)
	probes := w.Probes(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top := vecmath.NewTopK(25)
		w.Index.ScanCluster(lut, probes[0], top)
	}
}

// BenchmarkExpectedMin measures the Eq. 2 first-order-statistic
// integral that the partitioning algorithm evaluates repeatedly, on a
// warm grid spread over every core, as the hit-rate estimator runs it.
func BenchmarkExpectedMin(b *testing.B) {
	beta := stats.Beta{Alpha: 4.2, Beta: 1.7}
	g := stats.NewMinGrid(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ExpectedMin(beta, 8)
	}
}

// decisionInputs is what Algorithm 1 and the joint allocator consume
// for a Table-I workload (default ORCAS-1K) on the default node,
// everything but the hit-rate estimator: the decision benchmarks build a
// cold one per iteration, outside the timer, because the estimator
// remembers every Eq. 2 point it has integrated or bounded.
type decisionInputs struct {
	prof   *profiler.AccessProfile
	perf   *perfmodel.Model
	mu0    float64
	memKV  int64
	prefix []int64
}

var benchD = map[string]*decisionInputs{}

var benchOrcasW *dataset.Workload

// benchOrcas is default ORCAS-1K, the corpus the serving benchmark and
// the CLI run on.
func benchOrcas(b *testing.B) *dataset.Workload {
	b.Helper()
	if benchOrcasW == nil {
		w, err := dataset.Build(dataset.Orcas1K, dataset.DefaultGen())
		if err != nil {
			b.Fatal(err)
		}
		benchOrcasW = w
	}
	return benchOrcasW
}

func benchDecision(b *testing.B) *decisionInputs { return benchDecisionFor(b, dataset.Orcas1K) }

// benchDecisionFor is benchDecision's inputs for any Table-I workload.
func benchDecisionFor(b *testing.B, spec dataset.Spec) *decisionInputs {
	b.Helper()
	if d := benchD[spec.Name]; d != nil {
		return d
	}
	node, model := hw.H100Node(), llm.Qwen3_32B
	w := benchOrcas(b)
	var err error
	if spec.Name != dataset.Orcas1K.Name {
		if w, err = dataset.Build(spec, dataset.DefaultGen()); err != nil {
			b.Fatal(err)
		}
	}
	d := &decisionInputs{}
	if d.prof, err = profiler.CollectAccess(w, 4000, 2); err != nil {
		b.Fatal(err)
	}
	d.perf, err = perfmodel.Fit(profiler.ProfileLatency(costmodel.NewSearchModel(node.CPU, w.Spec), profiler.DefaultBatches()))
	if err != nil {
		b.Fatal(err)
	}
	if d.mu0, err = vlr.Capacity(node, model); err != nil {
		b.Fatal(err)
	}
	d.memKV = model.NodeKVBytes(node)
	d.prefix = splitter.PrefixBytes(d.prof)
	benchD[spec.Name] = d
	return d
}

func (d *decisionInputs) coldEstimator(b *testing.B) *hitrate.Estimator {
	b.Helper()
	b.StopTimer()
	est, err := hitrate.NewEstimator(d.prof)
	if err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
	return est
}

// BenchmarkLatencyBounded measures one cold run of Algorithm 1 on
// default ORCAS-1K and on Wiki-All, whose serving calls make the
// slowest decisions.
func BenchmarkLatencyBounded(b *testing.B) {
	for _, spec := range []dataset.Spec{dataset.Orcas1K, dataset.WikiAll} {
		b.Run(spec.Name, func(b *testing.B) {
			d := benchDecisionFor(b, spec)
			bytesAt := splitter.IndexBytesAt(d.prof)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := partition.LatencyBounded(partition.Inputs{
					SLOSearch: spec.SLOSearch, Perf: d.perf, Est: d.coldEstimator(b),
					MemKV: d.memKV, Mu0: d.mu0, IndexBytesAt: bytesAt,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJointAllocate measures one cold three-tenant joint
// allocation, the tenants sharing one estimator or holding one each.
func BenchmarkJointAllocate(b *testing.B) {
	d := benchDecision(b)
	for _, sharedEst := range []bool{true, false} {
		b.Run(fmt.Sprintf("shared=%v", sharedEst), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var tenants []tenant.Input
				est := d.coldEstimator(b)
				for j, tier := range tenant.Tiers() {
					if !sharedEst && j > 0 {
						est = d.coldEstimator(b)
					}
					tenants = append(tenants, tenant.Input{
						Name: string(tier), Tier: tier, Rate: float64(4 * (j + 1)),
						SLOSearch: dataset.Orcas1K.SLOSearch, Perf: d.perf, Est: est, PrefixBytes: d.prefix,
					})
				}
				if _, err := tenant.JointAllocate(tenant.Inputs{Tenants: tenants, MemKV: d.memKV, Mu0: d.mu0}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchFleet times one 16-replica ServeCluster run with a modeled
// network (320 req/s over a short window, every core) under the given
// routing policy. The policy picks how the fleet's lanes run: each alone
// to the deadline under round-robin, in rounds one minimum decode step
// and two network delays wide under least-loaded.
func benchFleet(b *testing.B, policy vlr.RoutePolicy) {
	w := benchWorkload(b)
	opts := vlr.ClusterOptions{
		ServeOptions: vlr.ServeOptions{Workload: w, Rate: 320, Duration: 40 * time.Second,
			Drain: 30 * time.Second, NetDelay: time.Millisecond, Seed: 1},
		Replicas: 16, Policy: policy,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := vlr.ServeCluster(opts)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += rep.Summary.N
	}
}

// BenchmarkSummarize measures summaries of 230 000 records, the size of
// a 64-replica fleet's global summary: the means in collection order
// and four percentiles of each latency, streamed. "all" is one warm
// Summarizer pass over every record; "ids-stride64" one replica's share
// of them (every 64th record, through SummarizeIDs); "cold" the whole
// pass on a new Summarizer, whose B/op is the scratch one summary
// allocates.
func BenchmarkSummarize(b *testing.B) {
	r := rng.New(1)
	reqs := make([]workload.Request, 230_000)
	var ids []int32
	for i := range reqs {
		ms := func(mean float64) des.Time { return des.Time(r.ExpFloat64() * mean * 1e6) }
		q := &reqs[i]
		q.ArrivalAt = des.Time(i) * des.Time(time.Millisecond)
		q.SearchStart = q.ArrivalAt + ms(20)
		q.SearchDone = q.SearchStart + ms(60)
		q.LLMStart = q.SearchDone + ms(5)
		q.FirstToken = q.LLMStart + ms(150)
		q.Done = q.FirstToken + ms(4000)
		if i%64 == 0 {
			ids = append(ids, int32(i))
		}
	}
	b.Run("all", func(b *testing.B) {
		var a metrics.Summarizer
		a.Summarize(reqs, time.Second, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += a.Summarize(reqs, time.Second, 0).N
		}
	})
	b.Run("ids-stride64", func(b *testing.B) {
		var a metrics.Summarizer
		a.SummarizeIDs(reqs, ids, time.Second, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += a.SummarizeIDs(reqs, ids, time.Second, 0).N
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += new(metrics.Summarizer).Summarize(reqs, time.Second, 0).N
		}
	})
}

// BenchmarkResilientStorm measures the serving benchmark's
// cluster-faults run: vLiteRAG on default ORCAS-1K, three replicas at
// twice the bare LLM capacity behind the resilient router (least-loaded,
// 20 s timeouts, two retries, auto hedging, degradation), with replica
// 0 crashing for 10 s and replica 1 straggling 3x for 8 s.
func BenchmarkResilientStorm(b *testing.B) {
	w := benchOrcas(b)
	mu, err := vlr.Capacity(vlr.H100Node(), vlr.Qwen3_32B)
	if err != nil {
		b.Fatal(err)
	}
	const win = 120 * time.Second
	opts := vlr.ClusterOptions{
		ServeOptions: vlr.ServeOptions{Workload: w, System: vlr.VLiteRAG, Rate: 2 * mu,
			Duration: win, Drain: win, Seed: 1},
		Replicas: 3,
		Faults:   fmt.Sprintf("crash@%v:r0:10s,straggler@%v:r1:8s:x3", win/6, win*7/24),
		Resilience: &vlr.ResilienceConfig{Policy: vlr.LeastLoaded, Timeout: 20 * time.Second,
			MaxRetries: 2, Backoff: 100 * time.Millisecond,
			HedgeDelay: 2 * time.Second, HedgeAuto: true, Degrade: true},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := vlr.ServeCluster(opts)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += rep.Summary.N
	}
}

// BenchmarkServe measures one single-node Serve call at the scale of a
// serving-sweep point: vLiteRAG on default ORCAS-1K at 0.8 of the bare
// LLM capacity, a 120 s arrival window and a 120 s drain, decision
// included. Its bytes and allocations per call are the single-node
// path's footprint.
func BenchmarkServe(b *testing.B) {
	w := benchOrcas(b)
	mu, err := vlr.Capacity(vlr.H100Node(), vlr.Qwen3_32B)
	if err != nil {
		b.Fatal(err)
	}
	opts := vlr.ServeOptions{Workload: w, System: vlr.VLiteRAG, Rate: 0.8 * mu,
		Duration: 120 * time.Second, Drain: 120 * time.Second, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := vlr.Serve(opts)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += rep.Summary.N
	}
}

// BenchmarkFleetRoundRobin measures the fleet with its lanes run alone.
func BenchmarkFleetRoundRobin(b *testing.B) { benchFleet(b, vlr.RoundRobin) }

// BenchmarkFleetLeastLoaded measures the fleet with its lanes in rounds.
func BenchmarkFleetLeastLoaded(b *testing.B) { benchFleet(b, vlr.LeastLoaded) }

// BenchmarkRetrievalEngines drives each retrieval engine configuration
// alone — a null forward, no LLM stage — on one fixed Poisson stream of
// 2 000 requests at 200 req/s over the bench corpus, and reports
// simulated requests per host second. Every configuration but cpu runs
// the one Hybrid batch pipeline: single-tenant, precision-refined,
// three tenants (priorities 2/0/1 over plans at 30/10/50 % coverage),
// and the unpruned GPU baselines.
func BenchmarkRetrievalEngines(b *testing.B) {
	w, node := benchWorkload(b), hw.H100Node()
	prof, err := profiler.CollectAccess(w, 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	plan := func(coverage float64) *splitter.Plan {
		p, err := splitter.Build(prof, coverage, node.NumGPUs)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	refined := plan(0.3)
	deltas, err := profiler.SQRecallDeltas(prof)
	if err != nil {
		b.Fatal(err)
	}
	prec, err := partition.AssignPrecision(partition.PrecisionInputs{
		Prof: prof, Plan: refined, RecallDeltas: deltas,
		SQRatio:       splitter.SQRatio(w.Spec),
		SQBudgetBytes: refined.TotalBytes() / 2, NVMeColdShare: 0.2,
	})
	if err != nil {
		b.Fatal(err)
	}
	refined.AttachPrecision(prec)
	cpuModel, gm := costmodel.NewSearchModel(node.CPU, w.Spec), costmodel.GPUScanModel{GPU: node.GPU}
	slots := []retrieval.TenantSlot{
		{W: w, Plan: plan(0.3), CPUModel: cpuModel, Priority: 2},
		{W: w, Plan: plan(0.1), CPUModel: cpuModel, Priority: 0},
		{W: w, Plan: plan(0.5), CPUModel: cpuModel, Priority: 1},
	}

	// The stream: Poisson gaps and popularity-sampled queries, tenants
	// round-robin (single-tenant engines clamp the stamp to tenant 0).
	r := rng.New(11)
	reqs := make([]*workload.Request, 2000)
	var at des.Time
	for i := range reqs {
		at += des.Time(r.ExpFloat64() / 200 * 1e9)
		reqs[i] = &workload.Request{ID: i, Query: w.Sample(r), Tenant: i % len(slots), ArrivalAt: at}
	}

	hybridOn := func(p *splitter.Plan) func(retrieval.Config, []*gpu.State) (retrieval.Engine, error) {
		return func(cfg retrieval.Config, gpus []*gpu.State) (retrieval.Engine, error) {
			return retrieval.NewHybrid(cfg, p, gpus, gm), nil
		}
	}
	sharded := func(p *splitter.Plan) func(retrieval.Config, []*gpu.State) (retrieval.Engine, error) {
		return func(cfg retrieval.Config, gpus []*gpu.State) (retrieval.Engine, error) {
			return retrieval.NewSharded(cfg, p, gpus, gm), nil
		}
	}
	for _, c := range []struct {
		name  string
		build func(retrieval.Config, []*gpu.State) (retrieval.Engine, error)
	}{
		{"cpu", func(cfg retrieval.Config, _ []*gpu.State) (retrieval.Engine, error) {
			return retrieval.NewCPUOnly(cfg), nil
		}},
		{"hybrid", hybridOn(plan(0.3))},
		{"hybrid-precision", hybridOn(refined)},
		{"multitenant-3", func(cfg retrieval.Config, gpus []*gpu.State) (retrieval.Engine, error) {
			return retrieval.NewMultiTenant(cfg, slots, gpus, gm)
		}},
		{"allgpu", sharded(plan(1))},
		{"hedra", sharded(plan(0.3))},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var sim des.Sim
				cfg := retrieval.Config{Sim: &sim, W: w, CPUModel: cpuModel, NVMe: node.NVMe,
					Forward: func(*workload.Request) {}}
				e, err := c.build(cfg, gpu.NewStates(node))
				if err != nil {
					b.Fatal(err)
				}
				submit := func(a any) { e.Submit(a.(*workload.Request)) }
				for _, req := range reqs {
					sim.AtArg(req.ArrivalAt, submit, req)
				}
				sim.Run()
			}
			b.ReportMetric(float64(len(reqs)*b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkBruteForceTopK measures the exact-search ground truth used
// for recall validation.
func BenchmarkBruteForceTopK(b *testing.B) {
	w := benchWorkload(b)
	r := rng.New(4)
	q := w.QueryVector(3, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vecmath.BruteForceTopK(q, w.Data, w.Gen.Dim, 25)
	}
}

// BenchmarkDESEventLoop measures raw simulator event throughput. In
// "chain" one event reschedules itself; in "pendingN" N interleaved
// chains keep about N events pending: eight is the serving pipeline's
// depth, which the sorted front holds whole, and sixteen its capacity.
// "burst" is sixteen chains behind one 48-event burst, which overflows
// the front into the heap; once it drains, the chains run from the
// front again.
func BenchmarkDESEventLoop(b *testing.B) {
	b.Run("chain", func(b *testing.B) { benchDESChains(b, 1, 0) })
	b.Run("pending8", func(b *testing.B) { benchDESChains(b, 8, 0) })
	b.Run("pending16", func(b *testing.B) { benchDESChains(b, 16, 0) })
	b.Run("burst", func(b *testing.B) { benchDESChains(b, 16, 48) })
}

// benchDESChains fires 1000 events per iteration from k self-
// rescheduling chains with distinct periods, plus burst events that
// share one instant just after the chains start.
func benchDESChains(b *testing.B, k, burst int) {
	for i := 0; i < b.N; i++ {
		var sim des.Sim
		n := 0
		for range burst {
			sim.At(des.Time(k), func() {})
		}
		for c := 0; c < k; c++ {
			step := time.Duration(1000 + 37*c)
			var tick func()
			tick = func() {
				n++
				if n < 1000 {
					sim.After(step, tick)
				}
			}
			sim.At(des.Time(c), tick)
		}
		sim.Run()
	}
}

// BenchmarkHotClusters measures the profiler's hot-order sort.
func BenchmarkHotClusters(b *testing.B) {
	w := benchWorkload(b)
	r := rng.New(5)
	counts := w.AccessCounts(w.SampleMany(r, 5000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ivf.HotClusters(counts)
	}
}

// BenchmarkWorkloadSample measures query sampling (the serving loop's
// per-request cost).
func BenchmarkWorkloadSample(b *testing.B) {
	w := benchWorkload(b)
	r := rng.New(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Sample(r)
	}
}
