package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// tracedRun is the -trace 1 pass of one workload. It times one untraced
// pass, repeats the pass with spans on under a CPU profile (the wall
// difference is the tracing overhead), then runs the layer probes, and
// reports every per-layer metric. End-to-end metrics are not reported
// here: they are measured with tracing off.
func tracedRun(r *run, b bench) {
	if err := b.setup(r); err != nil {
		r.check(false, "setup: %v", err)
		return
	}
	plain, _ := r.passes(0, 1, b)

	r.tr = newTracer()
	prof, err := startProfile(r.scratch)
	if err != nil {
		r.check(false, "cpu profile: %v", err)
	}
	traced, _ := r.passes(r.Seconds/3, 1, b)
	shares, err := prof.stop()
	r.check(err == nil, "cpu profile: %v", err)

	if err := runProbes(r); err != nil {
		r.check(false, "layer probes: %v", err)
	}
	layerMetrics(r)
	for _, pkg := range profiledPackages {
		r.set(pkg+".cpu_share", shares[pkg], "ratio")
	}
	r.set("bench.trace_overhead_share", median(traced)/median(plain)-1, "ratio")
	hostMetrics(r)
}

// hostMetrics reports the process-wide numbers of the traced run.
func hostMetrics(r *run) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	r.set("host.peak_rss_mb", peakRSSMB(m), "MB")
	r.set("host.gc_pause_ms", float64(gc.PauseTotal)/1e6, "ms")
	r.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
}

// probe sizes at scale 1; every traced run executes all of them, so the
// per-layer metrics exist whichever workload was asked for.
const (
	probeBuildRows     = 8192
	probeQueries       = 20000
	probeLiveOps       = 10000
	probeKernelCalls   = 4000
	probeEvents        = 2_000_000
	probeVirtual       = 600 * time.Second
	probeRecords       = 200_000
	probeLinkTrips     = 100_000
	probeFleetReplicas = 16
)

// runProbes executes every layer alone, recording spans on the run's
// tracer. Each probe calls the layer's public functions directly from
// the benchmark's surface; nothing inside the module is instrumented.
func runProbes(r *run) error {
	tr := r.tr

	// Offline build: the search corpus is built once under the
	// dataset.build span; the layers below it train on a prefix.
	sc, err := buildSearchCorpus(tr, r.Scale)
	if err != nil {
		return err
	}
	rows := r.scaled(probeBuildRows, 1024)
	if err := sc.kmeansTrain(tr, rows); err != nil {
		return err
	}
	if err := sc.pqTrain(tr, rows); err != nil {
		return err
	}
	if err := sc.ivfBuild(tr, "ivf.build", rows, 0); err != nil {
		return err
	}
	if err := sc.ivfBuild(tr, "ivf.build_w1", rows, 1); err != nil {
		return err
	}
	sc.encode(tr, rows)

	// Frozen search, stage by stage, checked against SearchInto.
	qs := sc.queries(r.Seed+10, distinctQueries)
	query := func(i int) []float32 { j := i % distinctQueries; return qs[j*sc.dim : (j+1)*sc.dim] }
	staged, ref := sc.newSearcher(), sc.newSearcher()
	for i, n := 0, r.scaled(probeQueries, 200); i < n; i++ {
		res := staged.searchStaged(tr, query(i))
		if i%16 == 0 {
			r.check(slices.Equal(res, ref.search(query(i))), "staged search of probe query %d differs from SearchInto", i)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	batches := r.scaled(100, 2)
	for j := 0; j < batches; j++ {
		w := j % (distinctQueries / batchSize)
		t0 := tr.start()
		_, err := sc.searchBatch(qs[w*batchSize*sc.dim : (w+1)*batchSize*sc.dim])
		tr.end("ivf.search_batch", t0, batchSize)
		if err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	tr.count("ivf.search_batch_allocs", float64(m1.Mallocs-m0.Mallocs))
	tr.count("ivf.search_batch_queries", float64(batches*batchSize))

	raw, sum := sc.rawTruth(), 0.0
	for i := 0; i < recallQueries; i++ {
		sum += raw.recall(query(i), ref.search(query(i)))
	}
	tr.count("ivf.recall_raw", sum/recallQueries)

	// Live store: a short run of the search_live interleave.
	live := &searchLive{preset: sc, ops: r.scaled(probeLiveOps, 500)}
	if err := live.setup(r); err != nil {
		return err
	}
	runtime.ReadMemStats(&m0)
	live.pass(r, 0)
	runtime.ReadMemStats(&m1)
	tr.count("ingest.pass_allocs", float64(m1.Mallocs-m0.Mallocs))
	tr.count("ingest.pass_searches", float64(len(live.searchLat)))

	// Scan kernels called directly.
	kernels, err := sc.scanKernels(r.Seed + 11)
	if err != nil {
		return err
	}
	for _, k := range kernels {
		calls := r.scaled(probeKernelCalls, 50)
		t0 := tr.start()
		for i := 0; i < calls; i++ {
			k.call()
		}
		tr.end(k.span, t0, calls*k.n)
	}

	// Cost model against the timed kernels.
	costmodelResiduals(r, sc, qs)

	// The offline decision, call by call, and the layers beside it.
	oc, err := buildOrcas(nil, r.Scale)
	if err != nil {
		return err
	}
	env, err := newServingEnv(oc, nil, r.Scale)
	if err != nil {
		return err
	}
	reps := r.scaled(3, 1)
	var parts *decisionParts
	for i := 0; i < reps; i++ {
		if _, parts, err = oc.decideStaged(tr, r.Seed); err != nil {
			return err
		}
		if err := oc.decisionExtras(tr, parts); err != nil {
			return err
		}
	}
	vl := env.refPoint()
	_, plainStats, err := env.servePoint(nil, vl, r.Seed)
	if err != nil {
		return err
	}
	for i := 0; i < reps; i++ {
		_, st, err := env.servePoint(tr, vl, r.Seed)
		if err != nil {
			return err
		}
		r.check(st.rho == plainStats.rho, "staged decision rho %v, Serve decided %v", st.rho, plainStats.rho)
	}

	// Simulator layers alone.
	events := r.scaled(probeEvents, 20000)
	desTimers(tr, "des.schedule_pop", 1, events)
	desTimers(tr, "des.events", 1024, events)
	virtual := time.Duration(float64(probeVirtual) * math.Max(r.Scale, 0.05))
	oc.arrivals(tr, r.Seed+12, 1000, virtual)
	if err := oc.llmAlone(tr, r.Seed+13, 0.8, virtual); err != nil {
		return err
	}
	if err := measureCapacity(tr); err != nil {
		return err
	}
	avg := oc.retrievalAlone(tr, "retrieval.hybrid", true, parts, r.Seed+14, 30, virtual)
	tr.count("retrieval.avg_batch", avg)
	oc.retrievalAlone(tr, "retrieval.cpuonly", false, parts, r.Seed+14, 30, virtual)
	if err := oc.fairSched(tr, r.Seed+15, 1000, virtual); err != nil {
		return err
	}
	if err := oc.observers(tr, parts, completed(r.Seed+16, r.scaled(probeRecords, 2000))); err != nil {
		return err
	}

	// Sharded engine layers.
	if err := linkRoundTrips(tr, r.scaled(probeLinkTrips, 1000)); err != nil {
		return err
	}
	if err := oc.exchange(tr, r.Seed+17, 8, 2000, virtual); err != nil {
		return err
	}
	fleet := fleetAt(r.Scale)
	if fleet.replicas > probeFleetReplicas {
		fleet.replicas = probeFleetReplicas
	}
	for _, v := range []struct {
		span     string
		workers  int
		netDelay time.Duration
	}{
		{"rag.sharded.all", 0, netDelay},
		{"rag.sharded.w1", 1, netDelay},
		{"rag.sharded.single_timeline", 1, 0},
	} {
		t0 := tr.start()
		_, _, err := env.fleetRun(fleet, fleetPolicies()[0], v.workers, v.netDelay, r.Seed)
		tr.end(v.span, t0, 1)
		if err != nil {
			return err
		}
	}
	return nil
}

// costmodelResiduals prints the modelled-versus-measured table: the
// cost model's per-stage predictions over the profiling batch sizes
// against the timed Go kernels, after fitting one host scale factor per
// stage by least squares. The residual is the relative root-mean-square
// error left after that fit: a model-fidelity number, not a speed.
func costmodelResiduals(r *run, sc *corpus, qs []float32) {
	model := sc.modelledStages()
	meas := sc.measuredStages(qs, r.scaled(40, 2))
	stages := []struct {
		name string
		get  func(stageTimes) float64
	}{
		{"cq", func(s stageTimes) float64 { return s.cq }},
		{"lut", func(s stageTimes) float64 { return s.lut }},
		{"scan", func(s stageTimes) float64 { return s.scan }},
	}
	scaleOf := map[string]float64{}
	for _, st := range stages {
		var pm, pp, mm float64
		for i := range model {
			p, m := st.get(model[i]), st.get(meas[i])
			pm, pp, mm = pm+p*m, pp+p*p, mm+m*m
		}
		k := pm / pp
		var res float64
		for i := range model {
			d := k*st.get(model[i]) - st.get(meas[i])
			res += d * d
		}
		scaleOf[st.name] = k
		r.tr.count("costmodel."+st.name+"_residual", finite(math.Sqrt(res/mm)))
	}
	fmt.Fprintf(r.log, "\ncostmodel vs timed kernels (model scaled to this host; us per batch)\n")
	fmt.Fprintf(r.log, "  %5s  %11s %11s  %11s %11s  %11s %11s\n", "batch",
		"cq model", "cq meas", "lut model", "lut meas", "scan model", "scan meas")
	for i := range model {
		fmt.Fprintf(r.log, "  %5d  %11.1f %11.1f  %11.1f %11.1f  %11.1f %11.1f\n", model[i].batch,
			scaleOf["cq"]*model[i].cq*1e6, meas[i].cq*1e6,
			scaleOf["lut"]*model[i].lut*1e6, meas[i].lut*1e6,
			scaleOf["scan"]*model[i].scan*1e6, meas[i].scan*1e6)
	}
}

// layerMetrics turns the recorded spans and counts into the per-layer
// metrics, each under the name of the package it measures.
func layerMetrics(r *run) {
	tr := r.tr
	us, ms, ns, s := time.Microsecond, time.Millisecond, time.Nanosecond, time.Second
	perS := func(span string) float64 { return finite(1 / tr.per(span, s)) }
	ratio := func(a, b float64) float64 { return finite(a / b) }

	// -> setup_s on search_read and search_live
	r.set("dataset.build_s", tr.per("dataset.build", s), "s")
	r.set("kmeans.train_s", tr.per("kmeans.train", s), "s")
	r.set("pq.train_s", tr.per("pq.train", s), "s")
	r.set("ivf.build_s", tr.per("ivf.build", s), "s")
	r.set("pq.encode_us_per_vec", tr.per("pq.encode", us), "us")
	r.set("parallel.build_speedup", ratio(tr.sum("ivf.build_w1", s), tr.sum("ivf.build", s)), "ratio")

	// -> query_p50_us, query_p99_us on search_read
	r.set("ivf.probe_us", tr.per("ivf.probe", us), "us")
	r.set("pq.lut_build_us", tr.per("pq.lut_build", us), "us")
	r.set("pq.scan_ns_per_code", tr.per("pq.scan", ns), "ns")
	r.set("ivf.codes_scanned_per_query", ratio(tr.counts["ivf.codes_scanned"], tr.counts["ivf.staged_queries"]), "count")
	r.set("vecmath.topk_merge_us", tr.per("vecmath.topk_merge", us), "us")
	r.set("ivf.recall_raw_at_10", tr.counts["ivf.recall_raw"], "ratio")
	// -> wall_s, alloc_mb on search_read
	r.set("ivf.search_batch_us_per_query", tr.per("ivf.search_batch", us), "us")
	r.set("ivf.search_allocs_per_query", ratio(tr.counts["ivf.search_batch_allocs"], tr.counts["ivf.search_batch_queries"]), "count")

	// -> query_p50_us, alloc_mb, mutation_p50_us, wall_s on search_live
	searches := float64(tr.crossings("ingest.search"))
	r.set("pq.scan_masked_ns_per_code", tr.per("pq.scan_masked", ns), "ns")
	r.set("vecmath.pending_scan_ns_per_vec", tr.per("vecmath.pending_scan", ns), "ns")
	r.set("ingest.search_us", tr.per("ingest.search", us), "us")
	r.set("ingest.search_allocs_per_query", ratio(tr.counts["ingest.pass_allocs"], tr.counts["ingest.pass_searches"]), "count")
	r.set("ingest.pending_vectors_mean", ratio(tr.counts["ingest.pending_at_search"], searches), "count")
	r.set("ingest.insert_us", tr.per("ingest.insert", us), "us")
	r.set("ingest.delete_us", tr.per("ingest.delete", us), "us")
	r.set("ingest.reencode_ms", tr.per("ingest.reencode", ms), "ms")
	r.set("ingest.compact_ms", tr.per("ingest.compact", ms), "ms")
	// SQ8 kernels have no caller in real search; a fence, nothing more.
	r.set("pq.scan_sq_ns_per_code", tr.per("pq.scan_sq", ns), "ns")
	r.set("pq.scan_sq_masked_ns_per_code", tr.per("pq.scan_sq_masked", ns), "ns")

	// -> run_p50_ms, run_p95_ms, wall_s on serve_sweep
	decision := 0.0
	for _, span := range []string{"profiler.collect_access", "hitrate.new_estimator", "perfmodel.fit",
		"partition.latency_bounded", "splitter.build"} {
		decision += tr.per(span, ms)
	}
	r.set("profiler.collect_access_ms", tr.per("profiler.collect_access", ms), "ms")
	r.set("hitrate.new_estimator_ms", tr.per("hitrate.new_estimator", ms), "ms")
	r.set("hitrate.min_hit_rate_us", tr.per("hitrate.min_hit_rate", us), "us")
	r.set("perfmodel.fit_us", tr.per("perfmodel.fit", us), "us")
	r.set("partition.latency_bounded_ms", tr.per("partition.latency_bounded", ms), "ms")
	r.set("partition.iterations", ratio(tr.counts["partition.iterations"], tr.counts["partition.runs"]), "count")
	r.set("partition.hedra_ms", tr.per("partition.hedra", ms), "ms")
	r.set("partition.assign_precision_ms", tr.per("partition.assign_precision", ms), "ms")
	r.set("splitter.build_ms", tr.per("splitter.build", ms), "ms")
	r.set("tenant.joint_allocate_ms", tr.per("tenant.joint_allocate", ms), "ms")
	r.set("rag.decide_share", ratio(decision, decision+tr.per("rag.simulate", ms)), "ratio")

	// -> sim_req_per_s on serve_sweep and fleet_sharded
	r.set("rag.simulate_ms", tr.per("rag.simulate", ms), "ms")
	r.set("des.schedule_pop_ns", tr.per("des.schedule_pop", ns), "ns")
	r.set("des.events_per_s", perS("des.events"), "1/s")
	r.set("workload.arrivals_ns_per_req", tr.per("workload.arrivals", ns), "ns")
	r.set("llm.sim_req_per_s", perS("llm.cluster"), "1/s")
	r.set("llm.measure_capacity_ms", tr.per("llm.measure_capacity", ms), "ms")
	r.set("retrieval.hybrid_req_per_s", perS("retrieval.hybrid"), "1/s")
	r.set("retrieval.cpuonly_req_per_s", perS("retrieval.cpuonly"), "1/s")
	r.set("retrieval.avg_batch", tr.counts["retrieval.avg_batch"], "count")
	r.set("serve.fairsched_ns_per_req", tr.per("serve.fairsched", ns), "ns")
	r.set("brownout.observe_ns", tr.per("brownout.observe", ns), "ns")
	r.set("adapt.observe_ns", tr.per("adapt.observe", ns), "ns")
	r.set("metrics.summarize_ns_per_req", tr.per("metrics.summarize", ns), "ns")

	// -> sim_req_per_s, wall_s on fleet_sharded
	r.set("des.shard.link_roundtrip_ns", tr.per("des.shard.link_roundtrip", ns), "ns")
	r.set("serve.exchange_req_per_s", perS("serve.exchange"), "1/s")
	r.set("rag.sharded.speedup_all_over_w1", ratio(tr.sum("rag.sharded.w1", s), tr.sum("rag.sharded.all", s)), "ratio")
	r.set("rag.sharded.cost_vs_single_timeline", ratio(tr.sum("rag.sharded.single_timeline", s), tr.sum("rag.sharded.w1", s)), "ratio")

	// Model fidelity.
	for _, stage := range []string{"cq", "lut", "scan"} {
		r.set("costmodel."+stage+"_residual", tr.counts["costmodel."+stage+"_residual"], "ratio")
	}
}
