package vectorliterag_test

import (
	"fmt"
	"time"

	vlr "vectorliterag"
)

// Quickstart: build a workload, run the offline hybrid-index
// construction, and serve traffic on every system — the 60-second tour
// of the library.
func Example() {
	// 1. Build the ORCAS-1K workload: a real IVF-PQ index over a
	// synthetic corpus whose query skew matches the paper's Fig. 5
	// characterization.
	fmt.Println("building ORCAS-1K workload...")
	w, err := vlr.NewWorkload(vlr.Orcas1K)
	if err != nil {
		panic(err)
	}

	// 2. Offline construction (paper §IV-A): profile access skew, fit
	// the latency model, run the latency-bounded partitioning, split the
	// hot clusters into GPU shards.
	sys, err := vlr.BuildSystem(vlr.SystemOptions{Workload: w, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nhybrid index: cache %.1f%% of clusters = %.1f GB on GPUs\n",
		sys.Rho*100, float64(sys.PlanBytes)/1e9)
	fmt.Printf("planned batch %d, mean hit rate %.2f, batch-min hit rate %.2f\n",
		sys.Partition.ExpectedBatch, sys.MeanHitRate, sys.TailHitRate)
	fmt.Printf("online rebuild cycle would take %v\n\n", sys.Rebuild.Total().Round(time.Millisecond))

	// 3. Serve 30 req/s for 40s on each system and compare (Fig. 11
	// style).
	fmt.Printf("%-10s %-6s %-10s %-10s %s\n", "system", "rho", "attainment", "TTFT p90", "search")
	for _, system := range []vlr.System{vlr.CPUOnly, vlr.DedGPU, vlr.AllGPU, vlr.VLiteRAG} {
		rep, err := vlr.Serve(vlr.ServeOptions{
			Workload: w, System: system, Rate: 30, Seed: 1, Duration: 40 * time.Second,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10s %-6.3f %-10.3f %-10v %v\n",
			system, rep.Rho, rep.Summary.Attainment,
			rep.Summary.TTFT.P90.Round(time.Millisecond), rep.Summary.Breakdown.Search.Round(time.Millisecond))
	}
	// Output:
	// building ORCAS-1K workload...
	//
	// hybrid index: cache 10.2% of clusters = 5.3 GB on GPUs
	// planned batch 4, mean hit rate 0.72, batch-min hit rate 0.62
	// online rebuild cycle would take 42.173s
	//
	// system     rho    attainment TTFT p90   search
	// CPU-Only   0.000  0.118      973ms      258ms
	// DED-GPU    1.000  0.336      2.13s      45ms
	// ALL-GPU    1.000  0.992      395ms      33ms
	// vLiteRAG   0.102  0.925      473ms      65ms
}

// Capacity planning: size a deployment before buying hardware. For 4
// and 8 GPUs (with the cloud-style proportional CPU provisioning of
// paper §VI-E4 / Fig. 17), report the bare LLM capacity, the
// partitioning point VectorLiteRAG would choose, and the SLO attainment
// at a target arrival rate.
func ExampleCapacity() {
	fmt.Println("building ORCAS-2K workload...")
	w, err := vlr.NewWorkload(vlr.Orcas2K)
	if err != nil {
		panic(err)
	}
	model := vlr.Qwen3_32B
	const targetRate = 16 // req/s the service must absorb

	fmt.Printf("\ntarget: %d req/s of 1024/256-token RAG traffic, %s\n\n", targetRate, model.Name)
	fmt.Printf("%-8s %-12s %-8s %-12s %-12s %s\n",
		"GPUs", "capacity", "rho", "index GB", "attainment", "TTFT p90")
	for _, gpus := range []int{4, 8} {
		node, err := vlr.H100Node().WithGPUs(gpus)
		if err != nil {
			panic(err)
		}
		mu, err := vlr.Capacity(node, model)
		if err != nil {
			panic(err)
		}
		sys, err := vlr.BuildSystem(vlr.SystemOptions{
			Workload: w, Node: node, Model: model, Seed: 1,
		})
		if err != nil {
			panic(err)
		}
		rep, err := vlr.Serve(vlr.ServeOptions{
			Workload: w, System: vlr.VLiteRAG, Rate: targetRate,
			Node: node, Model: model, Seed: 1, Duration: 40 * time.Second,
			Prebuilt: sys, // serve the decision just built instead of re-deciding
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8d %-12.1f %-8.3f %-12.1f %-12.3f %v\n",
			gpus, mu, sys.Rho, float64(sys.PlanBytes)/1e9,
			rep.Summary.Attainment, rep.Summary.TTFT.P90.Round(time.Millisecond))
	}
	fmt.Println("\nPick the smallest node whose attainment meets your availability target.")
	// Output:
	// building ORCAS-2K workload...
	//
	// target: 16 req/s of 1024/256-token RAG traffic, Qwen3-32B
	//
	// GPUs     capacity     rho      index GB     attainment   TTFT p90
	// 4        19.1         0.172    15.6         0.725        730ms
	// 8        38.2         0.211    18.7         0.988        478ms
	//
	// Pick the smallest node whose attainment meets your availability target.
}

// SLO explorer: sweep the search-stage SLO and watch the
// latency-bounded partitioner trade GPU memory between the vector
// index and the KV cache — the paper's Table II and Fig. 16 knob,
// exposed as an operator tool.
func ExampleBuildSystem() {
	fmt.Println("building ORCAS-1K workload...")
	w, err := vlr.NewWorkload(vlr.Orcas1K)
	if err != nil {
		panic(err)
	}
	node := vlr.H100Node()
	model := vlr.Qwen3_32B

	fmt.Printf("\n%-10s %-8s %-12s %-12s %-12s %s\n",
		"SLO", "rho", "index GB", "KV GB/GPU", "batch-min η", "attain @30rps")
	for _, slo := range []time.Duration{100 * time.Millisecond, 250 * time.Millisecond} {
		sys, err := vlr.BuildSystem(vlr.SystemOptions{
			Workload: w, Node: node, Model: model, SLOSearch: slo, Seed: 1,
		})
		if err != nil {
			panic(err)
		}
		// Memory the partitioning leaves for KV on each GPU.
		perGPUShard := float64(sys.PlanBytes) / float64(node.NumGPUs)
		kvGB := (float64(model.KVBytesPerGPU(node.GPU)) - perGPUShard) / 1e9

		rep, err := vlr.Serve(vlr.ServeOptions{
			Workload: w, System: vlr.VLiteRAG, Rate: 30,
			Node: node, Model: model, SLOSearch: slo, Seed: 1, Duration: 40 * time.Second,
			Prebuilt: sys, // serve the decision just built instead of re-deciding
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10v %-8.3f %-12.2f %-12.2f %-12.3f %.3f\n",
			slo, sys.Rho, float64(sys.PlanBytes)/1e9, kvGB, sys.TailHitRate,
			rep.Summary.Attainment)
	}
	fmt.Println("\nTighter SLOs cache more clusters (less KV); looser SLOs lean on the CPU.")
	// Output:
	// building ORCAS-1K workload...
	//
	// SLO        rho      index GB     KV GB/GPU    batch-min η  attain @30rps
	// 100ms      0.188    9.05         48.47        0.872        0.823
	// 250ms      0.078    4.37         49.06        0.494        0.978
	//
	// Tighter SLOs cache more clusters (less KV); looser SLOs lean on the CPU.
}

// Drift adaptation: the paper's §IV-B3 story inside ONE serving run.
// A hybrid plan is built for the current query distribution; mid-run,
// the popular queries shift. The static plan keeps serving yesterday's
// hot set from the GPUs and pays for every miss on the CPU. The
// adaptive controller notices — windowed SLO attainment drops while
// observed hit rates diverge from the model — and rebuilds in the
// background: re-profile, re-partition (Algorithm 1), re-split, reload
// shards over PCIe (mid-reload queries divert to the CPU path), then
// swap atomically. Attainment recovers before the run ends.
func ExampleServeAdaptive() {
	fmt.Println("building ORCAS-2K workload (trains a real IVF-PQ index)...")
	w, err := vlr.NewWorkload(vlr.Orcas2K)
	if err != nil {
		panic(err)
	}

	rot := w.DefaultDriftRotation()
	opts := vlr.ServeOptions{
		Workload: w, System: vlr.VLiteRAG, Rate: 20, Seed: 1,
		SLOSearch: 150 * time.Millisecond, Duration: 4 * time.Minute,
		Drift: []vlr.DriftEvent{{At: 45 * time.Second, Rotate: rot}},
	}
	fmt.Printf("drift trace: popularity rotates by %d templates at t=45s\n\n", rot)

	// Arm 1: the static plan, decided once before the drift.
	static, err := vlr.Serve(opts)
	if err != nil {
		panic(err)
	}
	// Arm 2: the same trace with the online controller attached.
	adaptive, err := vlr.ServeAdaptive(vlr.AdaptiveServeOptions{ServeOptions: opts})
	if err != nil {
		panic(err)
	}

	// Annotation windows follow the report's own bucket width.
	bucket := 30 * time.Second
	if len(adaptive.Timeline) > 1 {
		bucket = adaptive.Timeline[1].Start - adaptive.Timeline[0].Start
	}
	// in reports whether the instant t falls inside the window starting
	// at start.
	in := func(t int64, start time.Duration) bool {
		return t > 0 && time.Duration(t) >= start && time.Duration(t) < start+bucket
	}
	fmt.Printf("%-8s  %-22s  %s\n", "", "static plan", "adaptive")
	fmt.Printf("%-8s  %-10s %-10s  %-10s %s\n", "window", "attainment", "hit rate", "attainment", "hit rate")
	for i, aw := range adaptive.Timeline {
		stAtt, stHit := 0.0, 0.0
		if i < len(static.Timeline) {
			stAtt, stHit = static.Timeline[i].Attainment, static.Timeline[i].MeanHitRate
		}
		note := ""
		for _, rb := range adaptive.Rebuilds {
			if in(rb.TriggeredAt, aw.Start) {
				note += "  <- drift detected, rebuild starts"
			}
			if in(rb.SwappedAt, aw.Start) {
				note += "  <- new plan swapped in"
			}
		}
		fmt.Printf("%-8v  %-10.3f %-10.3f  %-10.3f %.3f%s\n",
			aw.Start, stAtt, stHit, aw.Attainment, aw.MeanHitRate, note)
	}

	fmt.Println("\nbackground rebuild cycle (virtual time, served throughout):")
	for _, rb := range adaptive.Rebuilds {
		fmt.Printf("  profiling %v + algorithm %v + splitting %v + loading %v = %v\n",
			rb.Timing.Profiling.Round(time.Millisecond), rb.Timing.Algorithm.Round(time.Millisecond),
			rb.Timing.Splitting.Round(time.Millisecond), rb.Timing.Loading.Round(time.Millisecond),
			rb.Timing.Total().Round(time.Millisecond))
		fmt.Printf("  coverage rho %.3f -> %.3f; expected hit rate %.3f -> %.3f\n",
			rb.OldRho, rb.NewRho, rb.OldExpected, rb.NewExpected)
	}

	fmt.Printf("\noverall attainment: static %.3f, adaptive %.3f\n",
		static.Summary.Attainment, adaptive.Summary.Attainment)
	if len(adaptive.Rebuilds) > 0 && adaptive.Summary.Attainment > static.Summary.Attainment {
		fmt.Println("the controller detected the drift, rebuilt in the background, and recovered within the run. ✓")
	}
	// Output:
	// building ORCAS-2K workload (trains a real IVF-PQ index)...
	// drift trace: popularity rotates by 171 templates at t=45s
	//
	//           static plan             adaptive
	// window    attainment hit rate    attainment hit rate
	// 0s        0.983      0.970       0.983      0.970
	// 30s       0.882      0.800       0.882      0.800  <- drift detected, rebuild starts
	// 1m0s      0.855      0.640       0.855      0.640
	// 1m30s     0.850      0.640       0.850      0.640
	// 2m0s      0.834      0.645       0.864      0.763  <- new plan swapped in
	// 2m30s     0.836      0.639       0.938      0.972
	// 3m0s      0.807      0.642       0.903      0.975
	// 3m30s     0.807      0.649       0.886      0.961
	//
	// background rebuild cycle (virtual time, served throughout):
	//   profiling 1m18.275s + algorithm 3s + splitting 316ms + loading 156ms = 1m21.748s
	//   coverage rho 0.344 -> 0.266; expected hit rate 0.975 -> 0.974
	//
	// overall attainment: static 0.844, adaptive 0.885
	// the controller detected the drift, rebuilt in the background, and recovered within the run. ✓
}

// Live ingest: the corpus mutates while it serves. Insert and delete
// streams ride the same simulated timeline as the queries; new vectors
// are searchable from brute-force-scanned append buffers the moment the
// ingest station applies them, then fold into PQ codes on the periodic
// re-encode; deletes serve through tombstone bitmaps until a compaction
// purges them. Mid-run the popular queries also shift, and the
// compaction-enabled controller answers the drift cheaply first —
// re-encode + tombstone purge — escalating to the full Algorithm-1
// re-partition only when the trigger recurs.
func ExampleServeLive() {
	fmt.Println("building ORCAS-2K workload (trains a real IVF-PQ index)...")
	w, err := vlr.NewWorkload(vlr.Orcas2K)
	if err != nil {
		panic(err)
	}

	duration := 2 * time.Minute
	rot := w.DefaultDriftRotation()
	opts := vlr.ServeOptions{
		Workload: w, System: vlr.VLiteRAG, Rate: 20, Seed: 1,
		RateSchedule: vlr.DiurnalRate(20, 8, duration),
		SLOSearch:    150 * time.Millisecond, Duration: duration,
		Drain: 2 * time.Minute,
		Drift: []vlr.DriftEvent{{At: duration / 4, Rotate: rot}},
	}
	ingest := vlr.LiveIngestOptions{
		InsertRate: 4, DeleteRate: 1,
		ReencodeEvery: 12 * time.Second,
	}
	fmt.Printf("diurnal load around 20 req/s; 4 inserts/s + 1 deletes/s; popularity rotates by %d templates at t=%v\n\n",
		rot, duration/4)

	// Arm 1: the frozen corpus — the paper's evaluation regime.
	frozen, err := vlr.ServeLive(vlr.LiveServeOptions{ServeOptions: opts})
	if err != nil {
		panic(err)
	}
	// Arm 2: the live corpus, no controller.
	live, err := vlr.ServeLive(vlr.LiveServeOptions{ServeOptions: opts, Ingest: ingest})
	if err != nil {
		panic(err)
	}
	// Arm 3: the live corpus with the drift-compaction controller. The
	// insert stream tracks the drifted query distribution, so the
	// residual tracker carries an elevated floor; the threshold sits
	// above it and escalation comes from the repeat-trigger rule.
	ingest.Compaction = true
	ingest.EscalateResidual = 3.0
	comp, err := vlr.ServeLive(vlr.LiveServeOptions{ServeOptions: opts, Ingest: ingest})
	if err != nil {
		panic(err)
	}

	fmt.Printf("%-8s  %-10s  %-22s  %s\n", "", "frozen", "live corpus", "live + compaction")
	fmt.Printf("%-8s  %-10s  %-10s %-10s  %-10s %s\n",
		"window", "attainment", "attainment", "fresh att", "attainment", "fresh att")
	for i, cw := range comp.Timeline {
		fAtt, lAtt, lFresh := 0.0, 0.0, 0.0
		if i < len(frozen.Timeline) {
			fAtt = frozen.Timeline[i].Attainment
		}
		if i < len(live.Timeline) {
			lAtt, lFresh = live.Timeline[i].Attainment, live.Timeline[i].FreshAttainment
		}
		note := ""
		for _, rb := range comp.Rebuilds {
			if rb.Aborted != "" || rb.SwappedAt <= 0 {
				continue
			}
			if at := time.Duration(rb.SwappedAt); at >= cw.Start && at < cw.Start+30*time.Second {
				if rb.Compaction {
					note = "  <- compaction: re-encode + tombstone purge"
				} else {
					note = "  <- escalated: full re-partition swapped in"
				}
			}
		}
		fmt.Printf("%-8v  %-10.3f  %-10.3f %-10.3f  %-10.3f %.3f%s\n",
			cw.Start, fAtt, lAtt, lFresh, cw.Attainment, cw.FreshAttainment, note)
	}

	f := live.Freshness
	fmt.Printf("\nfreshness (live arm): %d inserts + %d deletes, tts p50 %v / p99 %v, %.1f%% within the %v SLO\n",
		f.Inserts, f.Deletes, f.TTS.P50.Round(time.Millisecond), f.TTS.P99.Round(time.Millisecond),
		100*f.Attainment, live.FreshnessSLO)
	fmt.Printf("drift trackers at run end: size skew %.2f, residual ratio %.2f\n",
		comp.SizeSkew, comp.ResidualRatio)
	fmt.Printf("overall attainment: frozen %.3f, live %.3f, live+compaction %.3f\n",
		frozen.Summary.Attainment, live.Summary.Attainment, comp.Summary.Attainment)
	if comp.Compactions > 0 {
		fmt.Println("the controller answered the drift with a cheap compaction before committing to a rebuild. ✓")
	}
	// Output:
	// building ORCAS-2K workload (trains a real IVF-PQ index)...
	// diurnal load around 20 req/s; 4 inserts/s + 1 deletes/s; popularity rotates by 171 templates at t=30s
	//
	//           frozen      live corpus             live + compaction
	// window    attainment  attainment fresh att   attainment fresh att
	// 0s        0.953       0.931      1.000       0.931      1.000
	// 30s       0.749       0.740      1.000       0.733      1.000  <- compaction: re-encode + tombstone purge
	// 1m0s      0.941       0.926      1.000       0.894      1.000
	// 1m30s     0.933       0.933      1.000       0.937      1.000
	//
	// freshness (live arm): 399 inserts + 99 deletes, tts p50 51ms / p99 163ms, 100.0% within the 500ms SLO
	// drift trackers at run end: size skew 1.02, residual ratio 2.21
	// overall attainment: frozen 0.858, live 0.842, live+compaction 0.833
	// the controller answered the drift with a cheap compaction before committing to a rebuild. ✓
}

// Fleet-scale parallel simulation: a replica fleet behind a
// least-loaded front end, simulated in parallel. Each replica's pipeline
// (admission → retrieval → generation) runs on its own timeline; the
// front end owns arrivals and routing; and the only coupling is
// request/completion-notice messages carrying a 1 ms modeled network
// transit — which bounds how far the replicas may run between two
// synchronizations (two transits, one round trip through the front).
//
// The demonstration is the engine's core guarantee: the run executes
// twice, once sequentially (Workers 1) and once spread over one worker
// goroutine per GOMAXPROCS (Workers 0), and the merged schedules are
// bit-identical — same per-request timestamps, same per-replica routing
// split, same aggregate summary. Worker count is a wall-clock knob,
// never a semantics knob, so parallel runs need no tolerance bands: any
// difference is a bug, and on a multi-core host the second run is
// simply faster.
func ExampleServeCluster() {
	fmt.Println("building ORCAS-1K workload (trains a real IVF-PQ index)...")
	w, err := vlr.NewWorkload(vlr.Orcas1K)
	if err != nil {
		panic(err)
	}

	const replicas = 8
	const rate = 30.0 * replicas // ~30 req/s per replica
	duration := time.Minute
	run := func(workers int) *vlr.ClusterReport {
		cr, err := vlr.ServeCluster(vlr.ClusterOptions{
			ServeOptions: vlr.ServeOptions{
				Workload: w, System: vlr.VLiteRAG, Rate: rate,
				Duration: duration, Seed: 1,
				Workers: workers, NetDelay: time.Millisecond,
			},
			Replicas: replicas,
			Policy:   vlr.LeastLoaded,
		})
		if err != nil {
			panic(err)
		}
		return cr
	}

	fmt.Printf("\nfleet: %d replicas @ %.0f req/s cluster-wide, %v of traffic, 1ms network\n",
		replicas, rate, duration)
	seq, par := run(1), run(0)

	fmt.Printf("\n%-22s %12s %12s\n", "", "Workers 1", "Workers 0")
	fmt.Printf("%-22s %12d %12d\n", "requests", seq.Summary.N, par.Summary.N)
	fmt.Printf("%-22s %12.3f %12.3f\n", "SLO attainment", seq.Summary.Attainment, par.Summary.Attainment)
	fmt.Printf("%-22s %12v %12v\n", "TTFT p90",
		seq.Summary.TTFT.P90.Round(time.Millisecond), par.Summary.TTFT.P90.Round(time.Millisecond))

	same := seq.Summary == par.Summary && len(seq.PerReplica) == len(par.PerReplica)
	for i := 0; same && i < len(seq.PerReplica); i++ {
		same = seq.PerReplica[i] == par.PerReplica[i]
	}
	if same {
		fmt.Printf("\nschedules bit-identical across worker counts (%d replica breakdowns compared)\n",
			len(seq.PerReplica))
	} else {
		fmt.Println("\nschedules diverged across worker counts — the determinism guarantee is broken")
	}

	busiest, laziest := 0, 0
	for i, r := range seq.PerReplica {
		if r.Submitted > seq.PerReplica[busiest].Submitted {
			busiest = i
		}
		if r.Submitted < seq.PerReplica[laziest].Submitted {
			laziest = i
		}
	}
	fmt.Printf("routing spread (least-loaded, 1ms-stale gauges): replica %d served %d, replica %d served %d\n",
		busiest, seq.PerReplica[busiest].Submitted, laziest, seq.PerReplica[laziest].Submitted)
	// Output:
	// building ORCAS-1K workload (trains a real IVF-PQ index)...
	//
	// fleet: 8 replicas @ 240 req/s cluster-wide, 1m0s of traffic, 1ms network
	//
	//                           Workers 1    Workers 0
	// requests                       9441         9441
	// SLO attainment                0.821        0.821
	// TTFT p90                      587ms        587ms
	//
	// schedules bit-identical across worker counts (8 replica breakdowns compared)
	// routing spread (least-loaded, 1ms-stale gauges): replica 1 served 1784, replica 7 served 1773
}

// Failure-resilient serving: the same replica crash hits the same
// 3-replica cluster twice. The first run has no failure handling — the
// front end keeps routing around the dead replica, but every request
// caught in flight on it is simply lost, and goodput carries the hole.
// The second run turns on the resilience layer: crash failover re-runs
// the stranded requests on the survivors, per-attempt timeouts with
// bounded retries catch stragglers, a hedged backup races the slowest
// tail, and graceful degradation sheds retrieval depth while the
// cluster is short a replica. Same arrivals, same storm, zero dropped
// requests — and the run prints the crash's time-to-recover: from the
// crash instant to the completion of the last failed-over request.
func ExampleServeCluster_failover() {
	fmt.Println("building ORCAS-1K workload (trains a real IVF-PQ index)...")
	w, err := vlr.NewWorkload(vlr.Orcas1K)
	if err != nil {
		panic(err)
	}

	const replicas = 3
	// 50% of one replica's capacity each: enough headroom that the two
	// survivors can absorb the crashed replica's share.
	mu, err := vlr.Capacity(vlr.H100Node(), vlr.Qwen3_32B)
	if err != nil {
		panic(err)
	}
	rate := 0.5 * mu * replicas
	storm := "crash@30s:r0:20s,straggler@55s:r1:20s:x5"

	run := func(res *vlr.ResilienceConfig) *vlr.ClusterReport {
		cr, err := vlr.ServeCluster(vlr.ClusterOptions{
			ServeOptions: vlr.ServeOptions{
				Workload: w, System: vlr.VLiteRAG, Rate: rate,
				Duration: 90 * time.Second, Seed: 1,
			},
			Replicas:   replicas,
			Policy:     vlr.LeastLoaded,
			Faults:     storm,
			Resilience: res,
		})
		if err != nil {
			panic(err)
		}
		return cr
	}

	fmt.Printf("\ncluster: %d replicas @ %.0f req/s, storm: %s\n\n", replicas, rate, storm)

	fmt.Println("run 1: no failure handling (requests on the crashed replica are lost)")
	bare := run(nil)

	fmt.Println("run 2: failover + retry + hedging + graceful degradation")
	// Timers are sized against end-to-end completion (decode dominates),
	// not TTFT: a timeout below the E2E tail turns every slow request
	// into a retry and the extra load collapses the cluster.
	resilient := run(&vlr.ResilienceConfig{
		Timeout:    30 * time.Second,
		MaxRetries: 2,
		HedgeDelay: 15 * time.Second,
		Degrade:    true,
	})

	row := func(label string, cr *vlr.ClusterReport) {
		failed, recover, goodput := 0, "-", 0.0
		if cr.Resilience != nil {
			failed, goodput = cr.Resilience.Stats.Failed, cr.Resilience.Goodput
			for _, d := range cr.Resilience.Recoveries {
				if d > 0 {
					recover = d.Round(100 * time.Millisecond).String()
				}
			}
		}
		fmt.Printf("%-12s %10.2f/s %12.3f %10d %10d %12s\n",
			label, goodput, cr.Summary.Attainment, cr.Summary.Unserved+failed,
			cr.Summary.N, recover)
	}
	fmt.Printf("\n%-12s %12s %12s %10s %10s %12s\n",
		"", "goodput", "attainment", "dropped", "requests", "recover")
	row("bare", bare)
	row("resilient", resilient)

	rs := resilient.Resilience.Stats
	fmt.Printf("\nresilience actions: %d retried (%d crash failovers), %d hedged (%d backup wins), %d ghosts drained\n",
		rs.Retried, rs.FailedOver, rs.Hedged, rs.HedgeWins, rs.Ghosts)

	bareDropped := bare.Summary.Unserved + bare.Resilience.Stats.Failed
	resDropped := resilient.Summary.Unserved + rs.Failed
	switch {
	case bareDropped > 0 && resDropped == 0:
		fmt.Printf("\nevery one of the %d requests the bare cluster dropped was served ✓\n", bareDropped)
	case resDropped < bareDropped:
		fmt.Printf("\ndropped requests: %d bare vs %d resilient\n", bareDropped, resDropped)
	default:
		fmt.Println("\nwarning: resilience did not reduce dropped requests at this load")
	}
	// Output:
	// building ORCAS-1K workload (trains a real IVF-PQ index)...
	//
	// cluster: 3 replicas @ 57 req/s, storm: crash@30s:r0:20s,straggler@55s:r1:20s:x5
	//
	// run 1: no failure handling (requests on the crashed replica are lost)
	// run 2: failover + retry + hedging + graceful degradation
	//
	//                   goodput   attainment    dropped   requests      recover
	// bare              43.64/s        0.797        115       3975            -
	// resilient         39.43/s        0.694          0       3975        12.9s
	//
	// resilience actions: 114 retried (114 crash failovers), 164 hedged (98 backup wins), 278 ghosts drained
	//
	// every one of the 115 requests the bare cluster dropped was served ✓
}

// Multi-tenant SLO-tiered serving: three tenants — a steady gold
// tenant on ORCAS-1K, a steady silver tenant on Wiki-All, and a bronze
// tenant that bursts to well past node capacity — share one node's
// HBM, CPU, and LLM. The joint allocator (Algorithm 1 generalized to N
// tenants) splits the GPU index budget by marginal
// SLO-attainment-per-byte with tier weights and per-tenant floors; the
// FairScheduler meters admission with weighted round-robin, tier-aware
// preemption ordering, and per-tenant slot caps.
//
// The experiment here is the isolation A/B: the same tenants, the same
// allocation, and the same arrival traces served twice — once through
// the FairScheduler and once through a single shared queue. Under the
// shared queue the bronze burst floods the common path and gold's TTFT
// blows through its budget; under the FairScheduler the surplus waits
// in bronze's own queue and gold holds its tier target.
func ExampleServeTenants() {
	fmt.Println("building ORCAS-1K and Wiki-All workloads (trains real IVF-PQ indexes)...")
	goldW, err := vlr.NewWorkload(vlr.Orcas1K)
	if err != nil {
		panic(err)
	}
	silverW, err := vlr.NewWorkload(vlr.WikiAll)
	if err != nil {
		panic(err)
	}

	duration := 2 * time.Minute
	tenants := []vlr.TenantSpec{
		{Name: "gold", Tier: vlr.GoldTier, Workload: goldW, Rate: 9,
			SLOSearch: 350 * time.Millisecond},
		{Name: "silver", Tier: vlr.SilverTier, Workload: silverW, Rate: 3,
			SLOSearch: 500 * time.Millisecond},
		// The noisy neighbor: 2.5 req/s baseline, bursting to 45 req/s
		// (~1.5x node capacity) for 15s of every minute.
		{Name: "bronze", Tier: vlr.BronzeTier, Workload: goldW, Rate: 2.5,
			SLOSearch:    300 * time.Millisecond,
			RateSchedule: vlr.BurstRate(2.5, 45, time.Minute, 15*time.Second)},
	}

	fmt.Printf("\nbronze bursts to 45 req/s for 15s of every minute; %v of traffic\n\n", duration)
	for _, sharedQueue := range []bool{false, true} {
		rep, err := vlr.ServeTenants(vlr.MultiTenantServeOptions{
			Tenants: tenants, Duration: duration, Seed: 1, SharedQueue: sharedQueue,
		})
		if err != nil {
			panic(err)
		}
		mode := "FairScheduler (weighted round-robin, tier preemption, per-tenant caps)"
		if sharedQueue {
			mode = "shared-queue baseline (no admission metering)"
		}
		fmt.Println(mode)
		for _, tr := range rep.Tenants {
			verdict := "MISSED"
			if tr.Met {
				verdict = "met"
			}
			fmt.Printf("  %-7s attainment %.3f vs target %.2f (%s)  TTFT p90 %-9v peak queue %d\n",
				tr.Name, tr.Summary.Attainment, tr.Target, verdict,
				tr.Summary.TTFT.P90.Round(time.Millisecond), tr.PeakQueue)
		}
		fmt.Printf("  Jain fairness %.3f; index HBM %.1f GB of %.1f GB budget\n\n",
			rep.Fairness, float64(rep.UsedBytes)/1e9, float64(rep.BudgetBytes)/1e9)
	}
	fmt.Println("the allocation is identical in both runs — only the admission policy differs.")
	// Output:
	// building ORCAS-1K and Wiki-All workloads (trains real IVF-PQ indexes)...
	//
	// bronze bursts to 45 req/s for 15s of every minute; 2m0s of traffic
	//
	// FairScheduler (weighted round-robin, tier preemption, per-tenant caps)
	//   gold    attainment 0.981 vs target 0.95 (met)  TTFT p90 594ms     peak queue 1
	//   silver  attainment 0.953 vs target 0.85 (met)  TTFT p90 761ms     peak queue 1
	//   bronze  attainment 0.000 vs target 0.50 (MISSED)  TTFT p90 1m39.297s peak queue 1034
	//   Jain fairness 0.667; index HBM 5.0 GB of 238.6 GB budget
	//
	// shared-queue baseline (no admission metering)
	//   gold    attainment 0.759 vs target 0.95 (MISSED)  TTFT p90 2.66s     peak queue 0
	//   silver  attainment 0.794 vs target 0.85 (MISSED)  TTFT p90 2.701s    peak queue 0
	//   bronze  attainment 0.153 vs target 0.50 (MISSED)  TTFT p90 4.448s    peak queue 0
	//   Jain fairness 0.789; index HBM 5.0 GB of 238.6 GB budget
	//
	// the allocation is identical in both runs — only the admission policy differs.
}

// Overload-resilient serving: three SLO-tiered tenants ramp their
// aggregate arrival rate to ~1.5x the node's capacity and hold it
// there, and the same traces are served under three overload policies:
//
//   - naive queue: unbounded per-tenant queues. The backlog grows
//     without bound — the metastable failure mode where queued work
//     keeps the node saturated long after the surge.
//   - reject only: bounded admission (queue cap per tenant) with early
//     rejection. The backlog is contained but every rejected request
//     is lost outright.
//   - brownout: bounded admission plus the closed-loop controller.
//     When a pipeline stage overruns its latency budget, dispatched
//     requests are stamped down a shedding ladder — fewer IVF probes,
//     shallower rerank/context, and finally SQ8->PQ precision
//     fallback — biased by tier so bronze sheds before gold.
//
// The point of the comparison: brownout converts overload into a
// controlled quality reduction instead of unbounded queueing or pure
// loss, holding gold at its tier target while serving more total
// within-SLO work than rejection alone.
func ExampleServeTenants_brownout() {
	fmt.Println("building ORCAS-1K and Wiki-All workloads (trains real IVF-PQ indexes)...")
	goldW, err := vlr.NewWorkload(vlr.Orcas1K)
	if err != nil {
		panic(err)
	}
	silverW, err := vlr.NewWorkload(vlr.WikiAll)
	if err != nil {
		panic(err)
	}

	duration := 90 * time.Second
	// All three tenants ramp over 30s and hold: 14.5 -> 57 req/s
	// aggregate against ~38 req/s of capacity. Bronze supplies most of
	// the surge — the flash-crowd tenant.
	ramp := 30 * time.Second
	tenants := []vlr.TenantSpec{
		{Name: "gold", Tier: vlr.GoldTier, Workload: goldW, Rate: 9,
			SLOSearch:    350 * time.Millisecond,
			RateSchedule: vlr.RampRate(9, 12, ramp)},
		{Name: "silver", Tier: vlr.SilverTier, Workload: silverW, Rate: 3,
			SLOSearch:    500 * time.Millisecond,
			RateSchedule: vlr.RampRate(3, 6, ramp)},
		{Name: "bronze", Tier: vlr.BronzeTier, Workload: goldW, Rate: 2.5,
			SLOSearch:    300 * time.Millisecond,
			RateSchedule: vlr.RampRate(2.5, 39, ramp)},
	}

	fmt.Printf("\naggregate ramps 14.5 -> 57 req/s over %v and holds; %v of traffic\n\n", ramp, duration)
	arms := []struct {
		name     string
		overload *vlr.OverloadOptions
	}{
		{"naive queue (unbounded)", nil},
		{"reject only (queue cap 32)", &vlr.OverloadOptions{QueueCap: 32}},
		{"brownout (cap 32 + shed ladder)", &vlr.OverloadOptions{QueueCap: 32, Brownout: true}},
	}
	for _, arm := range arms {
		rep, err := vlr.ServeTenants(vlr.MultiTenantServeOptions{
			Tenants: tenants, Duration: duration, Seed: 1,
			Precision: &vlr.PrecisionOptions{}, // give the ladder SQ8 recall to hand back
			Overload:  arm.overload,
		})
		if err != nil {
			panic(err)
		}
		fmt.Println(arm.name)
		for _, tr := range rep.Tenants {
			verdict := "MISSED"
			if tr.Met {
				verdict = "met"
			}
			fmt.Printf("  %-7s attainment %.3f vs target %.2f (%s)  TTFT p90 %-9v peak queue %-5d rejected %d\n",
				tr.Name, tr.Summary.Attainment, tr.Target, verdict,
				tr.Summary.TTFT.P90.Round(time.Millisecond), tr.PeakQueue, tr.Rejected)
		}
		fmt.Printf("  aggregate attainment %.3f  recall gain +%.2f pts\n",
			rep.Attainment, 100*rep.RecallGain)
		if ov := rep.Overload; ov != nil && ov.Brownout {
			fmt.Printf("  controller: max ladder level %d, %.0f%% of the run browned out, mean probe shed %.2f\n",
				ov.MaxLevel, 100*ov.BrownoutShare, ov.MeanShed)
		}
		fmt.Println()
	}
	fmt.Println("same tenants, same allocation, same arrivals — only the overload policy differs.")
	// Output:
	// building ORCAS-1K and Wiki-All workloads (trains real IVF-PQ indexes)...
	//
	// aggregate ramps 14.5 -> 57 req/s over 30s and holds; 1m30s of traffic
	//
	// naive queue (unbounded)
	//   gold    attainment 0.913 vs target 0.95 (MISSED)  TTFT p90 655ms     peak queue 1     rejected 0
	//   silver  attainment 0.835 vs target 0.85 (MISSED)  TTFT p90 841ms     peak queue 1     rejected 0
	//   bronze  attainment 0.000 vs target 0.50 (MISSED)  TTFT p90 2m14.642s peak queue 2572  rejected 0
	//   aggregate attainment 0.280  recall gain +1.66 pts
	//
	// reject only (queue cap 32)
	//   gold    attainment 0.915 vs target 0.95 (MISSED)  TTFT p90 647ms     peak queue 1     rejected 0
	//   silver  attainment 0.832 vs target 0.85 (MISSED)  TTFT p90 848ms     peak queue 2     rejected 0
	//   bronze  attainment 0.000 vs target 0.50 (MISSED)  TTFT p90 7.516s    peak queue 32    rejected 2540
	//   aggregate attainment 0.281  recall gain +1.37 pts
	//
	// brownout (cap 32 + shed ladder)
	//   gold    attainment 1.000 vs target 0.95 (met)  TTFT p90 442ms     peak queue 1     rejected 0
	//   silver  attainment 1.000 vs target 0.85 (met)  TTFT p90 533ms     peak queue 1     rejected 0
	//   bronze  attainment 0.000 vs target 0.50 (MISSED)  TTFT p90 4.111s    peak queue 32    rejected 2205
	//   aggregate attainment 0.316  recall gain +0.30 pts
	//   controller: max ladder level 5, 96% of the run browned out, mean probe shed 0.38
	//
	// same tenants, same allocation, same arrivals — only the overload policy differs.
}
