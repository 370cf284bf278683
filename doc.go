// Package vectorliterag is a reproduction of "VectorLiteRAG:
// Latency-Aware and Fine-Grained Resource Partitioning for Efficient
// RAG" (Kim & Mahajan, HPCA 2026).
//
// VectorLiteRAG serves Retrieval-Augmented Generation by co-locating
// IVF vector search with LLM inference on the same GPUs. Its core
// contribution is a latency-bounded partitioning of the vector index
// between CPU and GPU tiers:
//
//   - an access profiler characterizes the heavy skew of query→cluster
//     traffic (a small set of hot clusters carries most distance
//     computations);
//   - a Beta-distributed hit-rate estimator predicts the minimum hit
//     rate inside a retrieval batch (the tail query that gates batch
//     latency);
//   - a piecewise-linear performance model prices CPU search as a
//     function of batch size;
//   - Algorithm 1 combines the three with the LLM's memory-throughput
//     trade-off to choose the smallest GPU-resident hot-cluster set
//     that meets the search SLO;
//   - a distributed runtime routes probes through mapping tables
//     (pruning non-resident probes), scans cold clusters on the CPU,
//     and promotes early-finishing queries via a dynamic dispatcher.
//
// # Architecture
//
// Serving is organized as a composable stage pipeline (internal/serve,
// see ARCHITECTURE.md): Poisson arrivals feed an admission stage, then
// a retrieval stage (the hybrid engine or the CPU-only one), then a
// generation stage wrapping the LLM cluster, ending in a metrics
// collector — all in virtual time on a deterministic discrete-event
// simulator. Each baseline system (CPU-Only, DED-GPU, ALL-GPU,
// vLiteRAG, HedraRAG) is a declarative composition of those stages;
// internal/rag contributes the per-system resource decision (GPU memory
// layout, engine choice, LLM placement) and one entry point that serves
// it on any combination of corpus (one workload or a tenant lineup),
// topology (one node or replicas behind a router) and control planes —
// validated against one rules table before any work. Every Serve*
// function below is one such combination: ServeCluster runs N identical
// node pipelines behind a round-robin or least-loaded front-end router,
// ServeTenants shares nodes between SLO-tiered tenants.
//
// A control plane rides on the data plane (internal/adapt, paper
// §IV-B3): ServeAdaptive attaches a drift monitor to the collector
// path and, when windowed SLO attainment drops while observed hit
// rates diverge from the model, rebuilds the hybrid index in the
// background — re-profile, re-partition, re-split, reload shards over
// PCIe with mid-reload queries diverted to the CPU path — then swaps
// the new plan in atomically, all inside one simulated run. Drift
// traces (ServeOptions.Drift) and non-stationary arrival schedules
// (ServeOptions.RateSchedule: ramps, bursts, diurnal cycles) supply
// the workloads that make it fire.
//
// The offline build path (corpus generation, k-means, IVF-PQ training,
// which yields the codes, access profiling) runs on a worker pool sized to the
// host's cores and is bit-identical to a sequential build for a fixed
// seed, so experiments stay reproducible on any machine.
//
// Because the original evaluation requires multi-GPU servers, this
// package runs the retrieval algorithms for real at laptop scale and
// executes serving experiments on a calibrated discrete-event
// simulation of the paper's hardware (ARCHITECTURE.md describes the
// two-substrate design). All results are deterministic under a fixed
// seed.
//
// # Quick start
//
//	w, _ := vectorliterag.NewWorkload(vectorliterag.Orcas1K)
//	sys, _ := vectorliterag.BuildSystem(vectorliterag.SystemOptions{Workload: w})
//	fmt.Printf("cache %.1f%% of clusters (%.1f GB on GPUs)\n",
//	        sys.Rho*100, float64(sys.PlanBytes)/1e9)
//	rep, _ := vectorliterag.Serve(vectorliterag.ServeOptions{
//	        Workload: w, System: vectorliterag.VLiteRAG, Rate: 30,
//	})
//	fmt.Printf("SLO attainment %.2f at 30 req/s\n", rep.Summary.Attainment)
//
//	// Scale out: 2 replicas behind a least-loaded router.
//	cl, _ := vectorliterag.ServeCluster(vectorliterag.ClusterOptions{
//	        ServeOptions: vectorliterag.ServeOptions{Workload: w, Rate: 60},
//	        Replicas:     2,
//	})
//	fmt.Printf("cluster attainment %.2f at 60 req/s\n", cl.Summary.Attainment)
//
//	// Past capacity: bound the node's admission queue and shed quality.
//	ov, _ := vectorliterag.Serve(vectorliterag.ServeOptions{
//	        Workload: w, Rate: 45,
//	        Overload: &vectorliterag.OverloadOptions{QueueCap: 32, Brownout: true},
//	})
//	fmt.Printf("rejected %d, brownout level %d\n", ov.Overload.RejectedTotal, ov.Overload.MaxLevel)
//
// The runnable programs under examples/ demonstrate the full API, and
// cmd/vliterag regenerates every table and figure of the paper's
// evaluation.
package vectorliterag
