// Package partition implements the latency-bounded partitioning
// algorithm of paper §IV-A3 (Algorithm 1): given the search-stage SLO,
// the baseline KV-cache footprint, and the bare LLM throughput, it
// finds the largest cache coverage rho whose hybrid search latency
// meets the budget while accounting for the LLM throughput lost to the
// index's GPU memory.
//
// The feedback loop: a larger rho steals more KV memory, lowering LLM
// throughput, which shrinks the expected batch size, which raises the
// batch-minimum hit rate, which allows a smaller rho — the iteration
// converges by bisection.
//
// The package also implements the HedraRAG partitioning rule (§VI-D)
// used as a comparison baseline: throughput balancing between stages
// with no latency objective.
package partition

import (
	"fmt"
	"math"
	"time"

	"vectorliterag/internal/hitrate"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/perfmodel"
	"vectorliterag/internal/retrieval"
)

// Algorithm 1's bisection on rho stops once the bracket is narrower
// than delta or after maxIters halvings (§IV-A3).
const (
	delta    = 1e-3
	maxIters = 64
)

// Inputs collects everything Algorithm 1 consumes.
type Inputs struct {
	SLOSearch time.Duration
	// Epsilon is the queuing factor: tau_s = SLO/(1+eps). The paper sets
	// eps=1 (worst case: queuing delay equals one batch latency),
	// validated empirically on the CPU-only baseline.
	Epsilon float64
	Perf    *perfmodel.Model
	Est     *hitrate.Estimator

	// MemKV is the node-wide baseline KV-cache capacity in bytes with no
	// index loaded; Mu0 the bare LLM throughput in requests/second.
	MemKV int64
	Mu0   float64

	// IndexBytesAt maps a coverage fraction to the GPU memory the cached
	// clusters occupy (hot clusters are bigger than average, so this is
	// super-linear in rho).
	IndexBytesAt func(rho float64) int64
}

// Result reports the chosen partitioning point and diagnostics.
type Result struct {
	Rho           float64       // coverage: fraction of clusters cached on GPUs
	IndexBytes    int64         // GPU memory the cached clusters occupy
	MuLLM         float64       // estimated LLM throughput at this rho
	ExpectedBatch int           // batch size the algorithm planned for
	EtaMin        float64       // expected batch-minimum hit rate at rho
	TauS          time.Duration // search budget used (SLO/(1+eps))
	Iterations    int
	Feasible      bool // false when rho misses the budget or its index leaves no KV cache
}

// LatencyBounded runs Algorithm 1. Its inner bisections compare Eq. 2
// against the hit rate each budget requires
// (hitrate.Estimator.CoverageForMinHitRate), which bounds the integral
// from a few grid points; the one exact Eq. 2 value it needs is the
// result's EtaMin, integrated once after the outer loop.
func LatencyBounded(in Inputs) (Result, error) {
	if in.Perf == nil || in.Est == nil || in.IndexBytesAt == nil {
		return Result{}, fmt.Errorf("partition: missing model inputs")
	}
	if in.SLOSearch <= 0 || in.Mu0 <= 0 || in.MemKV <= 0 {
		return Result{}, fmt.Errorf("partition: non-positive SLO, Mu0, or MemKV")
	}
	eps := in.Epsilon
	if eps == 0 {
		eps = 1
	}

	tauS := time.Duration(float64(in.SLOSearch) / (1 + eps))
	res := Result{TauS: tauS, Feasible: true}

	lo, hi := 0.0, 1.0
	rho := 1.0
	for iter := 0; iter < maxIters && hi-lo > delta; iter++ {
		res.Iterations = iter + 1
		rhoM := (lo + hi) / 2
		// Conservative linear estimate of throughput lost to index memory.
		mu := in.Mu0 * llm.KVFraction(in.MemKV, in.IndexBytesAt(rhoM))
		if mu <= 0 {
			// This much index leaves no KV at all; shrink.
			hi = rhoM
			continue
		}
		rho, res.ExpectedBatch = inferPartition(in, tauS, mu)
		if rho > rhoM {
			lo = rho
			if lo > hi {
				lo = hi
			}
		} else {
			hi = rhoM
		}
	}
	if res.ExpectedBatch > 0 {
		// The last placement INFERPARTITION chose is the result: its
		// batch minimum is the one exact Eq. 2 value the search reads.
		res.EtaMin = in.Est.MinHitRate(rho, res.ExpectedBatch)
	}
	res.Rho = rho
	res.IndexBytes = in.IndexBytesAt(rho)
	res.MuLLM = in.Mu0 * llm.KVFraction(in.MemKV, res.IndexBytes)
	// Final feasibility verdict: does the chosen index leave the LLM any
	// KV cache, and does the configuration actually meet the budget under
	// Eq. 1 at the planned batch size?
	res.Feasible = res.IndexBytes < in.MemKV &&
		in.Perf.HybridTime(res.ExpectedBatch, res.EtaMin) <= tauS+tauS/20
	return res, nil
}

// inferPartition is Algorithm 1's INFERPARTITION: expected batch size
// B = tau_s * mu, evaluated with both roundings; each rounding yields a
// required hit rate (via Eq. 1) and thus a coverage; the smaller
// coverage wins because it uses less GPU memory. Each coverage comes
// from a bisection that only compares Eq. 2 against the required hit
// rate; LatencyBounded integrates the winner's once, after its loop.
func inferPartition(in Inputs, tauS time.Duration, mu float64) (rho float64, batch int) {
	bReal := tauS.Seconds() * mu

	// Rounding up: latency budget stays tau_s, batch is larger, so more
	// coverage is needed.
	b1 := int(math.Ceil(bReal))
	if b1 < 1 {
		b1 = 1
	}
	eta1 := in.Perf.EtaForBudget(b1, tauS)
	rho1 := coverageFor(in.Est, eta1, b1)

	// Rounding down: the smaller batch implies the throughput constraint
	// binds instead; budget becomes B/mu.
	b2 := int(math.Floor(bReal))
	if b2 < 1 {
		b2 = 1
	}
	budget2 := time.Duration(float64(b2) / mu * float64(time.Second))
	if budget2 > tauS {
		budget2 = tauS
	}
	eta2 := in.Perf.EtaForBudget(b2, budget2)
	rho2 := coverageFor(in.Est, eta2, b2)

	if rho1 <= rho2 {
		return rho1, b1
	}
	return rho2, b2
}

func coverageFor(est *hitrate.Estimator, eta float64, batch int) float64 {
	if eta <= 0 {
		return 0
	}
	if eta >= 1 {
		// Even a perfect cache cannot absorb the gap (CQ alone exceeds
		// the budget); cache everything — the final feasibility check
		// will flag the configuration.
		return 1
	}
	cov, ok := est.CoverageForMinHitRate(eta, batch)
	if !ok {
		return 1
	}
	return cov
}

// HedraInputs parameterizes the HedraRAG throughput-balancing rule.
type HedraInputs struct {
	Perf *perfmodel.Model
	Est  *hitrate.Estimator
	// MemKV / Mu0 / IndexBytesAt as in Inputs.
	MemKV        int64
	Mu0          float64
	IndexBytesAt func(rho float64) int64
}

// Hedra implements HedraRAG's throughput-balancing allocation
// (§VI-D): identify the slower stage, then give the LLM only the
// maximum KV cache that sustains that bottleneck throughput — every
// byte beyond it goes to the GPU index cache. There is no latency
// objective anywhere in the rule, which is the paper's central
// criticism:
//
//   - LLM-bound at rho=0: the whole GPU memory goes to the LLM and the
//     index stays on the CPU ("HedraRAG allocates the entire GPU memory
//     to LLMs and performs vector search on CPU").
//   - Retrieval-bound: KV beyond LLM(K) = mu_retrieval is useless, so
//     it is converted into cache coverage — typically far more than a
//     latency target would require (the paper measures 73% of clusters
//     vs VectorLiteRAG's 31.5%).
func Hedra(in HedraInputs) (Result, error) {
	if in.Perf == nil || in.Est == nil || in.IndexBytesAt == nil {
		return Result{}, fmt.Errorf("partition: missing hedra inputs")
	}
	// HedraRAG measures at the retrieval engine's batch bound (paper §VI-D
	// replicates it with batch sizes below 64).
	const batch = retrieval.MaxBatch
	retrievalRate := func(rho float64) float64 {
		eta := in.Est.MeanHitRate(rho) // no tail-awareness: mean, not min
		t := in.Perf.HybridTime(batch, eta)
		return float64(batch) / t.Seconds()
	}
	llmFull := in.Mu0
	if llmFull <= retrievalRate(0) {
		// LLM is already the bottleneck: give it all the memory.
		return Result{Rho: 0, MuLLM: llmFull, ExpectedBatch: batch, Feasible: true}, nil
	}
	// Retrieval-bound: the LLM needs only K* = MemKV * mu_bot/mu0 (the
	// same linear memory-throughput estimate Algorithm 1 uses); the
	// spare KV becomes cache.
	muBot := retrievalRate(0)
	spare := in.MemKV - int64(float64(in.MemKV)*muBot/in.Mu0)
	// Convert spare bytes to coverage by inverting IndexBytesAt.
	lo, hi := 0.0, 1.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if in.IndexBytesAt(mid) <= spare {
			lo = mid
		} else {
			hi = mid
		}
	}
	rho := lo
	return Result{
		Rho: rho, IndexBytes: in.IndexBytesAt(rho),
		MuLLM:         in.Mu0 * llm.KVFraction(in.MemKV, in.IndexBytesAt(rho)),
		ExpectedBatch: batch,
		EtaMin:        in.Est.MeanHitRate(rho), Feasible: true,
	}, nil
}
