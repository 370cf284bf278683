// Package tenant implements multi-tenant resource partitioning: the
// joint generalization of the paper's Algorithm 1 from one tenant's
// (index, KV-cache) split to N tenants sharing one node's HBM. Each
// tenant brings its own corpus (access profile → hit-rate estimator),
// CPU latency model, arrival rate, and an SLO tier; the allocator
// first reserves enough KV cache to sustain the aggregate generation
// rate, then spends the remaining byte budget on per-tenant GPU index
// cache by greedy marginal SLO-attainment-per-byte, weighted by tier,
// on top of a floor that guarantees every tenant a slice of its
// minimum feasible allocation.
//
// The scheduling half of multi-tenant isolation (weighted round-robin
// admission with tier-aware ordering) lives in serve.FairScheduler;
// this package owns only the memory decision.
package tenant

import (
	"fmt"
	"math"
	"time"

	"vectorliterag/internal/hitrate"
	"vectorliterag/internal/llm"
	"vectorliterag/internal/perfmodel"
)

// Tier is an SLO service class. Tiers order both the allocator's
// weighting (a gold byte of marginal attainment counts WeightOf times
// a bronze byte) and the FairScheduler's dispatch priority.
type Tier string

// The supported service tiers.
const (
	Gold   Tier = "gold"
	Silver Tier = "silver"
	Bronze Tier = "bronze"
)

// Tiers lists the supported tiers, highest class first.
func Tiers() []Tier { return []Tier{Gold, Silver, Bronze} }

// ParseTier validates a tier name.
func ParseTier(s string) (Tier, error) {
	switch Tier(s) {
	case Gold, Silver, Bronze:
		return Tier(s), nil
	}
	return "", fmt.Errorf("tenant: unknown tier %q (have %v)", s, Tiers())
}

// Weight returns the tier's share weight: the WRR quantum per
// scheduling round and the multiplier on marginal attainment gain in
// the joint allocator.
func (t Tier) Weight() int {
	switch t {
	case Gold:
		return 4
	case Silver:
		return 2
	default:
		return 1
	}
}

// Priority returns the tier's dispatch rank (lower is served first
// within a scheduling round).
func (t Tier) Priority() int {
	switch t {
	case Gold:
		return 0
	case Silver:
		return 1
	default:
		return 2
	}
}

// BrownoutBias returns the tier's multiplier on brownout shed
// fractions: under overload the controller sheds quality from bronze
// first and gold last. Monotone down the tier order, so at any ladder level a
// lower tier never holds a better knob setting than a higher one.
func (t Tier) BrownoutBias() float64 {
	switch t {
	case Gold:
		return 0.4
	case Silver:
		return 0.7
	default:
		return 1.0
	}
}

// Target returns the tier's SLO-attainment objective — the fraction of
// requests that must meet the combined TTFT budget for the tier to be
// considered served. These are the per-class targets the isolation
// experiment checks.
func (t Tier) Target() float64 {
	switch t {
	case Gold:
		return 0.95
	case Silver:
		return 0.85
	default:
		return 0.50
	}
}

// Input is one tenant's view of the allocation problem.
type Input struct {
	Name string
	Tier Tier
	// Rate is the tenant's nominal arrival rate in requests/second (for
	// scheduled arrivals, the base rate — bursts are the scheduler's
	// problem, not the allocator's). Rates sum into the aggregate that
	// sizes both the KV reserve and the shared engine's expected batch.
	Rate float64
	// SLOSearch is the tenant's retrieval-stage latency objective.
	SLOSearch time.Duration
	// Epsilon is the queuing factor of Algorithm 1 (default 1):
	// tau_s = SLOSearch/(1+Epsilon).
	Epsilon float64
	// Perf is the tenant's fitted CPU search-latency model (depends on
	// its corpus geometry).
	Perf *perfmodel.Model
	// Est is the tenant's hit-rate estimator over its access profile.
	Est *hitrate.Estimator
	// PrefixBytes[k] is the GPU memory the tenant's k hottest clusters
	// occupy (PrefixBytes[0] = 0); its length fixes the cluster count.
	PrefixBytes []int64
}

func (in Input) nlist() int { return len(in.PrefixBytes) - 1 }

func (in Input) tauS() time.Duration {
	eps := in.Epsilon
	if eps == 0 {
		eps = 1
	}
	return time.Duration(float64(in.SLOSearch) / (1 + eps))
}

// batchAt is the tenant's planned retrieval batch size: the retrieval
// engine is shared, so a dynamic batch gathers roughly one search
// budget's worth of the *aggregate* arrival stream, and every query in
// it waits for the whole batch's work (§VI-B dynamic batching).
func (in Input) batchAt(aggregateRate float64) int {
	b := int(math.Round(in.tauS().Seconds() * aggregateRate))
	if b < 1 {
		b = 1
	}
	return b
}

// Allocation is one tenant's share of the joint decision.
type Allocation struct {
	Name     string
	Tier     Tier
	Clusters int     // hot clusters granted
	Bytes    int64   // GPU memory those clusters occupy
	Rho      float64 // coverage fraction (Clusters / nlist)
	Batch    int     // planned batch size the score was evaluated at
	TauS     time.Duration
	EtaMin   float64 // expected batch-minimum hit rate at Rho
	// Score is the predicted attainment proxy in [0,1]: 1 when the
	// modeled hybrid search latency at the planned batch meets tau_s,
	// else the fraction of the budget the latency overshoots.
	Score float64
	// FloorBytes is the guaranteed minimum this tenant was granted
	// before the weighted greedy round.
	FloorBytes int64
	// Feasible reports whether the granted slice meets the tenant's own
	// search budget under the model (Score == 1).
	Feasible bool
	// SQClusters / SQBytes / RecallGain report the precision pass (zero
	// without Inputs.Precision): how many of the tenant's hottest
	// clusters were upgraded from PQ to SQ8, the extra HBM those
	// upgrades cost, and the estimated recall points bought.
	SQClusters int
	SQBytes    int64
	RecallGain float64
}

// Result is the joint allocation across all tenants.
type Result struct {
	Allocations []Allocation
	// BudgetBytes is the index-cache budget after reserving KV for the
	// aggregate generation rate; UsedBytes is what the greedy actually
	// spent (≤ BudgetBytes).
	BudgetBytes int64
	UsedBytes   int64
	// MuLLM is the estimated LLM throughput with UsedBytes resident.
	MuLLM float64
	// AggregateRate is the summed tenant arrival rate the KV reserve was
	// sized for.
	AggregateRate float64
	// RecallGain is the rate-weighted recall improvement the precision
	// pass bought across tenants (zero without Inputs.Precision).
	RecallGain float64
}

const (
	// floorFrac is the fraction of each tenant's minimum feasible bytes
	// guaranteed as a floor before weighted allocation. Floors scale down
	// proportionally when they exceed the budget.
	floorFrac = 0.25
	// kvHeadroom multiplies the aggregate rate when reserving KV
	// capacity: the generation stage must retain throughput for every
	// tenant's stream plus slack for bursts.
	kvHeadroom = 1.05
)

// Inputs parameterizes JointAllocate.
type Inputs struct {
	Tenants []Input
	// MemKV is the node-wide baseline KV capacity with no index loaded;
	// Mu0 the bare LLM throughput (both as in partition.Inputs).
	MemKV int64
	Mu0   float64
	// Precision, when non-nil, lets the greedy choose per-cluster
	// (tier, codec) pairs: after the placement rounds converge, leftover
	// budget upgrades each tenant's hottest placed clusters from PQ to
	// SQ8, ordered across tenants by tier weight × marginal
	// (attainment + recall) per byte. Nil keeps the classic
	// placement-only allocation bit for bit.
	Precision *PrecisionOptions
}

// scoreAt evaluates the attainment proxy for tenant in at k hot
// clusters: min(1, tau_s / hybridTime(batch, etaMin(k))), with the
// batch sized from the aggregate arrival rate (the engine is shared).
// It is monotone non-decreasing in k because a larger hot set can only
// raise the batch-minimum hit rate.
func scoreAt(in Input, k int, aggregate float64) (score, etaMin float64) {
	rho := float64(k) / float64(in.nlist())
	b := in.batchAt(aggregate)
	etaMin = in.Est.MinHitRate(rho, b)
	ht := in.Perf.HybridTime(b, etaMin)
	tau := in.tauS()
	if ht <= tau {
		return 1, etaMin
	}
	return tau.Seconds() / ht.Seconds(), etaMin
}

// feasibleClusters returns the smallest k whose score reaches 1, or
// nlist when even full coverage cannot meet the budget. Monotonicity
// of scoreAt in k makes bisection exact.
func feasibleClusters(in Input, aggregate float64) int {
	n := in.nlist()
	if s, _ := scoreAt(in, n, aggregate); s < 1 {
		return n
	}
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if s, _ := scoreAt(in, mid, aggregate); s < 1 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// JointAllocate splits the node's HBM across tenants.
//
// Phase 0 — KV reserve: generation is shared, so the index budget is
// what MemKV leaves after reserving the (linear-model) capacity for the
// aggregate arrival rate: budget = MemKV · (1 − kvHeadroom·ΣRate/Mu0).
//
// Phase 1 — floors: every tenant is granted floorFrac of its minimum
// feasible bytes (the smallest hot set whose modeled hybrid latency
// meets its own tau_s), scaled down proportionally if the floors alone
// exceed the budget.
//
// Phase 2 — weighted greedy: the remaining budget is spent one cluster
// at a time on the tenant with the highest Tier.Weight() × marginal
// score per byte, until no tenant gains or the budget is exhausted.
// Ties break toward the higher tier, then the lower tenant index, so
// the result is deterministic.
func JointAllocate(in Inputs) (Result, error) {
	if len(in.Tenants) == 0 {
		return Result{}, fmt.Errorf("tenant: no tenants")
	}
	if in.MemKV <= 0 || in.Mu0 <= 0 {
		return Result{}, fmt.Errorf("tenant: non-positive MemKV %d or Mu0 %v", in.MemKV, in.Mu0)
	}
	var aggregate float64
	for i, t := range in.Tenants {
		if t.Perf == nil || t.Est == nil || len(t.PrefixBytes) < 2 {
			return Result{}, fmt.Errorf("tenant: tenant %d (%s) missing models or prefix bytes", i, t.Name)
		}
		if t.Rate <= 0 {
			return Result{}, fmt.Errorf("tenant: tenant %d (%s) non-positive rate %v", i, t.Name, t.Rate)
		}
		if t.SLOSearch <= 0 {
			return Result{}, fmt.Errorf("tenant: tenant %d (%s) non-positive SLO", i, t.Name)
		}
		if _, err := ParseTier(string(t.Tier)); err != nil {
			return Result{}, fmt.Errorf("tenant: tenant %d (%s): %w", i, t.Name, err)
		}
		aggregate += t.Rate
	}

	res := Result{AggregateRate: aggregate}
	kvNeeded := kvHeadroom * aggregate / in.Mu0
	if kvNeeded >= 1 {
		// Generation demand alone consumes the whole KV pool: every
		// tenant would silently get a zero-byte index budget, which is
		// not an allocation but an overload. Refuse explicitly.
		return Result{}, fmt.Errorf(
			"tenant: infeasible: aggregate generation demand %.1f req/s (with %.2fx headroom) meets or exceeds LLM capacity %.1f req/s; no HBM remains for any index",
			aggregate, kvHeadroom, in.Mu0)
	}
	res.BudgetBytes = int64(float64(in.MemKV) * (1 - kvNeeded))

	// Phase 1: floors at cluster granularity.
	n := len(in.Tenants)
	ks := make([]int, n)        // granted clusters per tenant
	floors := make([]int64, n)  // floor bytes actually granted
	desired := make([]int64, n) // minimum feasible bytes
	var floorSum int64
	for i, t := range in.Tenants {
		desired[i] = t.PrefixBytes[feasibleClusters(t, aggregate)]
		floorSum += int64(float64(desired[i]) * floorFrac)
	}
	scale := 1.0
	if floorSum > res.BudgetBytes && floorSum > 0 {
		scale = float64(res.BudgetBytes) / float64(floorSum)
	}
	var used int64
	for i, t := range in.Tenants {
		target := int64(float64(desired[i]) * floorFrac * scale)
		// Smallest k whose prefix covers the floor target (clusters are
		// indivisible, so the floor rounds up to the next boundary)...
		k := 0
		for k < t.nlist() && t.PrefixBytes[k] < target {
			k++
		}
		// ...but never past what the budget still holds.
		for k > 0 && used+t.PrefixBytes[k] > res.BudgetBytes {
			k--
		}
		ks[i] = k
		floors[i] = t.PrefixBytes[k]
		used += floors[i]
	}

	// Phase 2: weighted greedy over single-cluster steps. score[i] is
	// cached and recomputed only when tenant i's k changes.
	scores := make([]float64, n)
	for i := range in.Tenants {
		scores[i], _ = scoreAt(in.Tenants[i], ks[i], aggregate)
	}
	for {
		best, bestGain := -1, 0.0
		for i, t := range in.Tenants {
			if ks[i] >= t.nlist() {
				continue
			}
			step := t.PrefixBytes[ks[i]+1] - t.PrefixBytes[ks[i]]
			if used+step > res.BudgetBytes {
				continue
			}
			next, _ := scoreAt(t, ks[i]+1, aggregate)
			gain := next - scores[i]
			if gain <= 0 {
				continue
			}
			perByte := float64(t.Tier.Weight()) * gain / float64(max(step, 1))
			if best < 0 || perByte > bestGain+1e-15 ||
				(perByte > bestGain-1e-15 && t.Tier.Priority() < in.Tenants[best].Tier.Priority()) {
				best, bestGain = i, perByte
			}
		}
		if best < 0 {
			break
		}
		t := in.Tenants[best]
		used += t.PrefixBytes[ks[best]+1] - t.PrefixBytes[ks[best]]
		ks[best]++
		scores[best], _ = scoreAt(t, ks[best], aggregate)
	}

	res.UsedBytes = used
	for i, t := range in.Tenants {
		score, etaMin := scoreAt(t, ks[i], aggregate)
		res.Allocations = append(res.Allocations, Allocation{
			Name:       t.Name,
			Tier:       t.Tier,
			Clusters:   ks[i],
			Bytes:      t.PrefixBytes[ks[i]],
			Rho:        float64(ks[i]) / float64(t.nlist()),
			Batch:      t.batchAt(aggregate),
			TauS:       t.tauS(),
			EtaMin:     etaMin,
			Score:      score,
			FloorBytes: floors[i],
			Feasible:   score >= 1,
		})
	}
	// Precision pass: spend what placement left over on PQ→SQ8 upgrades
	// (no-op and bit-identical without Inputs.Precision).
	res.RecallGain = upgradePrecision(in, &res, ks)
	res.MuLLM = in.Mu0 * llm.KVFraction(in.MemKV, res.UsedBytes)
	return res, nil
}
