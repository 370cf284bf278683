// Package splitter implements the index splitter of paper §IV-A4: once
// the partitioning point rho is chosen, it selects the hot clusters
// from the access profile, distributes them across GPU shards in a
// round-robin over the size-sorted list (balancing memory), and emits
// the mapping tables (original cluster ID → shard + local ID) that the
// runtime router uses to prune probes.
package splitter

import (
	"fmt"
	"sort"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/profiler"
)

// Loc locates a hot cluster inside a GPU shard.
type Loc struct {
	Shard   int
	LocalID int
}

// Plan is the materialized split: which clusters live on which GPU.
type Plan struct {
	Coverage    float64
	NumShards   int
	HotClusters []int       // cluster IDs cached on GPUs
	Shards      [][]int     // Shards[g] lists cluster IDs on GPU g
	ShardBytes  []int64     // logical bytes resident per shard
	Mapping     map[int]Loc // cluster ID → shard location
	// Prec, when non-nil, refines the plan with per-cluster (tier,
	// codec) assignments (SQ8 on HBM, PQ on NVMe); nil preserves the
	// classic all-PQ placement bit for bit. Installed via
	// AttachPrecision so shard byte accounting stays consistent.
	Prec    *Precision
	hotMask []bool // fast membership test
	// shardOf is the dense routing table: shardOf[c] is the hosting
	// shard + 1, or 0 for CPU-resident clusters. RouteInto consults it
	// instead of Mapping — cluster IDs are small and dense, and the
	// routing loop runs for every probe of every query of every batch.
	shardOf []int32
	W       *dataset.Workload
}

// Build selects the hottest clusters at the given coverage and packs
// them into numShards balanced shards.
func Build(p *profiler.AccessProfile, coverage float64, numShards int) (*Plan, error) {
	if numShards <= 0 {
		return nil, fmt.Errorf("splitter: need at least one shard, got %d", numShards)
	}
	if coverage < 0 || coverage > 1 {
		return nil, fmt.Errorf("splitter: coverage %v outside [0,1]", coverage)
	}
	nlist := len(p.Counts)
	k := int(float64(nlist)*coverage + 0.5)
	if k > nlist {
		k = nlist
	}
	hot := append([]int(nil), p.HotOrder[:k]...)

	// Sort hot clusters by size (descending) and deal them round-robin —
	// the paper's balancing strategy.
	sort.SliceStable(hot, func(a, b int) bool {
		return p.W.ClusterBytes(hot[a]) > p.W.ClusterBytes(hot[b])
	})
	plan := &Plan{
		Coverage:    coverage,
		NumShards:   numShards,
		HotClusters: hot,
		Shards:      make([][]int, numShards),
		ShardBytes:  make([]int64, numShards),
		Mapping:     make(map[int]Loc, len(hot)),
		hotMask:     make([]bool, nlist),
		shardOf:     make([]int32, nlist),
		W:           p.W,
	}
	for i, c := range hot {
		g := i % numShards
		plan.Mapping[c] = Loc{Shard: g, LocalID: len(plan.Shards[g])}
		plan.shardOf[c] = int32(g) + 1
		plan.Shards[g] = append(plan.Shards[g], c)
		plan.ShardBytes[g] += p.W.ClusterBytes(c)
		plan.hotMask[c] = true
	}
	return plan, nil
}

// IsHot reports whether cluster c is GPU-resident.
func (p *Plan) IsHot(c int) bool { return p.hotMask[c] }

// HotMask returns the shared membership mask (read-only).
func (p *Plan) HotMask() []bool { return p.hotMask }

// TotalBytes returns the GPU memory the plan occupies across shards.
func (p *Plan) TotalBytes() int64 {
	var sum int64
	for _, b := range p.ShardBytes {
		sum += b
	}
	return sum
}

// RouteScratch holds RouteInto's reusable work areas. Engines route
// every query of every batch, so per-call slice allocations would
// dominate the serving loop's allocation profile; a per-engine scratch
// reduces routing to zero steady-state allocations. The returned
// slices are valid until the next RouteInto call on the same scratch.
type RouteScratch struct {
	perShard [][]int
	cpu      []int
}

// RouteInto splits a query's probe list into per-shard resident
// clusters and the CPU-resident remainder — the router's mapping-table
// lookup (paper §IV-B1) — writing into s. The returned shard lists
// index into plan.Shards.
func (p *Plan) RouteInto(s *RouteScratch, probes []int) (perShard [][]int, cpu []int) {
	if cap(s.perShard) < p.NumShards {
		grown := make([][]int, p.NumShards)
		copy(grown, s.perShard)
		s.perShard = grown
	}
	perShard = s.perShard[:p.NumShards]
	for i := range perShard {
		perShard[i] = perShard[i][:0]
	}
	s.cpu = s.cpu[:0]
	for _, c := range probes {
		if uint(c) < uint(len(p.shardOf)) {
			if g := p.shardOf[c]; g > 0 {
				perShard[g-1] = append(perShard[g-1], c)
				continue
			}
		} else if loc, ok := p.Mapping[c]; ok {
			// Out-of-range IDs (hand-built plans in tests) fall back to
			// the map.
			perShard[loc.Shard] = append(perShard[loc.Shard], c)
			continue
		}
		s.cpu = append(s.cpu, c)
	}
	return perShard, s.cpu
}

// IndexBytesAt returns a closure mapping coverage to resident bytes for
// this profile — the MemIndex(rho) term of Algorithm 1. Hot clusters
// are larger than average, so the curve is super-linear at small rho.
func IndexBytesAt(p *profiler.AccessProfile) func(rho float64) int64 {
	nlist := len(p.Counts)
	prefix := PrefixBytes(p)
	return func(rho float64) int64 {
		if rho <= 0 {
			return 0
		}
		if rho >= 1 {
			return prefix[nlist]
		}
		k := int(float64(nlist)*rho + 0.5)
		if k > nlist {
			k = nlist
		}
		return prefix[k]
	}
}

// PrefixBytes returns, for every k, the resident bytes of the profile's
// k hottest clusters (PrefixBytes(p)[0] = 0): MemIndex at cluster
// granularity, the form the joint allocator steps through.
func PrefixBytes(p *profiler.AccessProfile) []int64 {
	prefix := make([]int64, len(p.Counts)+1)
	for i, c := range p.HotOrder {
		prefix[i+1] = prefix[i] + p.W.ClusterBytes(c)
	}
	return prefix
}
