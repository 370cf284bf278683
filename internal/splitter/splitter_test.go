package splitter

import (
	"testing"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/profiler"
)

func profile(t *testing.T) *profiler.AccessProfile {
	t.Helper()
	gc := dataset.GenConfig{NCenters: 64, PerCenter: 64, Dim: 16, PhysNList: 64, PhysNProbe: 8, Templates: 256, Seed: 3}
	w, err := dataset.Build(dataset.Orcas1K, gc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profiler.CollectAccess(w, 3000, 21)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildValidation(t *testing.T) {
	p := profile(t)
	if _, err := Build(p, 0.5, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := Build(p, -0.1, 4); err == nil {
		t.Fatal("negative coverage accepted")
	}
	if _, err := Build(p, 1.5, 4); err == nil {
		t.Fatal("coverage > 1 accepted")
	}
}

func TestPlanSelectsHottest(t *testing.T) {
	p := profile(t)
	plan, err := Build(p, 0.25, 4)
	if err != nil {
		t.Fatal(err)
	}
	k := len(plan.HotClusters)
	if k != 16 { // 25% of 64
		t.Fatalf("hot cluster count = %d, want 16", k)
	}
	want := map[int]bool{}
	for _, c := range p.HotOrder[:k] {
		want[c] = true
	}
	for _, c := range plan.HotClusters {
		if !want[c] {
			t.Fatalf("cluster %d in plan but not among top-%d hottest", c, k)
		}
	}
}

func TestEveryHotClusterMappedOnce(t *testing.T) {
	p := profile(t)
	plan, _ := Build(p, 0.5, 4)
	seen := map[int]bool{}
	for g, shard := range plan.Shards {
		for local, c := range shard {
			loc := plan.Mapping[c]
			if loc.Shard != g || loc.LocalID != local {
				t.Fatalf("mapping mismatch for cluster %d: %+v vs shard %d local %d", c, loc, g, local)
			}
			if seen[c] {
				t.Fatalf("cluster %d appears in two shards", c)
			}
			seen[c] = true
		}
	}
	if len(seen) != len(plan.HotClusters) {
		t.Fatalf("mapped %d clusters, plan has %d", len(seen), len(plan.HotClusters))
	}
}

func TestShardsBalanced(t *testing.T) {
	p := profile(t)
	plan, _ := Build(p, 0.5, 4)
	var minB, maxB int64 = 1 << 62, 0
	for _, b := range plan.ShardBytes {
		if b < minB {
			minB = b
		}
		if b > maxB {
			maxB = b
		}
	}
	if minB == 0 {
		t.Fatal("empty shard at 50% coverage")
	}
	// Size-sorted round-robin keeps shards within ~2x of each other.
	if float64(maxB)/float64(minB) > 2 {
		t.Fatalf("shards unbalanced: min=%d max=%d", minB, maxB)
	}
}

func TestHotMaskConsistent(t *testing.T) {
	p := profile(t)
	plan, _ := Build(p, 0.3, 2)
	mask := plan.HotMask()
	for c := range mask {
		if mask[c] != plan.IsHot(c) {
			t.Fatalf("mask and IsHot disagree on %d", c)
		}
	}
	hotCount := 0
	for _, h := range mask {
		if h {
			hotCount++
		}
	}
	if hotCount != len(plan.HotClusters) {
		t.Fatalf("mask count %d vs plan %d", hotCount, len(plan.HotClusters))
	}
}

func TestRouteSplitsProbes(t *testing.T) {
	p := profile(t)
	plan, _ := Build(p, 0.3, 4)
	for c := range plan.HotMask() {
		g := plan.ShardOf(c)
		if loc, hot := plan.Mapping[c]; hot != plan.IsHot(c) || hot && g != loc.Shard || !hot && g != -1 {
			t.Fatalf("cluster %d (hot %v) routed to shard %d, mapping %+v", c, plan.IsHot(c), g, loc)
		}
	}
}

func TestZeroCoveragePlan(t *testing.T) {
	p := profile(t)
	plan, err := Build(p, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.HotClusters) != 0 || plan.TotalBytes() != 0 {
		t.Fatal("zero coverage plan not empty")
	}
	for _, c := range p.W.Probes(1) {
		if g := plan.ShardOf(c); g != -1 {
			t.Fatalf("zero coverage routed cluster %d to shard %d", c, g)
		}
	}
}

func TestIndexBytesAtMonotone(t *testing.T) {
	p := profile(t)
	f := IndexBytesAt(p)
	if f(0) != 0 {
		t.Fatal("bytes at rho=0 not zero")
	}
	if f(1) != p.W.TotalIndexBytes() && abs64(f(1)-p.W.TotalIndexBytes()) > p.W.TotalIndexBytes()/500 {
		t.Fatalf("bytes at rho=1 = %d, want ~%d", f(1), p.W.TotalIndexBytes())
	}
	prev := int64(-1)
	for rho := 0.0; rho <= 1.0; rho += 0.1 {
		b := f(rho)
		if b < prev {
			t.Fatalf("IndexBytesAt not monotone at %v", rho)
		}
		prev = b
	}
	// Hot clusters are bigger than average under skewed access: the
	// first 20% of clusters should hold more than 20% of bytes.
	if got := float64(f(0.2)) / float64(f(1)); got <= 0.2 {
		t.Fatalf("hot 20%% of clusters hold only %.2f of bytes", got)
	}
}

func TestPlanMatchesIndexBytesAt(t *testing.T) {
	p := profile(t)
	f := IndexBytesAt(p)
	plan, _ := Build(p, 0.4, 8)
	if got, want := plan.TotalBytes(), f(0.4); got != want {
		t.Fatalf("plan bytes %d != IndexBytesAt %d", got, want)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
