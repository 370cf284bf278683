package ingest

import (
	"math"
	"runtime"
	"testing"
	"time"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/vecmath"
	"vectorliterag/internal/workload"
)

var testW *dataset.Workload

func testWorkload(t *testing.T) *dataset.Workload {
	t.Helper()
	if testW == nil {
		gc := dataset.GenConfig{NCenters: 48, PerCenter: 48, Dim: 16, PhysNList: 48, PhysNProbe: 8, Templates: 192, Seed: 4}
		w, err := dataset.Build(dataset.Orcas2K, gc)
		if err != nil {
			t.Fatal(err)
		}
		testW = w
	}
	return testW
}

func contains(res []vecmath.Neighbor, id int) bool {
	for _, nb := range res {
		if nb.Index == id {
			return true
		}
	}
	return false
}

// TestFrozenStoreMatchesIndex: with no mutations applied, the store's
// masked search path returns exactly what the plain index search does.
func TestFrozenStoreMatchesIndex(t *testing.T) {
	w := testWorkload(t)
	s := NewStore(w)
	r := rng.New(7)
	for i := 0; i < 20; i++ {
		q := w.QueryVector(w.Sample(r), r)
		got := s.Search(q, 8, 10)
		want := w.Index.Search(q, 8, 10)
		if len(got) != len(want) {
			t.Fatalf("query %d: result sizes differ: %d vs %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("query %d neighbor %d: got %+v want %+v", i, j, got[j], want[j])
			}
		}
	}
}

// TestInsertLifecycle: an inserted vector is found by the live search
// while raw-pending, survives the re-encode fold (now scanned from
// store-owned PQ codes), and the pending scan cost collapses to
// encoded cost at the fold.
func TestInsertLifecycle(t *testing.T) {
	w := testWorkload(t)
	s := NewStore(w)
	r := rng.New(11)
	vec := w.InsertVector(r)
	m := &workload.Mutation{Kind: workload.MutInsert, Vec: vec}
	c := s.Insert(m)
	if m.ID != int32(w.Index.NVectors()) {
		t.Fatalf("first insert got ID %d, want %d", m.ID, w.Index.NVectors())
	}
	if s.PendingRaw() != 1 {
		t.Fatalf("pending %d after one insert", s.PendingRaw())
	}
	// The exact inserted vector probed at its own cluster must be the
	// nearest neighbor: distance 0 beats every PQ approximation.
	res := s.Search(vec, w.Gen.PhysNProbe, 5)
	if len(res) == 0 || res[0].Index != int(m.ID) {
		t.Fatalf("inserted vector not top result while pending: %+v", res)
	}
	rawDelta := s.Delta(c)
	if enc := s.Reencode(); enc != 1 {
		t.Fatalf("reencode folded %d vectors, want 1", enc)
	}
	if s.PendingRaw() != 0 {
		t.Fatalf("pending %d after fold", s.PendingRaw())
	}
	res = s.Search(vec, w.Gen.PhysNProbe, 5)
	if !contains(res, int(m.ID)) {
		t.Fatalf("inserted vector lost after re-encode: %+v", res)
	}
	if encDelta := s.Delta(c); !(encDelta < rawDelta && encDelta > 0) {
		t.Fatalf("scan cost delta did not step down at fold: raw %v, encoded %v", rawDelta, encDelta)
	}
}

// TestDeleteLifecycle: tombstoned vectors vanish from results in all
// three locations (base list, pending buffer, encoded appends), keep
// costing scan bytes until compaction, and stop costing after it.
func TestDeleteLifecycle(t *testing.T) {
	w := testWorkload(t)
	s := NewStore(w)
	r := rng.New(13)
	q := w.QueryVector(w.Sample(r), r)
	base := s.Search(q, 8, 10)
	if len(base) == 0 {
		t.Fatal("no baseline results")
	}
	victim := base[0].Index
	// Aim the delete exactly at the victim: Pick resolves by linear
	// probe from Pick % space, and the victim is live.
	m := &workload.Mutation{Kind: workload.MutDelete, Pick: uint64(victim)}
	if !s.Delete(m) || int(m.ID) != victim {
		t.Fatalf("delete resolved to %d, want %d", m.ID, victim)
	}
	if s.Alive(victim) {
		t.Fatal("victim still alive")
	}
	if res := s.Search(q, 8, 10); contains(res, victim) {
		t.Fatalf("tombstoned base vector still returned: %+v", res)
	}
	// Tombstones are not free until purged.
	if d := s.Delta(m.Cluster); d != 0 {
		t.Fatalf("unpurged tombstone changed scan cost by %v", d)
	}
	_, purged := s.Compact()
	if purged != 1 {
		t.Fatalf("compaction purged %d, want 1", purged)
	}
	if d := s.Delta(m.Cluster); d >= 0 {
		t.Fatalf("purge did not reduce scan cost: delta %v", d)
	}

	// Delete a pending insert: the append-buffer scan must honor it.
	ins := &workload.Mutation{Kind: workload.MutInsert, Vec: w.InsertVector(r)}
	s.Insert(ins)
	del := &workload.Mutation{Kind: workload.MutDelete, Pick: uint64(ins.ID)}
	if !s.Delete(del) || del.ID != ins.ID {
		t.Fatalf("pending delete resolved to %d, want %d", del.ID, ins.ID)
	}
	if res := s.Search(ins.Vec, w.Gen.PhysNProbe, 5); contains(res, int(ins.ID)) {
		t.Fatalf("tombstoned pending vector still returned: %+v", res)
	}
	// Dead pending vectors are dropped (not encoded) by the fold.
	if enc := s.Reencode(); enc != 0 {
		t.Fatalf("fold encoded %d dead pending vectors", enc)
	}

	// Delete an encoded append: insert, fold, then kill.
	ins2 := &workload.Mutation{Kind: workload.MutInsert, Vec: w.InsertVector(r)}
	s.Insert(ins2)
	s.Reencode()
	del2 := &workload.Mutation{Kind: workload.MutDelete, Pick: uint64(ins2.ID)}
	if !s.Delete(del2) || del2.ID != ins2.ID {
		t.Fatalf("encoded delete resolved to %d, want %d", del2.ID, ins2.ID)
	}
	if res := s.Search(ins2.Vec, w.Gen.PhysNProbe, 5); contains(res, int(ins2.ID)) {
		t.Fatalf("tombstoned encoded vector still returned: %+v", res)
	}
}

// TestDeleteProbesPastDead: Pick landing on a dead ID resolves to the
// next live one, deterministically.
func TestDeleteProbesPastDead(t *testing.T) {
	w := testWorkload(t)
	s := NewStore(w)
	m1 := &workload.Mutation{Kind: workload.MutDelete, Pick: 5}
	m2 := &workload.Mutation{Kind: workload.MutDelete, Pick: 5}
	if !s.Delete(m1) || !s.Delete(m2) {
		t.Fatal("deletes failed")
	}
	if m1.ID != 5 || m2.ID != 6 {
		t.Fatalf("probe sequence got %d then %d, want 5 then 6", m1.ID, m2.ID)
	}
}

// TestTrackers: inserts drawn from the query distribution keep the
// residual ratio near the corpus baseline, and piling inserts into
// clusters raises the size skew monotonically.
func TestTrackers(t *testing.T) {
	w := testWorkload(t)
	s := NewStore(w)
	if rr := s.ResidualRatio(); rr != 1 {
		t.Fatalf("residual ratio %v before any insert", rr)
	}
	skew0 := s.SizeSkew()
	r := rng.New(17)
	for i := 0; i < 200; i++ {
		s.Insert(&workload.Mutation{Kind: workload.MutInsert, Vec: w.InsertVector(r)})
	}
	rr := s.ResidualRatio()
	if rr <= 0 || rr > 3 {
		t.Fatalf("residual ratio %v implausible for in-distribution inserts", rr)
	}
	if s.SizeSkew() <= skew0 {
		t.Fatalf("skew did not grow under popularity-skewed inserts: %v -> %v", skew0, s.SizeSkew())
	}
}

// TestIngesterStation: mutations apply serially with modeled cost,
// AppliedAt stamps service completion, and the periodic re-encode
// occupies the station (a mutation arriving mid-fold waits).
func TestIngesterStation(t *testing.T) {
	w := testWorkload(t)
	var sim des.Sim
	store := NewStore(w)
	horizon := des.Time(60 * time.Second)
	ing := New(Config{Sim: &sim, Store: store, Node: hw.H100Node(), ReencodeEvery: 10 * time.Second, Horizon: horizon})
	gen := workload.NewMutationGen(w, workload.MutInsert, 2.0, rng.Stream(1, 100))
	gen.Start(&sim, horizon, ing.Submit)
	sim.RunUntil(horizon + des.Time(30*time.Second))
	log := ing.Log()
	if len(log) == 0 {
		t.Fatal("no mutations processed")
	}
	if ing.Reencodes() < 5 {
		t.Fatalf("only %d re-encodes in 60s at 10s cadence", ing.Reencodes())
	}
	for i := range log {
		m := &log[i]
		if m.AppliedAt == 0 {
			t.Fatalf("mutation %d never applied", m.Seq)
		}
		if m.TimeToSearchable() <= 0 {
			t.Fatalf("mutation %d has non-positive time-to-searchable %d", m.Seq, m.TimeToSearchable())
		}
	}
	if store.PendingRaw() != 0 {
		// The last fold at t=60s should have drained anything applied
		// before it; stragglers applied after are allowed.
		t.Logf("pending after horizon: %d", store.PendingRaw())
	}
	if got := store.Inserts(); got != len(log) {
		t.Fatalf("store applied %d inserts, log has %d", got, len(log))
	}
}

// TestIngestDeterminism: identical seeds produce byte-identical
// mutation logs and store state; different seeds do not.
func TestIngestDeterminism(t *testing.T) {
	w := testWorkload(t)
	run := func(seed uint64) ([]workload.Mutation, int64) {
		var sim des.Sim
		store := NewStore(w)
		horizon := des.Time(30 * time.Second)
		ing := New(Config{Sim: &sim, Store: store, Node: hw.H100Node(), ReencodeEvery: 7 * time.Second, Horizon: horizon})
		ins := workload.NewMutationGen(w, workload.MutInsert, 3.0, rng.Stream(seed, 100))
		del := workload.NewMutationGen(w, workload.MutDelete, 1.0, rng.Stream(seed, 101))
		ins.Start(&sim, horizon, ing.Submit)
		del.Start(&sim, horizon, ing.Submit)
		sim.RunUntil(horizon + des.Time(10*time.Second))
		cost := store.ScanBytesAll(0)
		return ing.Log(), cost
	}
	logA, costA := run(1)
	logB, costB := run(1)
	if len(logA) != len(logB) || costA != costB {
		t.Fatalf("same seed diverged: %d/%d muts, %d/%d bytes", len(logA), len(logB), costA, costB)
	}
	for i := range logA {
		// Vec slices differ by pointer; compare the applied identity.
		a, b := logA[i], logB[i]
		if a.Seq != b.Seq || a.Kind != b.Kind || a.ID != b.ID || a.Cluster != b.Cluster ||
			a.ArrivalAt != b.ArrivalAt || a.AppliedAt != b.AppliedAt {
			t.Fatalf("mutation %d diverged: %+v vs %+v", i, a, b)
		}
	}
	logC, _ := run(2)
	if len(logC) == len(logA) && len(logA) > 0 && logC[0].ArrivalAt == logA[0].ArrivalAt {
		t.Fatal("different seeds produced identical arrival sequence")
	}
}

// TestIngesterCompactorSurface: the adapt.Compactor view of the station
// — drift trackers delegate to the store, CompactionCost prices the
// current pending + purgeable volumes, and Compact folds, purges, and
// counts the cycle.
func TestIngesterCompactorSurface(t *testing.T) {
	w := testWorkload(t)
	var sim des.Sim
	store := NewStore(w)
	horizon := des.Time(20 * time.Second)
	ing := New(Config{Sim: &sim, Store: store, Node: hw.H100Node(), ReencodeEvery: time.Hour, Horizon: horizon})
	ins := workload.NewMutationGen(w, workload.MutInsert, 4.0, rng.Stream(3, 100))
	del := workload.NewMutationGen(w, workload.MutDelete, 1.0, rng.Stream(3, 101))
	ins.Start(&sim, horizon, ing.Submit)
	del.Start(&sim, horizon, ing.Submit)
	sim.RunUntil(horizon + des.Time(10*time.Second))
	if ing.Queued() != 0 {
		t.Fatalf("station still has %d queued after drain", ing.Queued())
	}
	if ing.SizeSkew() != store.SizeSkew() || ing.ResidualRatio() != store.ResidualRatio() {
		t.Fatal("compactor trackers do not delegate to the store")
	}
	if store.PendingRaw() == 0 || store.Deletes() == 0 {
		t.Fatalf("run produced no work to compact: %d pending, %d deletes", store.PendingRaw(), store.Deletes())
	}
	if store.PurgeableLogical() <= 0 {
		t.Fatalf("purgeable logical %d with %d applied deletes", store.PurgeableLogical(), store.Deletes())
	}
	cost := ing.CompactionCost()
	if cost <= 0 {
		t.Fatalf("compaction cost %v with pending work", cost)
	}
	ing.Compact()
	if ing.Compactions() != 1 {
		t.Fatalf("compactions = %d after one Compact", ing.Compactions())
	}
	if store.PendingRaw() != 0 || store.PurgeableLogical() != 0 {
		t.Fatalf("compact left %d pending raw, %d purgeable", store.PendingRaw(), store.PurgeableLogical())
	}
	// An emptied store prices (almost) nothing: only the already-encoded
	// appends remain.
	if c2 := ing.CompactionCost(); c2 >= cost {
		t.Fatalf("post-compaction cost %v did not drop from %v", c2, cost)
	}
}

// TestCompactPurgesEncodedAppends: a tombstoned encoded append is
// rewritten out by Compact — its bytes stop billing and the survivors'
// positions stay searchable.
func TestCompactPurgesEncodedAppends(t *testing.T) {
	w := testWorkload(t)
	s := NewStore(w)
	r := rng.New(23)
	var ids []int32
	for i := 0; i < 8; i++ {
		m := &workload.Mutation{Kind: workload.MutInsert, Vec: w.InsertVector(r)}
		s.Insert(m)
		ids = append(ids, m.ID)
	}
	s.Reencode() // all eight become encoded appends
	del := &workload.Mutation{Kind: workload.MutDelete, Pick: uint64(ids[0])}
	if !s.Delete(del) || del.ID != ids[0] {
		t.Fatalf("delete resolved to %d, want %d", del.ID, ids[0])
	}
	before := s.ScanBytesAll(0)
	_, purged := s.Compact()
	if purged != 1 {
		t.Fatalf("purged %d, want the one dead append", purged)
	}
	if after := s.ScanBytesAll(0); after >= before {
		t.Fatalf("purging an encoded append did not shed cost: %d -> %d", before, after)
	}
	if s.Alive(int(ids[0])) {
		t.Fatal("purged append still alive")
	}
	// Survivors must stay alive and searchable after the rewrite moved
	// their positions.
	for _, id := range ids[1:] {
		if !s.Alive(int(id)) {
			t.Fatalf("survivor %d lost by the rewrite", id)
		}
	}
	if s.Alive(-1) || s.Alive(1<<30) {
		t.Fatal("out-of-range IDs report alive")
	}
}

// TestDeleteFirstPositionThenSearch: tombstoning position 0 of a list
// longer than 64 entries — a base list, a pending buffer, an encoded
// append list — used to leave a one-word bitmap that the masked scan
// kernels indexed past. A bitmap must cover its whole list from the
// first tombstone on, and keep covering it as the list grows.
func TestDeleteFirstPositionThenSearch(t *testing.T) {
	gc := dataset.GenConfig{NCenters: 8, PerCenter: 160, Dim: 16, PhysNList: 8, PhysNProbe: 8, Templates: 64, Seed: 5}
	w, err := dataset.Build(dataset.Orcas2K, gc)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(w)
	r := rng.New(17)
	kill := func(id int) {
		t.Helper()
		m := &workload.Mutation{Kind: workload.MutDelete, Pick: uint64(id)}
		if !s.Delete(m) || int(m.ID) != id {
			t.Fatalf("delete resolved to %d, want %d", m.ID, id)
		}
	}
	search := func(q []float32, dead int) {
		t.Helper()
		if res := s.Search(q, gc.PhysNProbe, 10); len(res) != 10 || contains(res, dead) {
			t.Fatalf("search after deleting %d returned %+v", dead, res)
		}
	}
	// firstAt returns the vector at position 0 of a list of kind where
	// that is longer than one bitmap word.
	firstAt := func(locs []loc, offset int, where uint8, size func(c int) int) int {
		t.Helper()
		for i, l := range locs {
			if l.where == where && l.pos == 0 && !l.dead && size(int(l.cluster)) > 64 {
				return offset + i
			}
		}
		t.Fatalf("no list of kind %d longer than 64 entries", where)
		return -1
	}
	q := w.QueryVector(w.Sample(r), r)

	base := firstAt(s.baseLoc, 0, locBase, w.Index.ClusterSize)
	kill(base)
	search(q, base)

	// 70 copies of one vector share a cluster: a pending buffer of 70.
	vec := w.InsertVector(r)
	insert := func(n int) {
		for i := 0; i < n; i++ {
			s.Insert(&workload.Mutation{Kind: workload.MutInsert, Vec: vec})
		}
	}
	insert(70)
	pend := firstAt(s.insLoc, len(s.baseLoc), locPend, func(c int) int { return len(s.cl[c].pendIDs) })
	kill(pend)
	search(vec, pend)
	insert(70) // the buffer outgrows the bitmap's second word
	search(vec, pend)

	s.Reencode()
	app := firstAt(s.insLoc, len(s.baseLoc), locApp, func(c int) int { return len(s.cl[c].appIDs) })
	kill(app)
	search(vec, app)
	insert(70)
	s.Reencode() // the append list outgrows the bitmap's third word
	search(vec, app)
}

// rebuildSearch is Store.Search as it was before the store kept its own
// scratch and incremental pending norms: a copied probe list, a fresh
// LUT and heap per query, and a BruteForcer rebuilt — every norm
// re-derived — over each probed pending buffer.
func rebuildSearch(s *Store, q []float32, nprobe, k int) []vecmath.Neighbor {
	lut := s.ix.BuildLUT(q)
	top := vecmath.NewTopK(k)
	for _, c := range s.ix.Probe(q, nprobe) {
		cl := &s.cl[c]
		s.ix.ScanClusterMasked(lut, c, cl.deadBase, top)
		if len(cl.appIDs) > 0 {
			lut.ScanCodesIDsMasked(cl.appCodes, cl.appIDs, cl.deadApp, top)
		}
		if len(cl.pendIDs) > 0 {
			vecmath.NewBruteForcer(cl.pendVecs, s.dim).ScanMaskedInto(top, q, cl.pendIDs, cl.deadPend)
		}
	}
	return top.Sorted()
}

// TestIncrementalNormsMatchRebuild: under a random interleave of
// inserts, deletes, searches, re-encodes and compactions, the store's
// search — reused scratch, norms appended one row at a time — returns
// exactly what the rebuild-everything search returns, and every pending
// buffer's norm table stays in step with its rows.
func TestIncrementalNormsMatchRebuild(t *testing.T) {
	w := testWorkload(t)
	s := NewStore(w)
	r := rng.New(23)
	hot := w.InsertVector(r) // re-inserted often, so one buffer grows long
	for step := 0; step < 3000; step++ {
		switch x := r.Intn(100); {
		case x < 45:
			vec := hot
			if r.Intn(3) > 0 {
				vec = w.InsertVector(r)
			}
			s.Insert(&workload.Mutation{Kind: workload.MutInsert, Vec: vec})
		case x < 60:
			s.Delete(&workload.Mutation{Kind: workload.MutDelete, Pick: r.Uint64()})
		case x < 98:
			q := hot
			if r.Intn(2) == 0 {
				q = w.QueryVector(w.Sample(r), r)
			}
			k := 1 + r.Intn(20)
			got, want := s.Search(q, 8, k), rebuildSearch(s, q, 8, k)
			if len(got) != len(want) {
				t.Fatalf("step %d: %d neighbors, rebuild search %d", step, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d neighbor %d: got %+v, rebuild search %+v", step, i, got[i], want[i])
				}
			}
		case x < 99:
			s.Reencode()
		default:
			s.Compact()
		}
		if step%100 == 0 {
			for c := range s.cl {
				cl := &s.cl[c]
				if len(cl.pendNorms) != len(cl.pendIDs) || len(cl.pendVecs) != len(cl.pendIDs)*s.dim {
					t.Fatalf("step %d cluster %d: %d ids, %d norms, %d floats", step, c, len(cl.pendIDs), len(cl.pendNorms), len(cl.pendVecs))
				}
			}
		}
	}
}

// TestStoreSearchAllocs: a search allocates its result slice and
// nothing else — on a frozen store, on one whose pending buffers have
// been folded away, and on one with raw vectors pending.
func TestStoreSearchAllocs(t *testing.T) {
	w := testWorkload(t)
	s := NewStore(w)
	r := rng.New(29)
	q := w.QueryVector(w.Sample(r), r)
	check := func(state string) {
		t.Helper()
		s.Search(q, 8, 10) // warm the store's scratch
		if allocs := testing.AllocsPerRun(50, func() { s.Search(q, 8, 10) }); allocs > 1 {
			t.Fatalf("%s: Search allocates %.1f objects per query, want at most the result slice", state, allocs)
		}
	}
	check("frozen store")
	for i := 0; i < 200; i++ {
		s.Insert(&workload.Mutation{Kind: workload.MutInsert, Vec: w.InsertVector(r)})
	}
	s.Delete(&workload.Mutation{Kind: workload.MutDelete, Pick: uint64(w.Index.NVectors() + 5)})
	check("raw vectors pending")
	s.Reencode()
	check("clean pending buffers")
}

// TestSearchAfterInsertAllocsFlat: the first search after an insert
// used to re-derive (and re-allocate) the norm of every pending row of
// each probed cluster — allocation linear in the buffer, quadratic
// between re-encodes. Now it allocates the result slice whatever the
// buffer holds.
func TestSearchAfterInsertAllocsFlat(t *testing.T) {
	w := testWorkload(t)
	r := rng.New(37)
	vec := w.InsertVector(r)
	// MemStats counts the whole process, so a runtime goroutine that
	// allocates between the two reads inflates a pair; it can only add.
	// The least of 20 pairs is the search's own allocation (the old
	// rebuild allocated in every pair, so the least still catches it).
	perSearch := func(pending int) (objects, bytes uint64) {
		s := NewStore(w)
		for i := 0; i < pending; i++ {
			s.Insert(&workload.Mutation{Kind: workload.MutInsert, Vec: vec})
		}
		s.Search(vec, 8, 10)
		const pairs = 20
		objects, bytes = math.MaxUint64, math.MaxUint64
		var before, after runtime.MemStats
		for i := 0; i < pairs; i++ {
			s.Insert(&workload.Mutation{Kind: workload.MutInsert, Vec: vec})
			runtime.ReadMemStats(&before)
			s.Search(vec, 8, 10)
			runtime.ReadMemStats(&after)
			objects = min(objects, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return objects, bytes
	}
	smallObj, smallBytes := perSearch(4)
	bigObj, bigBytes := perSearch(4096)
	if smallObj > 1 || bigObj > 1 {
		t.Fatalf("search after insert allocates %d objects at 4 pending, %d at 4096; want at most 1", smallObj, bigObj)
	}
	if bigBytes > smallBytes {
		t.Fatalf("search after insert allocates %d B at 4096 pending vs %d B at 4: grows with the buffer", bigBytes, smallBytes)
	}
}
