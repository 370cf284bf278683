package workload

import (
	"math"
	"testing"

	"vectorliterag/internal/des"
)

func TestMutationKindString(t *testing.T) {
	if MutInsert.String() != "insert" || MutDelete.String() != "delete" {
		t.Fatalf("kind strings: %q, %q", MutInsert.String(), MutDelete.String())
	}
}

func TestMutationTimeToSearchable(t *testing.T) {
	m := Mutation{ArrivalAt: 5e9, AppliedAt: 7e9}
	if got := m.TimeToSearchable(); got != 2e9 {
		t.Fatalf("TTS = %d, want 2e9", got)
	}
}

func TestMutationGenRate(t *testing.T) {
	w := testWorkload(t)
	var sim des.Sim
	g := NewMutationGen(w, MutInsert, 50, 3)
	count := 0
	g.Start(&sim, des.Time(60*1e9), func(m *Mutation) { count++ })
	sim.Run()
	// 50 per second for 60s => ~3000 arrivals; Poisson std ~ 55.
	if math.Abs(float64(count)-3000) > 300 {
		t.Fatalf("generated %d mutations, want ~3000", count)
	}
	if g.Count() != count {
		t.Fatalf("Count() = %d, generated %d", g.Count(), count)
	}
}

func TestMutationGenPayloads(t *testing.T) {
	w := testWorkload(t)
	var sim des.Sim
	ins := NewMutationGen(w, MutInsert, 40, 7)
	del := NewMutationGen(w, MutDelete, 40, 8)
	var muts []*Mutation
	collect := func(m *Mutation) { muts = append(muts, m) }
	ins.Start(&sim, des.Time(2*1e9), collect)
	del.Start(&sim, des.Time(2*1e9), collect)
	sim.Run()
	seq := map[MutationKind]int{}
	for _, m := range muts {
		if m.Seq != seq[m.Kind] {
			t.Fatalf("%v seq %d out of order (want %d)", m.Kind, m.Seq, seq[m.Kind])
		}
		seq[m.Kind]++
		switch m.Kind {
		case MutInsert:
			if len(m.Vec) == 0 {
				t.Fatal("insert without payload vector")
			}
		case MutDelete:
			if m.Vec != nil || m.Pick == 0 {
				t.Fatalf("delete payload wrong: vec %v, pick %d", m.Vec, m.Pick)
			}
		}
	}
	if seq[MutInsert] == 0 || seq[MutDelete] == 0 {
		t.Fatalf("one stream empty: %d inserts, %d deletes", seq[MutInsert], seq[MutDelete])
	}
}

func TestMutationGenDeterministic(t *testing.T) {
	w := testWorkload(t)
	run := func() []des.Time {
		var sim des.Sim
		g := NewMutationGen(w, MutDelete, 30, 11)
		var at []des.Time
		g.Start(&sim, des.Time(10*1e9), func(m *Mutation) { at = append(at, m.ArrivalAt) })
		sim.Run()
		return at
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("runs diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestMutationGenZeroRate(t *testing.T) {
	w := testWorkload(t)
	var sim des.Sim
	g := NewMutationGen(w, MutInsert, 0, 1)
	g.Start(&sim, des.Time(60*1e9), func(m *Mutation) { t.Fatal("zero-rate stream emitted") })
	sim.Run()
	if g.Count() != 0 {
		t.Fatalf("Count() = %d after zero-rate run", g.Count())
	}
}

func TestMutationGenStopsAtDeadline(t *testing.T) {
	w := testWorkload(t)
	var last des.Time
	var sim des.Sim
	g := NewMutationGen(w, MutDelete, 100, 9)
	g.Start(&sim, des.Time(1e9), func(m *Mutation) { last = m.ArrivalAt })
	sim.Run()
	if last > 1e9 {
		t.Fatalf("arrival after deadline: %d", last)
	}
}
