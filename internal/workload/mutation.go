package workload

import (
	"vectorliterag/internal/dataset"
	"vectorliterag/internal/des"
	"vectorliterag/internal/rng"
)

// MutationKind distinguishes corpus mutations.
type MutationKind uint8

const (
	// MutInsert adds a fresh vector to the live corpus.
	MutInsert MutationKind = iota
	// MutDelete tombstones an existing vector.
	MutDelete
)

func (k MutationKind) String() string {
	if k == MutInsert {
		return "insert"
	}
	return "delete"
}

// Mutation is one live-corpus write flowing through the ingest
// pipeline. Timestamps are virtual; zero means "not reached yet".
type Mutation struct {
	Seq  int
	Kind MutationKind

	// Vec is the insert payload (nil for deletes), drawn from the
	// workload's drift-rotated insert distribution at arrival time.
	Vec []float32

	// Pick seeds the delete's deterministic victim selection: the ingest
	// store resolves it against the live ID population at apply time, so
	// the victim choice depends only on the mutation stream's RNG and
	// the applied-mutation order.
	Pick uint64

	ArrivalAt des.Time // enqueued at the ingest station
	AppliedAt des.Time // applied: insert searchable / delete masked

	// Set by the ingest store at apply time.
	Cluster int   // cluster the vector was routed to (insert) or lived in (delete)
	ID      int32 // assigned vector ID (insert) or victim ID (delete)
}

// TimeToSearchable returns how long the mutation waited between
// arriving and becoming visible to queries; valid once AppliedAt is
// set.
func (m *Mutation) TimeToSearchable() des.Time { return m.AppliedAt - m.ArrivalAt }

// MutationGen produces a constant-rate Poisson stream of one mutation
// kind, mirroring Generator. Insert payloads are
// drawn from the workload's insert distribution with the generator's
// private RNG, so the stream is a pure function of its seed.
type MutationGen struct {
	Kind       MutationKind
	RatePerSec float64
	W          *dataset.Workload

	r    *rng.Rand
	next int

	sim    *des.Sim
	until  des.Time
	submit func(*Mutation)
	step   func()
}

// NewMutationGen returns an open-loop mutation source. rate is
// mutations per second of virtual time.
func NewMutationGen(w *dataset.Workload, kind MutationKind, rate float64, seed uint64) *MutationGen {
	return &MutationGen{Kind: kind, RatePerSec: rate, W: w, r: rng.New(seed)}
}

// Start schedules mutations on the simulator until the given deadline,
// invoking submit for each at its arrival time. Like Generator.Start,
// one pre-bound step callback self-reschedules.
func (g *MutationGen) Start(sim *des.Sim, until des.Time, submit func(*Mutation)) {
	g.sim, g.until, g.submit = sim, until, submit
	if g.RatePerSec <= 0 {
		return
	}
	g.step = g.constStep
	first := des.Time(g.r.ExpFloat64() / g.RatePerSec * 1e9)
	if first <= g.until {
		g.sim.At(first, g.step)
	}
}

func (g *MutationGen) constStep() {
	g.emit()
	next := g.sim.Now() + des.Time(g.r.ExpFloat64()/g.RatePerSec*1e9)
	if next <= g.until {
		g.sim.At(next, g.step)
	}
}

// emit materializes one mutation at the current instant.
func (g *MutationGen) emit() {
	m := &Mutation{Seq: g.next, Kind: g.Kind, ArrivalAt: g.sim.Now()}
	g.next++
	if g.Kind == MutInsert {
		m.Vec = g.W.InsertVector(g.r)
	} else {
		m.Pick = g.r.Uint64()
	}
	g.submit(m)
}
