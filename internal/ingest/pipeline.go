package ingest

import (
	"time"

	"vectorliterag/internal/costmodel"
	"vectorliterag/internal/des"
	"vectorliterag/internal/hw"
	"vectorliterag/internal/workload"
)

// Config wires an Ingester.
type Config struct {
	Sim   *des.Sim
	Store *Store
	Node  hw.Node
	// ReencodeEvery is the background re-encode cadence; zero disables
	// periodic re-encodes (the buffers then only fold on compaction).
	ReencodeEvery time.Duration
	// Horizon bounds the periodic re-encode schedule, like a
	// generator's arrival deadline.
	Horizon des.Time
}

// Ingester is the serial ingest station: mutations queue FIFO and are
// applied one at a time with modeled host cost (routing CQ + append
// for inserts, tombstone set for deletes); the periodic background
// re-encode occupies the same station for its modeled encode time, so
// mutations arriving during a fold wait — the mechanism behind the
// re-encode-cadence freshness dips (and, pushed far enough, the
// metastable regime where folds steal the station for longer than the
// cadence between them).
//
// A mutation becomes *searchable* when its apply completes:
// Mutation.AppliedAt is stamped at service completion and
// time-to-searchable is AppliedAt - ArrivalAt.
type Ingester struct {
	sim   *des.Sim
	store *Store
	node  hw.Node

	insertCost time.Duration
	deleteCost time.Duration

	queue des.Queue[*workload.Mutation]
	busy  bool

	reencodeEvery   time.Duration
	horizon         des.Time
	reencodePending bool
	reencodes       int
	compactions     int

	log []workload.Mutation

	// Pre-bound callbacks for allocation-free scheduling.
	finishMut      func()
	finishReencode func()
	tick           func()
}

// New wires an ingest station onto the simulator and, when a cadence
// is configured, arms the periodic re-encode.
func New(cfg Config) *Ingester {
	ing := &Ingester{
		sim: cfg.Sim, store: cfg.Store, node: cfg.Node,
		insertCost:    costmodel.InsertTime(cfg.Node.CPU, cfg.Store.w.Spec),
		deleteCost:    costmodel.DeleteTime(),
		reencodeEvery: cfg.ReencodeEvery,
		horizon:       cfg.Horizon,
	}
	ing.finishMut = ing.onFinishMut
	ing.finishReencode = ing.onFinishReencode
	ing.tick = ing.onTick
	if ing.reencodeEvery > 0 {
		ing.sim.At(des.Time(ing.reencodeEvery), ing.tick)
	}
	return ing
}

// Submit enqueues a mutation at its arrival instant — wire it as the
// MutationGen submit callback.
func (ing *Ingester) Submit(m *workload.Mutation) {
	ing.queue.Push(m)
	ing.kick()
}

// kick starts the next unit of station work if the station is idle. A
// pending re-encode runs before queued mutations: the fold was due
// first.
func (ing *Ingester) kick() {
	if ing.busy {
		return
	}
	if ing.reencodePending {
		ing.busy = true
		ing.sim.After(costmodel.ReencodeTime(ing.node.CPU, ing.store.w.Spec, ing.store.PendingLogical()), ing.finishReencode)
		return
	}
	if ing.queue.Len() == 0 {
		return
	}
	ing.busy = true
	m := ing.queue.Items()[0]
	if m.Kind == workload.MutInsert {
		ing.sim.After(ing.insertCost, ing.finishMut)
	} else {
		ing.sim.After(ing.deleteCost, ing.finishMut)
	}
}

// onFinishMut applies the head mutation at its service-completion
// instant and records it in the log.
func (ing *Ingester) onFinishMut() {
	m := ing.queue.Pop()
	if m.Kind == workload.MutInsert {
		ing.store.Insert(m)
		m.AppliedAt = ing.sim.Now()
	} else if ing.store.Delete(m) {
		m.AppliedAt = ing.sim.Now()
	}
	ing.log = append(ing.log, *m)
	ing.busy = false
	ing.kick()
}

// onTick marks a re-encode due and re-arms the cadence.
func (ing *Ingester) onTick() {
	ing.reencodePending = true
	ing.kick()
	if next := ing.sim.Now() + des.Time(ing.reencodeEvery); next <= ing.horizon {
		ing.sim.At(next, ing.tick)
	}
}

// onFinishReencode folds the pending buffers at the modeled encode
// completion instant.
func (ing *Ingester) onFinishReencode() {
	ing.reencodePending = false
	ing.store.Reencode()
	ing.reencodes++
	ing.busy = false
	ing.kick()
}

// Log returns the applied-mutation records (value snapshots).
func (ing *Ingester) Log() []workload.Mutation { return ing.log }

// Reencodes reports completed background folds.
func (ing *Ingester) Reencodes() int { return ing.reencodes }

// Compactions reports controller-driven compaction cycles applied.
func (ing *Ingester) Compactions() int { return ing.compactions }

// The adapt.Compactor surface: drift trackers plus the cheap
// compaction action. CompactionCost prices the cycle from current
// store state; Compact applies it (the controller models the cost on
// its own timeline, mirroring how full rebuilds run in the
// background).

// SizeSkew exposes the store's live cluster-size skew.
func (ing *Ingester) SizeSkew() float64 { return ing.store.SizeSkew() }

// ResidualRatio exposes the store's insert residual-norm ratio.
func (ing *Ingester) ResidualRatio() float64 { return ing.store.ResidualRatio() }

// CompactionCost prices a compaction cycle at current pending/purge
// volumes.
func (ing *Ingester) CompactionCost() time.Duration {
	return costmodel.CompactionTime(ing.node.CPU, ing.store.w.Spec, ing.store.PendingLogical(), ing.store.PurgeableLogical())
}

// Compact folds and purges the store.
func (ing *Ingester) Compact() {
	ing.store.Compact()
	ing.compactions++
}
