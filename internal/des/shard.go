// Parallel sharded simulation: a synchronous bounded-window coordinator
// that runs several Sims — shards — on worker goroutines and lets them
// exchange timestamped messages over Links with a declared minimum
// delay (the lookahead).
//
// # Safety rule
//
// The group advances in windows. A window starts at T, the earliest
// instant at which anything can still happen anywhere — the minimum
// over shards of the next local event and the head of every inbound
// link — and is L wide, L being the smallest link delay in the group.
// Inside the window a shard executes only events before bound = T + L.
// Every event of the window fires at some now ≥ T, and a Send must be
// stamped ≥ now + delay ≥ T + L, so nothing sent inside a window can be
// due inside it: every message due before bound was already sitting in
// its link when the window opened, and no shard ever executes past a
// message it has not seen. Workers meet at one barrier per window;
// that barrier is the only synchronization. What a worker sends during
// a window goes into its own mailboxes, one per destination worker,
// which that worker files into the links right after the barrier.
//
// # Determinism rule
//
// The merged schedule must be a pure function of the event graph, not
// of goroutine interleaving, so the same Group produces bit-identical
// results for any worker count. Two rules make that hold
// (both are implemented once, by feed in inbox.go, which Sim.RunFed
// shares):
//
//   - Delivery instant: an inbound message is moved into the shard's
//     event queue only when its timestamp is ≤ the shard's next local
//     event time (and < bound). Delivering any earlier would give the
//     message a smaller FIFO sequence number than local events that a
//     not-yet-executed earlier event is still going to schedule — an
//     ordering that would depend on how far the sender had raced
//     ahead. Gating on the local clock makes the delivery instant
//     logical, so same-instant ties always resolve the same way:
//     already-scheduled local events first, then messages.
//   - Link order: messages are drained from inbound links in link
//     creation order. Because a message is delivered only when its
//     timestamp is < bound, every same-instant message on every other
//     link is already visible (an unseen one would have to carry a
//     timestamp ≥ bound), so the iteration order is complete and the
//     cross-link tie-break deterministic.
//
// What a shard does inside a window depends only on its own queue and
// on the inbound messages present when the window opened; both are the
// product of earlier windows, and T is a minimum over all shards, so
// by induction the window sequence and every shard's schedule are the
// same however shards are spread over workers. workers=1 is not a
// separate code path but the same loop with nobody to wait for at the
// barrier — the reference schedule is the parallel schedule.
//
// # Termination
//
// T skips straight over stretches where nothing is scheduled, so a
// deadline far past the last event costs no rounds. Each worker
// reports the earliest instant left on its shards plus the earliest
// stamp it sent in the window (the receiver only files that message
// after the barrier); T is the minimum of the reports. A window opened
// at the earliest pending event or message executes it, so the group
// always progresses; T can be early only when a link was stamped out
// of order (the early stamp sits behind a later head), which costs one
// empty window before the reports are exact again. The run ends at the
// first barrier where T is past the deadline or nothing is left at
// all. Messages stamped past the deadline stay in their links for
// Drain.
package des

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// maxTime is the "no event / no constraint" sentinel.
const maxTime = Time(math.MaxInt64)

// barrierSpins is how many times a worker polls a peer's done count at
// the barrier before it starts yielding its P between polls. A window
// is a few microseconds of event work, so when every worker has a P
// the peer arrives well inside the budget and a yield would only add
// scheduler cost. With more workers than Ps the budget is zero: a
// spinning worker would be holding the P its peer needs.
const barrierSpins = 1 << 12

// Msg is one cross-shard message: the link's deliver callback runs
// with arg on the destination shard at virtual time at.
type Msg struct {
	at  Time
	arg any
}

// mail is a Msg on its way to link l: an entry of a worker's mailbox.
type mail struct {
	l *Link
	Msg
}

// Shard is one Sim inside a Group, owned by exactly one worker
// goroutine for the length of a Run. All scheduling on Sim must happen
// from the shard's own event handlers (or before Run starts).
type Shard struct {
	Sim Sim

	id    int
	group *Group
	in    []*Inbox // receiving ends of the inbound links, creation order

	// Owner-local state, set up by Run.
	w       *worker // nil outside Run
	slot    int     // index in w.own / w.next
	minHead Time    // lower bound on the heads of the inbound links
}

// Link is a one-way FIFO message channel between two shards with a
// minimum delay: every Send must be timestamped at least delay past
// the sender's current virtual time. The smallest delay in a group is
// the width of its synchronization window.
type Link struct {
	src, dst *Shard
	delay    Time
	to       int // index of dst's worker, set up by Run

	// The receiving end. Only the destination shard's owner touches it
	// during Run.
	in Inbox
}

// Send queues a message for delivery on the destination shard at
// virtual time at. It must be called from the source shard's event
// context (or before Run), and at must honor the link's lookahead
// (now + delay); violating that would let the receiver execute past an
// unseen message, so it panics.
func (l *Link) Send(at Time, arg any) {
	if at < l.src.Sim.Now()+l.delay {
		panic(fmt.Sprintf("des: link %d->%d send at t=%d violates lookahead (now=%d, delay=%d)",
			l.src.id, l.dst.id, at, l.src.Sim.Now(), l.delay))
	}
	w := l.src.w
	if w == nil { // outside Run nothing else is running
		l.in.push(Msg{at, arg})
		return
	}
	w.box[l.to] = append(w.box[l.to], mail{l, Msg{at, arg}})
	w.sentMin = min(w.sentMin, at)
}

// worker is one goroutine's share of a Run: the shards it owns and what
// it publishes to the other workers at each barrier.
type worker struct {
	id   int
	own  []*Shard
	next []Time // next[i]: earliest local event or inbound head of own[i]

	box     [][]mail // this window's mailboxes, by destination worker
	sentMin Time     // earliest timestamp sent in the current window
	_       [40]byte

	// Published at the barrier, on a cache line of their own so that a
	// peer polling done does not slow this worker's window down. The
	// slots alternate by window parity: a fast worker filling window
	// k+1's never overwrites what a slow one still reads for window k.
	done atomic.Int64 // windows finished
	min  [2]Time      // earliest instant anything can happen on this worker
	sent [2][][]mail  // box, as the window left it
	_    [56]byte
}

// Group is a set of shards wired by links, run to a common deadline.
type Group struct {
	shards []*Shard
	links  []*Link

	deadline Time
	window   Time // smallest link delay
	workers  []*worker
	spins    int
}

// NewGroup returns an empty shard group.
func NewGroup() *Group { return &Group{} }

// AddShard appends a fresh shard to the group.
func (g *Group) AddShard() *Shard {
	s := &Shard{id: len(g.shards), group: g}
	g.shards = append(g.shards, s)
	return s
}

// Connect wires a one-way link from src to dst with the given minimum
// delay (must be positive — zero lookahead cannot make conservative
// progress through a cycle). deliver runs on dst's timeline, at each
// message's timestamp, with the message's arg.
func Connect(src, dst *Shard, delay Time, deliver func(any)) (*Link, error) {
	if src == nil || dst == nil {
		return nil, fmt.Errorf("des: nil shard")
	}
	if src.group != dst.group {
		return nil, fmt.Errorf("des: shards belong to different groups")
	}
	if delay <= 0 {
		return nil, fmt.Errorf("des: link needs positive delay (lookahead), got %d", delay)
	}
	if deliver == nil {
		return nil, fmt.Errorf("des: link needs a deliver callback")
	}
	l := &Link{src: src, dst: dst, delay: delay, in: Inbox{deliver: deliver}}
	dst.in = append(dst.in, &l.in)
	src.group.links = append(src.group.links, l)
	return l, nil
}

// Run executes the group until no event at or before deadline remains
// anywhere, on the given number of worker goroutines (the caller is
// one of them). Each worker owns a contiguous block of shards: shards
// created one after another tend to have their state allocated side by
// side, and neighbours on one worker do not share cache lines across
// cores. workers ≤ 1 runs everything on the calling goroutine — the
// identical algorithm, so results match any worker count bit for bit.
func (g *Group) Run(deadline Time, workers int) {
	if len(g.shards) == 0 {
		return
	}
	workers = max(1, min(workers, len(g.shards)))
	g.deadline = deadline
	g.window = maxTime
	for _, l := range g.links {
		g.window = min(g.window, l.delay)
	}
	g.spins = barrierSpins
	if workers > runtime.GOMAXPROCS(0) {
		g.spins = 0
	}
	g.workers = make([]*worker, workers)
	for i := range g.workers {
		g.workers[i] = &worker{id: i, sent: [2][][]mail{make([][]mail, workers), make([][]mail, workers)}}
	}
	start := maxTime
	for i, s := range g.shards {
		w := g.workers[i*workers/len(g.shards)]
		s.w, s.slot, s.minHead = w, len(w.own), headMin(s.in)
		at := s.minHead
		if t, ok := s.Sim.nextAt(); ok {
			at = min(at, t)
		}
		w.own = append(w.own, s)
		w.next = append(w.next, at)
		start = min(start, at)
	}
	for _, l := range g.links {
		l.to = l.dst.w.id
	}

	var wg sync.WaitGroup
	for _, w := range g.workers[1:] {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			g.work(w, start)
		}(w)
	}
	g.work(g.workers[0], start)
	wg.Wait()
	for _, s := range g.shards {
		s.w = nil
	}
	g.workers = nil
}

// work is one worker's loop: a window of its shards, a barrier, the
// mail the window produced, repeat. start is the first window's T;
// every later one comes from the barrier.
func (g *Group) work(w *worker, start Time) {
	for k, T := 0, start; T <= g.deadline && T < maxTime; k++ {
		p := k & 1
		w.box, w.sentMin = w.sent[p], maxTime
		for i := range w.box {
			w.box[i] = w.box[i][:0]
		}
		bound := maxTime
		if T < maxTime-g.window {
			bound = T + g.window
		}
		lo := maxTime
		for i, at := range w.next {
			if at < bound {
				at = g.advance(w.own[i], bound)
				w.next[i] = at
			}
			lo = min(lo, at)
		}
		// A message sent in this window reaches its shard's next entry
		// only after the barrier, so the sender accounts for it here.
		T = g.barrier(w, k, min(lo, w.sentMin))
		// File what the window sent to this worker's shards. Peers are
		// reading this worker's boxes of the same parity meanwhile; the
		// next window fills the other parity.
		for _, o := range g.workers {
			for _, m := range o.sent[p][w.id] {
				l := m.l
				if s := l.dst; l.in.Len() == 0 && m.at < s.minHead {
					s.minHead = m.at
					w.next[s.slot] = min(w.next[s.slot], m.at)
				}
				l.in.push(m.Msg)
			}
		}
	}
}

// barrier publishes lo, this worker's earliest pending instant after
// window k, waits for every worker to do the same, and returns the
// global minimum: the next window's T. The store to done also
// publishes the window's mailboxes.
func (g *Group) barrier(w *worker, k int, lo Time) Time {
	w.min[k&1] = lo
	w.done.Store(int64(k + 1))
	for _, o := range g.workers {
		for spin := 0; o.done.Load() <= int64(k); spin++ {
			if spin >= g.spins {
				runtime.Gosched()
			}
		}
		lo = min(lo, o.min[k&1])
	}
	return lo
}

// advance runs one shard up to bound under the delivery and link-order
// rules (feed), and returns the earliest instant at which anything can
// still happen on it.
func (g *Group) advance(s *Shard, bound Time) Time {
	if len(s.in) == 0 {
		bound = maxTime // nothing can ever arrive
	}
	// The latest executable instant: short of bound, and of the deadline.
	return feed(&s.Sim, s.in, &s.minHead, min(bound-1, g.deadline))
}
