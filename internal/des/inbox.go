package des

// Inbox is a FIFO of timestamped messages bound for one Sim, each handed
// to the deliver callback on that Sim's timeline at its stamp. It is the
// receiving end of a Link, and on its own it carries a message stream
// that was computed before the receiver runs (RunFed): a sender whose
// choices never depend on the receiver needs no link, no lookahead and
// no barrier, only its messages in send order.
type Inbox struct {
	deliver func(any)
	pending Queue[Msg] // undelivered messages in send order
}

// NewInbox returns an empty inbox with room for n messages, delivering
// to deliver.
func NewInbox(deliver func(any), n int) *Inbox {
	return &Inbox{deliver: deliver, pending: Queue[Msg]{items: make([]Msg, 0, n)}}
}

// Post appends a message stamped at to an inbox whose Sim is not
// executing (before RunFed, or between Feed calls). Messages are
// delivered in Post order: one stamped earlier than its predecessor
// waits behind it.
func (b *Inbox) Post(at Time, arg any) { b.pending.Push(Msg{at, arg}) }

// Len returns the number of undelivered messages.
func (b *Inbox) Len() int { return b.pending.Len() }

// Drain consumes every message still undelivered after the run, in send
// order. Call only after the run has returned.
func (b *Inbox) Drain(fn func(at Time, arg any)) {
	for _, m := range b.pending.Items() {
		fn(m.at, m.arg)
	}
	b.pending.Drop(b.pending.Len())
}

// headMin returns the earliest head stamp over the inboxes, maxTime
// when all are empty.
func headMin(in []*Inbox) Time {
	lo := maxTime
	for _, b := range in {
		if b.pending.Len() > 0 {
			lo = min(lo, b.pending.Items()[0].at)
		}
	}
	return lo
}

// feed fires every event of sim at or before last, moving messages from
// the inboxes into its queue on the way, and returns the earliest
// instant at which anything can still happen: the next local event or
// an inbox head. It is the one implementation of the delivery rule (see
// the determinism rule in shard.go) — a message enters the queue only
// once its stamp is ≤ the next local event's, so local events already
// scheduled for that instant fire first and the tie-break never depends
// on how early the message was known; inboxes drain in slice order.
// minHead caches a lower bound on the inbox heads so the common case —
// nothing due yet — skips the scan.
func feed(sim *Sim, in []*Inbox, minHead *Time, last Time) Time {
	for {
		nt := maxTime
		if t, ok := sim.nextAt(); ok {
			nt = t
		}
		// Each delivery becomes the new next local event, so later
		// inboxes' same-instant messages chain in behind it.
		if *minHead <= nt && *minHead <= last {
			*minHead = maxTime
			for _, b := range in {
				n := 0
				for _, m := range b.pending.Items() {
					if m.at > nt || m.at > last {
						*minHead = min(*minHead, m.at)
						break
					}
					sim.AtArg(m.at, b.deliver, m.arg)
					n++
					nt = m.at
				}
				b.pending.Drop(n)
			}
		}
		if nt > last {
			return min(nt, *minHead)
		}
		sim.Step()
	}
}

// RunFed is RunUntil with inbound messages: it fires events until
// nothing at or before deadline remains in the queue or the inboxes,
// delivering each message under exactly the rule a Group applies to a
// shard's inbound links, so a receiver fed its whole message stream up
// front runs the schedule it would have run had the messages arrived
// over links while it executed. Messages stamped past the deadline stay
// in their inbox (Len, Drain).
func (s *Sim) RunFed(deadline Time, in ...*Inbox) {
	s.Feed(deadline, in...)
	if s.now < deadline {
		s.now = deadline
	}
}

// Feed is the incremental form of RunFed: it fires every event at or
// before last under the same delivery rule, leaves the clock at the last
// event fired, and returns the earliest instant at which anything can
// still happen — the next local event or an inbox head, math.MaxInt64
// when there is neither. Messages may be posted between calls as long as
// each is stamped after the last call's bound; a run cut into such calls
// is the run RunFed makes with every message posted up front.
func (s *Sim) Feed(last Time, in ...*Inbox) Time {
	minHead := headMin(in)
	return feed(s, in, &minHead, last)
}
