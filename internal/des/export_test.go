package des

// ID returns the shard's index in its group (creation order).
func (s *Shard) ID() int { return s.id }

// Delay returns the link's minimum delay (its lookahead).
func (l *Link) Delay() Time { return l.delay }

// Drain consumes every message still undelivered after Run — messages
// timestamped past the deadline, "in the network" when the clock
// stopped — in send order. Call only after Run has returned.
func (l *Link) Drain(fn func(at Time, arg any)) { l.in.Drain(fn) }
