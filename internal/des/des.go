// Package des is a minimal deterministic discrete-event simulator. All
// serving experiments run in virtual time on it, so results are
// reproducible and independent of host speed.
//
// Time is int64 nanoseconds. Events scheduled for the same instant fire
// in scheduling order (FIFO), which makes multi-component pipelines
// deterministic without fragile epsilon offsets.
//
// The event queue is a sorted front of a few keys ahead of a hand-
// rolled 4-ary min-heap over concrete event structs: no container/heap
// interface boxing, no per-push allocation. Because every event's
// (at, seq) key is unique, the pop order is a strict total order —
// identical for any correct priority queue — which is what keeps the
// golden serving artifacts bit-stable across queue implementations
// (heap_property_test.go pins this against a container/heap reference).
//
// Scheduling itself can also be allocation-free: the hot paths of the
// serving pipeline pre-bind one callback per component at construction
// and pass per-event state through AtArg's arg word (a pointer, which
// an interface holds without boxing), instead of capturing it in a new
// closure per event.
package des

import (
	"time"
)

// Time is virtual simulation time in nanoseconds since simulation start.
type Time = int64

// Sim is the event loop. The zero value is ready to use.
//
// Pending events sit in two tiers. The front is a sorted ring of up to
// frontCap events, keys and callbacks side by side, every one of them
// earlier than any event in the heap behind it. A pop takes the front's
// head; a push earlier than the front's maximum inserts from the tail,
// shifting only the events later than it, and when the front is full
// its maximum moves into the heap (where it becomes the root). A push
// later than the front's maximum appends to the front while there is
// room and the key still precedes the heap's root, and goes into the
// heap otherwise. The serving pipeline keeps only a handful of events
// pending — decode iterations, batch completions, the next arrival — so
// they never sift, while deep queues (resilient timers, a thousand-
// event probe) keep the heap's logarithmic cost. The front is an
// implementation detail of the priority queue: the (at, seq) pop order
// is identical with or without it.
//
// The heap sifts keys only: key is a 4-ary min-heap of 24-byte,
// pointer-free (at, seq, slot) keys, so a sift moves no payload and
// stores no pointer (no GC write barrier), and a node's four children
// sit in 96 contiguous bytes. The callbacks live in slab, indexed by a
// key's slot: a payload is written once when its event enters the heap
// and read and cleared once when it leaves, and its slot goes back on
// the free list for the next push.
type Sim struct {
	now   Time
	front [frontCap]evKey // ring: front[(head+i)&frontMask] for i < nf, ascending
	fpay  [frontCap]evPay // fpay[j] is the payload of front[j]
	head  int
	nf    int
	key   []evKey // 4-ary min-heap ordered by (at, seq)
	slab  []evPay // slab[k.slot] is the payload of heap key k
	free  []int32 // slab slots no heap key names
	seq   uint64
}

// frontCap bounds the sorted front; a power of two, so ring indices
// wrap with frontMask.
const (
	frontCap  = 16
	frontMask = frontCap - 1
)

// evKey is an event's ordering key: (at, seq) is unique, so the pop
// order is a strict total order. slot names the event's payload in
// Sim.slab while the key is in the heap; the front ignores it.
type evKey struct {
	at   Time
	seq  uint64
	slot int32
}

// evPay is one scheduled callback: either a plain thunk (fn) or a
// pre-bound callback plus its argument (argFn, arg). The two-form
// layout lets hot components schedule without allocating a closure —
// a long-lived argFn and a pointer-typed arg both fit in interface
// words without heap boxing.
type evPay struct {
	fn    func()
	argFn func(any)
	arg   any
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn at absolute virtual time t. Scheduling in the past
// fires at the current instant (never rewinds the clock).
func (s *Sim) At(t Time, fn func()) {
	s.push(t, evPay{fn: fn})
}

// AtArg schedules fn(arg) at absolute virtual time t. With a pre-bound
// fn and a pointer-typed arg this path allocates nothing, which is why
// the per-request hooks of the serving pipeline use it instead of At.
func (s *Sim) AtArg(t Time, fn func(any), arg any) {
	s.push(t, evPay{argFn: fn, arg: arg})
}

// After schedules fn d nanoseconds from now; negative d means now.
func (s *Sim) After(d time.Duration, fn func()) {
	s.push(s.now+int64(d), evPay{fn: fn})
}

// AfterArg schedules fn(arg) d nanoseconds from now; negative d means
// now. Allocation-free under the same conditions as AtArg.
func (s *Sim) AfterArg(d time.Duration, fn func(any), arg any) {
	s.push(s.now+int64(d), evPay{argFn: fn, arg: arg})
}

// push clamps past deadlines, stamps the FIFO tie-break and places the
// event: into the front when it precedes the front's maximum (evicting
// a full front's maximum into the heap) or when the front has room and
// it precedes the heap's root, into the heap otherwise.
func (s *Sim) push(at Time, p evPay) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	k := evKey{at: at, seq: s.seq}
	switch {
	case s.nf > 0 && lessKey(k, s.front[(s.head+s.nf-1)&frontMask]):
		if s.nf == frontCap {
			// The insertion below overwrites the vacated position.
			s.nf--
			i := (s.head + s.nf) & frontMask
			s.heapPush(s.front[i], s.fpay[i])
		}
		j := s.nf
		for ; j > 0; j-- {
			prev, i := (s.head+j-1)&frontMask, (s.head+j)&frontMask
			if !lessKey(k, s.front[prev]) {
				break
			}
			s.front[i], s.fpay[i] = s.front[prev], s.fpay[prev]
		}
		i := (s.head + j) & frontMask
		s.front[i], s.fpay[i] = k, p
		s.nf++
	case s.nf < frontCap && (len(s.key) == 0 || lessKey(k, s.key[0])):
		i := (s.head + s.nf) & frontMask
		s.front[i], s.fpay[i] = k, p
		s.nf++
	default:
		s.heapPush(k, p)
	}
}

// heapPush parks the payload in a free slab slot and sifts its key
// into the 4-ary heap.
func (s *Sim) heapPush(k evKey, p evPay) {
	if n := len(s.free); n > 0 {
		k.slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.slab[k.slot] = p
	} else {
		k.slot = int32(len(s.slab))
		s.slab = append(s.slab, p)
	}
	s.key = append(s.key, k)
	s.up(len(s.key) - 1)
}

// Step fires the next event. It reports false when no events remain.
func (s *Sim) Step() bool {
	var at Time
	var p evPay
	switch {
	case s.nf > 0:
		at, p = s.front[s.head].at, s.fpay[s.head]
		s.fpay[s.head] = evPay{}
		s.head = (s.head + 1) & frontMask
		s.nf--
	case len(s.key) > 0:
		at = s.key[0].at
		p = s.pop()
	default:
		return false
	}
	s.now = at
	if p.fn != nil {
		p.fn()
	} else {
		p.argFn(p.arg)
	}
	return true
}

// pop removes the heap's root, restoring the heap, and returns its
// payload. The payload's slab slot is cleared, so the slab retains no
// callback references, and freed for reuse.
func (s *Sim) pop() evPay {
	slot := s.key[0].slot
	p := s.slab[slot]
	s.slab[slot] = evPay{}
	s.free = append(s.free, slot)
	n := len(s.key) - 1
	s.key[0] = s.key[n]
	s.key = s.key[:n]
	if n > 0 {
		s.down(0)
	}
	return p
}

// lessKey orders events by (at, seq) — a strict total order, since seq
// is unique per event.
func lessKey(a, b evKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// up sifts element i toward the root of the 4-ary heap by hole
// percolation: beaten parents move down into the hole and the sifted
// key lands once, halving the writes of swap-based sifting while
// producing the identical final layout.
func (s *Sim) up(i int) {
	key := s.key
	k := key[i]
	for i > 0 {
		par := (i - 1) / 4
		if !lessKey(k, key[par]) {
			break
		}
		key[i] = key[par]
		i = par
	}
	key[i] = k
}

// down sifts element i toward the leaves of the 4-ary heap (hole
// percolation, see up).
func (s *Sim) down(i int) {
	key := s.key
	n := len(key)
	k := key[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		bk := key[first]
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if lessKey(key[c], bk) {
				best, bk = c, key[c]
			}
		}
		if !lessKey(bk, k) {
			break
		}
		key[i] = bk
		i = best
	}
	key[i] = k
}

// nextAt returns the earliest pending event time; ok is false when no
// events remain.
func (s *Sim) nextAt() (Time, bool) {
	if s.nf > 0 {
		return s.front[s.head].at, true
	}
	if len(s.key) > 0 {
		return s.key[0].at, true
	}
	return 0, false
}

// RunUntil fires events until the queue is empty or the next event is
// later than deadline; the clock is left at the last fired event (or
// advanced to deadline if it never got there).
func (s *Sim) RunUntil(deadline Time) {
	for {
		at, ok := s.nextAt()
		if !ok || at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Run drains every event. Use only with self-terminating workloads.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int {
	return s.nf + len(s.key)
}
