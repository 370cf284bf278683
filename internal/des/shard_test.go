package des

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
)

// starFixture builds the topology the serving layer uses — a front
// shard fanning out to R replica shards over forward links, with
// notice links back — and drives it with a tie-heavy synthetic
// schedule: arrival gaps drawn from {0,0,1,2} ns so same-instant
// router forwards and same-instant completion notices are the common
// case, not the corner case.
type starFixture struct {
	group    *Group
	front    *Shard
	reps     []*Shard
	fwd      []*Link
	back     []*Link
	inflight []int

	// logs capture the executed schedule: one append-only log per
	// shard, owner-written only.
	frontLog []int64
	repLogs  [][]int64

	arrivals int
	total    int
	next     int
	lcg      uint64
	ll       bool // least-loaded routing (reads inflight feedback)
}

type starMsg struct {
	id  int
	rep int
}

func newStar(replicas, total int, ll bool, fwdDelay, backDelay Time) *starFixture {
	f := &starFixture{
		group:    NewGroup(),
		total:    total,
		lcg:      0x9e3779b97f4a7c15,
		ll:       ll,
		inflight: make([]int, replicas),
		repLogs:  make([][]int64, replicas),
	}
	f.front = f.group.AddShard()
	for i := 0; i < replicas; i++ {
		i := i
		rep := f.group.AddShard()
		f.reps = append(f.reps, rep)
		fwd, err := Connect(f.front, rep, fwdDelay, func(arg any) {
			m := arg.(*starMsg)
			f.repLogs[i] = append(f.repLogs[i], rep.Sim.Now(), int64(m.id))
			// One hop of local "service", then the completion notice.
			rep.Sim.AfterArg(1, func(a any) {
				mm := a.(*starMsg)
				f.back[i].Send(rep.Sim.Now()+backDelay, mm)
			}, m)
		})
		if err != nil {
			panic(err)
		}
		back, err := Connect(rep, f.front, backDelay, func(arg any) {
			m := arg.(*starMsg)
			f.inflight[m.rep]--
			f.frontLog = append(f.frontLog, f.front.Sim.Now(), int64(m.id), int64(m.rep))
		})
		if err != nil {
			panic(err)
		}
		f.fwd = append(f.fwd, fwd)
		f.back = append(f.back, back)
	}
	f.front.Sim.At(0, f.arrive)
	return f
}

// gap returns the next tie-heavy inter-arrival gap: 0, 0, 1, or 2 ns.
func (f *starFixture) gap() Time {
	f.lcg = f.lcg*6364136223846793005 + 1442695040888963407
	return Time((f.lcg >> 33) % 4 % 3) // {0,1,2} with 0 twice as likely
}

func (f *starFixture) arrive() {
	now := f.front.Sim.Now()
	pick := f.next % len(f.reps)
	if f.ll {
		for k := 1; k < len(f.reps); k++ {
			c := (f.next + k) % len(f.reps)
			if f.inflight[c] < f.inflight[pick] {
				pick = c
			}
		}
	}
	f.next++
	f.inflight[pick]++
	f.frontLog = append(f.frontLog, now, int64(f.arrivals), int64(pick))
	f.fwd[pick].Send(now+f.fwd[pick].Delay(), &starMsg{id: f.arrivals, rep: pick})
	f.arrivals++
	if f.arrivals < f.total {
		f.front.Sim.At(now+f.gap(), f.arrive)
	}
}

// hashLog feeds one shard's log to h, little-endian.
func hashLog(h hash.Hash64, log []int64) {
	var b [8]byte
	for _, v := range log {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
}

// fingerprint hashes every shard's executed schedule.
func (f *starFixture) fingerprint() uint64 {
	h := fnv.New64a()
	hashLog(h, f.frontLog)
	for _, l := range f.repLogs {
		hashLog(h, l)
	}
	return h.Sum64()
}

// TestShardDeterminismAcrossWorkers pins the tentpole property at the
// DES level: the merged schedule is bit-identical for any worker
// count, for both routing feedback modes, under heavy same-instant
// ties.
func TestShardDeterminismAcrossWorkers(t *testing.T) {
	for _, ll := range []bool{false, true} {
		var ref uint64
		var refN int
		for _, workers := range []int{1, 2, 3, 8} {
			f := newStar(8, 5000, ll, 1, 1)
			f.group.Run(1<<40, workers)
			if f.arrivals != 5000 {
				t.Fatalf("ll=%v workers=%d: %d arrivals, want 5000", ll, workers, f.arrivals)
			}
			if got := len(f.frontLog); got != 5000*3*2 {
				t.Fatalf("ll=%v workers=%d: front log %d entries, want %d (every arrival routed and every notice returned)",
					ll, workers, got, 5000*3*2)
			}
			fp := f.fingerprint()
			if workers == 1 {
				ref, refN = fp, len(f.frontLog)
				continue
			}
			if fp != ref || len(f.frontLog) != refN {
				t.Fatalf("ll=%v workers=%d: schedule fingerprint %x != sequential %x", ll, workers, fp, ref)
			}
		}
	}
}

// TestShardExchangeRaceStress is the targeted stress test for the
// cross-shard exchange: many shards, minimum (1 ns) lookahead, and a
// tie-heavy arrival schedule, run with more workers than cores. Under
// `go test -race` this is the test that exercises the coordinator's
// synchronization — the per-window barrier and the hand-off of link
// buffers across it — with maximal overlap.
func TestShardExchangeRaceStress(t *testing.T) {
	f := newStar(15, 20000, true, 1, 1)
	f.group.Run(1<<40, 8)
	if f.arrivals != 20000 {
		t.Fatalf("%d arrivals, want 20000", f.arrivals)
	}
	want := 20000 * 3 * 2
	if len(f.frontLog) != want {
		t.Fatalf("front log %d entries, want %d", len(f.frontLog), want)
	}
	// The stress run must also match the sequential schedule exactly.
	seq := newStar(15, 20000, true, 1, 1)
	seq.group.Run(1<<40, 1)
	if f.fingerprint() != seq.fingerprint() {
		t.Fatal("8-worker stress schedule diverged from sequential")
	}
}

// TestShardDeadlineAndDrain checks that messages timestamped past the
// deadline are never delivered during the run and come back via Drain
// in send order.
func TestShardDeadlineAndDrain(t *testing.T) {
	g := NewGroup()
	a := g.AddShard()
	b := g.AddShard()
	var got []Time
	l, err := Connect(a, b, 10, func(arg any) { got = append(got, b.Sim.Now()) })
	if err != nil {
		t.Fatal(err)
	}
	// Three sends: two deliverable, one past the deadline.
	a.Sim.At(0, func() {
		l.Send(10, nil)
		l.Send(50, nil)
		l.Send(200, nil)
	})
	g.Run(100, 2)
	if len(got) != 2 || got[0] != 10 || got[1] != 50 {
		t.Fatalf("delivered %v, want [10 50]", got)
	}
	var leftover []Time
	l.Drain(func(at Time, _ any) { leftover = append(leftover, at) })
	if len(leftover) != 1 || leftover[0] != 200 {
		t.Fatalf("drained %v, want [200]", leftover)
	}
	// Drain is consuming: a second pass sees nothing.
	leftover = leftover[:0]
	l.Drain(func(at Time, _ any) { leftover = append(leftover, at) })
	if len(leftover) != 0 {
		t.Fatalf("second drain returned %v", leftover)
	}
}

// TestShardQuiescenceTerminatesFastDeadline checks that a deadline far
// past the last event does not cost one round per lookahead: the run
// must end as soon as the event graph empties, even with a deadline
// ~2^50 ns (two weeks of virtual time) and 1 ns lookahead.
func TestShardQuiescenceTerminatesFastDeadline(t *testing.T) {
	f := newStar(4, 200, false, 1, 1)
	f.group.Run(1<<50, 2) // would be ~2^50 windows if T did not skip idle stretches
	if f.arrivals != 200 {
		t.Fatalf("%d arrivals, want 200", f.arrivals)
	}
}

func TestShardLookaheadViolationPanics(t *testing.T) {
	g := NewGroup()
	a := g.AddShard()
	b := g.AddShard()
	l, err := Connect(a, b, 5, func(any) {})
	if err != nil {
		t.Fatal(err)
	}
	a.Sim.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("send inside lookahead window did not panic")
			}
		}()
		l.Send(104, nil) // now+4 < now+5
	})
	g.Run(1000, 1)
}

func TestConnectValidation(t *testing.T) {
	g := NewGroup()
	a := g.AddShard()
	b := g.AddShard()
	if _, err := Connect(a, b, 0, func(any) {}); err == nil {
		t.Error("zero delay accepted")
	}
	if _, err := Connect(a, b, 1, nil); err == nil {
		t.Error("nil deliver accepted")
	}
	if _, err := Connect(nil, b, 1, func(any) {}); err == nil {
		t.Error("nil shard accepted")
	}
	other := NewGroup().AddShard()
	if _, err := Connect(a, other, 1, func(any) {}); err == nil {
		t.Error("cross-group link accepted")
	}
	if fmt.Sprintf("%d%d", a.ID(), b.ID()) != "01" {
		t.Error("shard IDs not in creation order")
	}
}

// TestShardPingPongCompletes is the regression test for the CMB
// coordinator's early stop: two shards whose only work is each other's
// messages bounce one message 100 000 times. The old quiescence scan
// could see both shards idle and both links balanced between a pop and
// the reply it triggers, and end the run after a few thousand trips on
// two workers. The windowed coordinator ends only when nothing is left
// before the deadline, so this must complete every time (run it with
// -count=20).
func TestShardPingPongCompletes(t *testing.T) {
	const trips = 100000
	const delay = Time(1000)
	g := NewGroup()
	a, b := g.AddShard(), g.AddShard()
	var ab, ba *Link
	left := trips
	ab, err := Connect(a, b, delay, func(arg any) { ba.Send(b.Sim.Now()+delay, arg) })
	if err != nil {
		t.Fatal(err)
	}
	ba, err = Connect(b, a, delay, func(arg any) {
		if left--; left > 0 {
			ab.Send(a.Sim.Now()+delay, arg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Sim.At(0, func() { ab.Send(delay, nil) })
	g.Run(Time(trips+1)*2*delay, 2)
	if left != 0 {
		t.Fatalf("%d of %d round trips never completed", left, trips)
	}
}

// meshFixture is a group with an arbitrary link topology. Every shard
// injects a few messages from local timer events; a delivered message
// is logged and, while it has hops left, forwarded on an outbound link
// picked by the receiving shard's own generator, stamped the link delay
// plus a tie-heavy extra of {0,0,1,2} ns. All state a handler touches
// belongs to the shard it runs on, so the logs are a function of the
// merged schedule alone.
type meshFixture struct {
	group  *Group
	shards []*Shard
	out    [][]*Link
	logs   [][]int64
	lcg    []uint64
}

type meshMsg struct{ id, hops int }

func (f *meshFixture) rnd(i int) uint64 {
	f.lcg[i] = f.lcg[i]*6364136223846793005 + 1442695040888963407
	return f.lcg[i] >> 33
}

func (f *meshFixture) connect(t *testing.T, src, dst int, delay Time) {
	t.Helper()
	id := int64(len(f.group.links))
	l, err := Connect(f.shards[src], f.shards[dst], delay, func(arg any) {
		m := arg.(*meshMsg)
		f.logs[dst] = append(f.logs[dst], f.shards[dst].Sim.Now(), id, int64(m.id), int64(m.hops))
		if m.hops > 0 {
			m.hops--
			f.forward(dst, m)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	f.out[src] = append(f.out[src], l)
}

func (f *meshFixture) forward(i int, m *meshMsg) {
	l := f.out[i][f.rnd(i)%uint64(len(f.out[i]))]
	l.Send(f.shards[i].Sim.Now()+l.Delay()+Time(f.rnd(i)%4%3), m)
}

// newMesh builds n shards wired as a ring (each to its successor) or
// all-to-all, with link delays drawn from 1..maxDelay, and schedules
// inject injections of hops-hop messages on every shard.
func newMesh(t *testing.T, seed uint64, n int, allToAll bool, maxDelay Time, inject, hops int) *meshFixture {
	f := &meshFixture{group: NewGroup(), out: make([][]*Link, n), logs: make([][]int64, n), lcg: make([]uint64, n)}
	for i := 0; i < n; i++ {
		f.shards = append(f.shards, f.group.AddShard())
		f.lcg[i] = seed*0x9e3779b97f4a7c15 + uint64(i)
	}
	topo := seed ^ 0xdeadbeef
	delay := func() Time {
		topo = topo*6364136223846793005 + 1442695040888963407
		return 1 + Time(topo>>33)%maxDelay
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if allToAll && i != j || !allToAll && j == (i+1)%n {
				f.connect(t, i, j, delay())
			}
		}
	}
	for i := 0; i < n; i++ {
		i, sent := i, 0
		var tick func()
		tick = func() {
			f.forward(i, &meshMsg{id: i*inject + sent, hops: hops})
			if sent++; sent < inject {
				f.shards[i].Sim.At(f.shards[i].Sim.Now()+Time(f.rnd(i)%3), tick)
			}
		}
		f.shards[i].Sim.At(Time(f.rnd(i)%4), tick)
	}
	return f
}

func (f *meshFixture) fingerprint() (uint64, int) {
	h := fnv.New64a()
	n := 0
	for _, log := range f.logs {
		n += len(log) / 4
		hashLog(h, log)
		h.Write([]byte{0xff})
	}
	return h.Sum64(), n
}

// TestShardMeshDeterminism runs random rings and all-to-all groups with
// heterogeneous link delays (the window is the smallest of them) and
// checks that every message makes all its hops and that the schedule
// is the same for every worker count.
func TestShardMeshDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, allToAll := range []bool{false, true} {
			n := 3 + int(seed)%5
			const inject, hops = 40, 25
			var ref uint64
			for _, workers := range []int{1, 2, 3, 8} {
				f := newMesh(t, seed, n, allToAll, 7, inject, hops)
				f.group.Run(1<<40, workers)
				fp, deliveries := f.fingerprint()
				if want := n * inject * (hops + 1); deliveries != want {
					t.Fatalf("seed %d allToAll=%v workers=%d: %d deliveries, want %d", seed, allToAll, workers, deliveries, want)
				}
				if workers == 1 {
					ref = fp
				} else if fp != ref {
					t.Fatalf("seed %d allToAll=%v workers=%d: fingerprint %x != sequential %x", seed, allToAll, workers, fp, ref)
				}
			}
		}
	}
}

// TestShardDeadlineCutsMesh stops a mesh mid-flight: what ran before
// the deadline and what Drain hands back must not depend on the worker
// count either.
func TestShardDeadlineCutsMesh(t *testing.T) {
	var ref uint64
	for _, workers := range []int{1, 2, 3, 8} {
		f := newMesh(t, 11, 5, true, 5, 60, 40)
		f.group.Run(90, workers)
		h := fnv.New64a()
		fp, _ := f.fingerprint()
		fmt.Fprintf(h, "%x", fp)
		for _, l := range f.group.links {
			l.Drain(func(at Time, arg any) { fmt.Fprintf(h, " %d:%d", at, arg.(*meshMsg).id) })
		}
		if workers == 1 {
			ref = h.Sum64()
		} else if h.Sum64() != ref {
			t.Fatalf("workers=%d: schedule or drained messages differ from sequential", workers)
		}
	}
}

// TestShardHeadOfLineBlocking sends out of timestamp order on one link:
// the early message sits behind the late one until the late one is due,
// and is then delivered at the receiver's clock, for any worker count.
// A Send issued before Run is delivered like any other.
func TestShardHeadOfLineBlocking(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		g := NewGroup()
		a, b := g.AddShard(), g.AddShard()
		var got []string
		note := func(what string) func() {
			return func() { got = append(got, fmt.Sprintf("%s@%d", what, b.Sim.Now())) }
		}
		l, err := Connect(a, b, 5, func(arg any) { note(arg.(string))() })
		if err != nil {
			t.Fatal(err)
		}
		l.Send(7, "pre-run")
		a.Sim.At(0, func() {
			l.Send(100, "late")
			l.Send(10, "early")
		})
		b.Sim.At(20, note("local"))
		b.Sim.At(50, note("local"))
		g.Run(1000, workers)
		want := "[pre-run@7 local@20 local@50 early@50 late@100]"
		if fmt.Sprint(got) != want {
			t.Fatalf("workers=%d: schedule %v, want %s", workers, got, want)
		}
	}
}

// TestShardWithoutLinks checks that a shard nothing can reach is not
// held to the group's window: on one worker its whole timeline, up to
// the deadline, runs back to back in a single window while the linked
// shards need thousands.
func TestShardWithoutLinks(t *testing.T) {
	var ref uint64
	for _, workers := range []int{1, 2, 3, 8} {
		f := newMesh(t, 3, 4, false, 3, 50, 50)
		lone := f.group.AddShard()
		// order numbers every timer event of the group in execution order;
		// it is only kept (and only meaningful) on one worker.
		var order, first, last, fired int
		stamp := func() int {
			if workers == 1 {
				order++
			}
			return order
		}
		var tick func()
		tick = func() {
			last = stamp()
			if fired++; fired == 1 {
				first = last
			}
			lone.Sim.At(lone.Sim.Now()+10, tick)
		}
		lone.Sim.At(5, tick)
		for _, s := range f.shards {
			s := s
			var count func()
			count = func() { stamp(); s.Sim.At(s.Sim.Now()+1, count) }
			s.Sim.At(0, count)
		}
		f.group.Run(2000, workers)
		if fired != 200 { // 5, 15, ..., 1995
			t.Fatalf("workers=%d: lone shard fired %d events, want 200", workers, fired)
		}
		if workers == 1 && last-first != fired-1 {
			t.Fatalf("lone shard's %d events span %d..%d of the global order: not one window", fired, first, last)
		}
		fp, _ := f.fingerprint()
		if workers == 1 {
			ref = fp
		} else if fp != ref {
			t.Fatalf("workers=%d: mesh schedule changed beside a lone shard", workers)
		}
	}

	// A group with no links at all has an unbounded window.
	g := NewGroup()
	s := g.AddShard()
	n := 0
	var tick func()
	tick = func() { n++; s.Sim.At(s.Sim.Now()+1, tick) }
	s.Sim.At(0, tick)
	g.Run(999, 4)
	if n != 1000 {
		t.Fatalf("link-less group fired %d events, want 1000", n)
	}
}

// TestShardDrainSendOrder checks that messages stamped past the
// deadline come out of Drain in the order they were sent, not in
// timestamp order, however many windows apart they were sent.
func TestShardDrainSendOrder(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := NewGroup()
		a, b := g.AddShard(), g.AddShard()
		l, err := Connect(a, b, 3, func(any) { t.Error("message past the deadline delivered") })
		if err != nil {
			t.Fatal(err)
		}
		const deadline, sends = 500, 50
		for i := 0; i < sends; i++ {
			i := i
			a.Sim.At(Time(10*i), func() { l.Send(deadline+1000-Time(10*i), i) })
		}
		g.Run(deadline, workers)
		next := 0
		l.Drain(func(at Time, arg any) {
			if arg.(int) != next || at != deadline+1000-Time(10*next) {
				t.Fatalf("workers=%d: drained message %v at %d, want #%d", workers, arg, at, next)
			}
			next++
		})
		if next != sends {
			t.Fatalf("workers=%d: drained %d messages, want %d", workers, next, sends)
		}
	}
}
