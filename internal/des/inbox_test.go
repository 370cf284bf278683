package des

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRunFedDeliveryRule forces every tie the delivery rule decides: a
// message stamped at a pending local event's instant, two messages with
// one stamp, a local event a handler schedules for the instant that is
// already executing, and a message stamped past the deadline.
func TestRunFedDeliveryRule(t *testing.T) {
	var sim Sim
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%d:%s", sim.Now(), what)) }
	in := NewInbox(func(arg any) { note(*arg.(*string)) }, 0)
	msg := func(at Time, name string) { in.Post(at, &name) }

	sim.At(10, func() {
		note("A")
		sim.At(10, func() { note("B") }) // same instant, scheduled while it runs
		sim.At(20, func() { note("C") })
	})
	msg(10, "m1") // equal to the pending local event A
	msg(10, "m2") // equal to another message
	msg(20, "m3") // equal to C, which A schedules before m3 may enter
	msg(35, "m4") // no local event anywhere near
	msg(51, "m5") // past the deadline

	sim.RunFed(50, in)

	// A was scheduled before the messages entered, so it fires first; m1
	// and m2 entered (in post order) before A ran and so precede B; C was
	// scheduled at t=10, m3 entered only once t=20 was next.
	want := []string{"10:A", "10:m1", "10:m2", "10:B", "20:C", "20:m3", "35:m4"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("order %v, want %v", log, want)
	}
	if sim.Now() != 50 {
		t.Fatalf("clock at %d, want the deadline", sim.Now())
	}
	if in.Len() != 1 || sim.Pending() != 0 {
		t.Fatalf("%d undelivered, %d events queued; want the one message past the deadline and nothing else", in.Len(), sim.Pending())
	}
	var left []string
	in.Drain(func(at Time, arg any) { left = append(left, fmt.Sprintf("%d:%s", at, *arg.(*string))) })
	if !reflect.DeepEqual(left, []string{"51:m5"}) || in.Len() != 0 {
		t.Fatalf("drained %v", left)
	}
}

// TestRunFedHeadOfLine replays TestShardHeadOfLineBlocking on an inbox:
// it is a FIFO exactly like a link, so a message stamped earlier than
// its predecessor sits behind it until the predecessor is due and is
// then delivered at the receiver's clock.
func TestRunFedHeadOfLine(t *testing.T) {
	var sim Sim
	var got []string
	note := func(what string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%d", what, sim.Now())) }
	}
	in := NewInbox(func(arg any) { note(arg.(string))() }, 3)
	in.Post(7, "first")
	in.Post(100, "late")
	in.Post(10, "early")
	sim.At(20, note("local"))
	sim.At(50, note("local"))
	sim.RunFed(1000, in)
	if want := "[first@7 local@20 local@50 early@50 late@100]"; fmt.Sprint(got) != want {
		t.Fatalf("schedule %v, want %s", got, want)
	}
}

// receiver is a timeline with its own self-rescheduling events that
// also reacts to messages. Everything sits on a coarse grid, so message
// stamps collide with local events and with each other all the time, and
// what it schedules next depends on the order it saw things in: one
// swapped tie changes the rest of the log.
type receiver struct {
	sim   *Sim
	state uint64
	log   []string
}

func (r *receiver) rnd(n uint64) uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return (r.state >> 33) % n
}

func (r *receiver) local(id int) func() {
	return func() {
		r.log = append(r.log, fmt.Sprintf("%d:L%d", r.sim.Now(), id))
		if r.rnd(4) > 0 {
			r.sim.At(r.sim.Now()+Time(5*r.rnd(3)), r.local(id+1))
		}
	}
}

func (r *receiver) deliver(arg any) {
	r.log = append(r.log, fmt.Sprintf("%d:M%d", r.sim.Now(), *arg.(*int)))
	r.sim.At(r.sim.Now()+Time(5*r.rnd(2)), r.local(1000))
}

func (r *receiver) start(seed uint64) {
	r.state = seed
	for k := 0; k < 6; k++ {
		r.sim.At(Time(5*r.rnd(40)), r.local(100*k))
	}
}

// TestRunFedMatchesLink is the equivalence the link-free fleet stands
// on: a receiver handed its whole message stream up front (RunFed) logs
// exactly what it logs when the same messages arrive over a Link from a
// sender shard while a Group runs both, on one worker or two, and leaves
// exactly the messages stamped past the deadline undelivered.
func TestRunFedMatchesLink(t *testing.T) {
	const delay, deadline = Time(7), Time(180)
	for seed := uint64(1); seed <= 40; seed++ {
		// The message stream: grid stamps, non-decreasing, many duplicates,
		// the last few past the deadline.
		gen := receiver{state: seed * 977}
		var stamps []Time
		at := delay
		for len(stamps) < 60 {
			at += Time(5 * gen.rnd(3))
			stamps = append(stamps, at+3*Time(gen.rnd(2))) // some off the grid too
			if n := len(stamps); n > 1 && stamps[n-1] < stamps[n-2] {
				stamps[n-1] = stamps[n-2]
			}
		}
		ids := make([]int, len(stamps))
		for i := range ids {
			ids[i] = i
		}

		var solo Sim
		fed := receiver{sim: &solo}
		fed.start(seed)
		in := NewInbox(fed.deliver, len(stamps))
		for i, at := range stamps {
			in.Post(at, &ids[i])
		}
		solo.RunFed(deadline, in)

		for _, workers := range []int{1, 2} {
			g := NewGroup()
			src, dst := g.AddShard(), g.AddShard()
			linked := receiver{sim: &dst.Sim}
			linked.start(seed)
			l, err := Connect(src, dst, delay, linked.deliver)
			if err != nil {
				t.Fatal(err)
			}
			for i, at := range stamps {
				src.Sim.At(at-delay, func() { l.Send(at, &ids[i]) })
			}
			g.Run(deadline, workers)
			if !reflect.DeepEqual(fed.log, linked.log) {
				t.Fatalf("seed %d workers %d: fed and linked receivers diverged\n fed    %v\n linked %v", seed, workers, fed.log, linked.log)
			}
		}
		past := 0
		for _, at := range stamps {
			if at > deadline {
				past++
			}
		}
		if past == 0 || past == len(stamps) || in.Len() != past {
			t.Fatalf("seed %d: %d of %d messages undelivered, %d stamped past the deadline", seed, in.Len(), len(stamps), past)
		}
	}
}

// TestFeedInChunksMatchesRunFed is the contract least-loaded fleet lanes
// run on: a receiver advanced by Feed in short rounds, each message
// posted only once the previous round's bound is behind its stamp, logs
// what RunFed logs with the whole stream posted up front, and each
// round reports the earliest instant left without moving the clock past
// the last event it fired.
func TestFeedInChunksMatchesRunFed(t *testing.T) {
	const deadline = Time(180)
	for seed := uint64(1); seed <= 40; seed++ {
		gen := receiver{state: seed * 131}
		var stamps []Time
		for at := Time(0); len(stamps) < 60; {
			at += Time(5 * gen.rnd(3))
			stamps = append(stamps, at+Time(gen.rnd(2)))
		}
		ids := make([]int, len(stamps))
		for i := range ids {
			ids[i] = i
		}

		var whole Sim
		ref := receiver{sim: &whole}
		ref.start(seed)
		in := NewInbox(ref.deliver, 0)
		for i, at := range stamps {
			in.Post(at, &ids[i])
		}
		whole.RunFed(deadline, in)

		var cut Sim
		got := receiver{sim: &cut}
		got.start(seed)
		in = NewInbox(got.deliver, 0)
		k := 0
		for last := Time(-1); last < deadline; {
			for ; k < len(stamps) && stamps[k] <= last+8; k++ {
				in.Post(stamps[k], &ids[k])
			}
			fired, before := len(got.log), cut.Now()
			last = min(last+1+Time(gen.rnd(8)), deadline)
			next := cut.Feed(last, in)
			if next <= last || cut.Now() > last || (len(got.log) == fired && cut.Now() != before) {
				t.Fatalf("seed %d: a round through %d reports %d next and moved the clock %d → %d", seed, last, next, before, cut.Now())
			}
		}
		if !reflect.DeepEqual(ref.log, got.log) {
			t.Fatalf("seed %d: rounds and one run diverged\n rounds %v\n run    %v", seed, got.log, ref.log)
		}
	}
}

// TestRunFedNoInbox: with nothing to feed, RunFed is RunUntil.
func TestRunFedNoInbox(t *testing.T) {
	var sim Sim
	fired := 0
	sim.At(5, func() { fired++ })
	sim.At(15, func() { fired++ })
	sim.RunFed(10)
	if fired != 1 || sim.Now() != 10 || sim.Pending() != 1 {
		t.Fatalf("fired %d, now %d, pending %d", fired, sim.Now(), sim.Pending())
	}
}
