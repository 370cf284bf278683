package fault

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"vectorliterag/internal/des"
)

func TestParseRoundTrip(t *testing.T) {
	in := "crash@20s:r0:10s,straggler@35s:r1:8s:x2.5,bandwidth@50s:r2:10s:x3"
	s, err := Parse(in)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := Schedule{
		{Kind: Crash, Replica: 0, At: 20 * time.Second, Duration: 10 * time.Second},
		{Kind: Straggler, Replica: 1, At: 35 * time.Second, Duration: 8 * time.Second, Factor: 2.5},
		{Kind: Bandwidth, Replica: 2, At: 50 * time.Second, Duration: 10 * time.Second, Factor: 3},
	}
	if len(s) != len(want) {
		t.Fatalf("got %d events, want %d", len(s), len(want))
	}
	for i := range want {
		if s[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, s[i], want[i])
		}
	}
	// String renders back into the same grammar; reparsing reproduces
	// the schedule.
	s2, err := Parse(s.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", s.String(), err)
	}
	for i := range s {
		if s2[i] != s[i] {
			t.Errorf("round-trip event %d: got %+v, want %+v", i, s2[i], s[i])
		}
	}
}

func TestParseEmpty(t *testing.T) {
	s, err := Parse("  ")
	if err != nil || s != nil {
		t.Fatalf("empty string: got %v, %v; want nil, nil", s, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"boom@20s:r0:10s",        // unknown kind
		"crash:r0:10s",           // missing @
		"crash@20s:r0",           // missing duration
		"crash@20s:0:10s",        // replica not rN
		"crash@20s:r0:10s:x2",    // crash takes no factor
		"straggler@20s:r0:10s",   // straggler needs a factor
		"straggler@20s:r0:10s:2", // factor not xN
		"crash@nope:r0:10s",      // bad onset
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestValidate(t *testing.T) {
	for _, ok := range []Schedule{
		{{Kind: Crash, Replica: 1, At: time.Second, Duration: time.Second}},
		{{Kind: Straggler, Replica: 0, At: time.Second, Duration: time.Second, Factor: maxFactor}},
	} {
		if err := ok.Validate(2); err != nil {
			t.Fatalf("valid schedule %+v rejected: %v", ok, err)
		}
	}
	cases := []Schedule{
		{{Kind: "boom", Replica: 0, At: 0, Duration: time.Second}},
		{{Kind: Crash, Replica: 2, At: 0, Duration: time.Second}},            // replica out of range
		{{Kind: Crash, Replica: 0, At: -time.Second, Duration: time.Second}}, // negative onset
		{{Kind: Crash, Replica: 0, At: 0, Duration: 0}},                      // zero duration
		{{Kind: Straggler, Replica: 0, At: 0, Duration: time.Second}},        // factor < 1
		{{Kind: Bandwidth, Replica: 0, At: 0, Duration: time.Second, Factor: 0.5}},
	}
	for i, s := range cases {
		if err := s.Validate(2); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, s)
		}
	}
}

// FuzzParse: any input either fails to parse or round-trips through
// String to an equal schedule, and every schedule Validate accepts has
// finite slowdown factors within maxFactor.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"crash@20s:r0:10s",
		"straggler@35s:r1:8s:x2.5",
		"crash@20s:r0:10s,straggler@35s:r1:8s:x2.5,bandwidth@50s:r2:10s:x3",
		"crash@30s:r0:20s,straggler@60s:r1:20s:x5",
		"straggler@10s:r0:5s:xNaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse(in)
		if err != nil {
			return
		}
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", in, s.String(), err)
		}
		if len(back) != len(s) {
			t.Fatalf("%q round-trips to %d events, want %d", in, len(back), len(s))
		}
		replicas := 1
		for i, ev := range s {
			// Compare factors by bits so a NaN equals itself.
			got := back[i]
			if got.Kind != ev.Kind || got.Replica != ev.Replica || got.At != ev.At || got.Duration != ev.Duration ||
				math.Float64bits(got.Factor) != math.Float64bits(ev.Factor) {
				t.Fatalf("%q event %d round-trips to %+v, want %+v", in, i, got, ev)
			}
			replicas = max(replicas, ev.Replica+1)
		}
		if s.Validate(replicas) != nil {
			return
		}
		for i, ev := range s {
			if ev.Kind != Crash && (math.IsNaN(ev.Factor) || math.IsInf(ev.Factor, 0) || ev.Factor > maxFactor) {
				t.Fatalf("%q event %d: Validate accepted factor %v", in, i, ev.Factor)
			}
		}
	})
}

func TestInstallOrderIndependent(t *testing.T) {
	s := Schedule{
		{Kind: Straggler, Replica: 1, At: 5 * time.Second, Duration: 2 * time.Second, Factor: 2},
		{Kind: Crash, Replica: 0, At: 5 * time.Second, Duration: 3 * time.Second},
		{Kind: Crash, Replica: 2, At: 2 * time.Second, Duration: 1 * time.Second},
	}
	rev := Schedule{s[2], s[1], s[0]}
	trace := func(sched Schedule) []string {
		var sim des.Sim
		var log []string
		hooks := Hooks{
			Crash:   func(r int) { log = append(log, fmt.Sprint(sim.Now())+" crash "+itoa(r)) },
			Recover: func(r int) { log = append(log, fmt.Sprint(sim.Now())+" recover "+itoa(r)) },
			SlowLLM: func(r int, f float64, until des.Time) {
				log = append(log, fmt.Sprint(sim.Now())+" slow-llm "+itoa(r))
			},
		}
		Install(&sim, sched, hooks)
		sim.RunUntil(des.Time(20 * time.Second))
		return log
	}
	a, b := trace(s), trace(rev)
	if strings.Join(a, "|") != strings.Join(b, "|") {
		t.Fatalf("install order leaked into the event trace:\n%v\nvs\n%v", a, b)
	}
	if len(a) != 5 { // 2 crashes + 2 recoveries + 1 slowdown
		t.Fatalf("got %d hook firings, want 5: %v", len(a), a)
	}
}

func itoa(i int) string { return string(rune('0' + i)) }
