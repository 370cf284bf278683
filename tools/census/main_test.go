package main

import (
	"strings"
	"testing"
)

// TestCensusFixture: in testdata/mod, a func only a test calls, a func
// reached only from it, a method no interface names, an option field
// nothing sets and a field only a test reads are the findings; the
// allowlist excuses them only with a reason, a ".*" entry excuses every
// finding under its prefix, and a stale entry fails too.
func TestCensusFixture(t *testing.T) {
	excuse := "lib.Dead kept\nlib.DeadChain kept\nlib.T.Extra kept\nlib.Options.Unset kept\nlib.counter.* kept\n"
	for _, tc := range []struct {
		allow string
		code  int
		want  string
	}{
		{"", 1, "unreached lib.Dead\nunreached lib.DeadChain\nunreached lib.T.Extra\nunset lib.Options.Unset\nwrite-only lib.counter.last\ncensus: 5 problem(s)"},
		{"# why each stays\n\n" + excuse, 0, "census: clean (5 allowlisted)\n"},
		{strings.Replace(excuse, "lib.Dead kept", "lib.Dead", 1), 1, "allowlist entry without a reason: lib.Dead\ncensus: 1 problem(s)"},
		{excuse + "lib.Used kept\n", 1, "stale allowlist entry: lib.Used\ncensus: 1 problem(s)"},
		{excuse + "lib.T.* kept\n", 1, "stale allowlist entry: lib.T.*\ncensus: 1 problem(s)"},
	} {
		var out strings.Builder
		if code := run("testdata/mod", tc.allow, &out); code != tc.code || !strings.HasPrefix(out.String(), tc.want) {
			t.Errorf("allowlist %q: exit %d, output:\n%s\nwant exit %d, output starting:\n%s", tc.allow, code, out.String(), tc.code, tc.want)
		}
	}
}
