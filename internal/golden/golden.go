// Package golden is the one way a test pins output: Check compares it
// with testdata/<name>.golden, blank-line separated tables of a header
// line and rows, mostly CSV (floats at %.17g, digests in hex). Only
// `make rebaseline` moves a golden.
package golden

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Check compares got with testdata/<name>.golden, a missing file reading
// as empty. On a mismatch it writes got to testdata/<name>.golden.got and
// fails t with one line per changed cell.
func Check(t testing.TB, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	want, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	if err := cmp.Or(os.MkdirAll("testdata", 0o755), os.WriteFile(path+".got", []byte(got), 0o644)); err != nil {
		t.Fatal(err)
	}
	t.Errorf("%s moved (new output in %[1]s.got; `make rebaseline` moves it over the golden):\n%s", path, diff(path, string(want), got))
}

// diff pairs the lines of want and got in order and names each change
// under its table's header, the golden's first line after a blank one:
// a cell by its line, row (first cell), column (header cell) and old →
// new; a header, or a line whose comma-separated cells do not pair with
// the header's, whole.
func diff(file, want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := max(len(w), len(g))
	w, g = append(w, make([]string, n-len(w))...), append(g, make([]string, n-len(g))...)
	var b strings.Builder
	var header, shown string
	for i := range n {
		lw, lg := w[i], g[i]
		top := i == 0 || w[i-1] == ""
		if top {
			header = lw
		}
		if lw == lg {
			continue
		}
		if header != shown {
			fmt.Fprintf(&b, "table %q:\n", header)
			shown = header
		}
		cols, cw, cg := strings.Split(header, ","), strings.Split(lw, ","), strings.Split(lg, ",")
		if top || len(cols) < 2 || len(cw) != len(cols) || len(cg) != len(cols) {
			fmt.Fprintf(&b, "  %s:%d: %q → %q\n", file, i+1, lw, lg)
			continue
		}
		for k := range cw {
			if cw[k] != cg[k] {
				fmt.Fprintf(&b, "  %s:%d: row %q, column %q: %s → %s\n", file, i+1, cw[0], cols[k], cw[k], cg[k])
			}
		}
	}
	return b.String()
}
