package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json, the contract the command's output must
// keep matching.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// checkMetrics fails unless got holds exactly the wanted names with
// their units and finite values.
func checkMetrics(t *testing.T, workload string, got map[string]metric, want map[string]string) {
	t.Helper()
	var problems []string
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			problems = append(problems, "missing "+name)
		case m.Unit != unit:
			problems = append(problems, name+" has unit "+m.Unit+", BENCHMARK.json says "+unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			problems = append(problems, name+" is not finite")
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			problems = append(problems, name+" is not in BENCHMARK.json")
		}
	}
	sort.Strings(problems)
	if len(problems) > 0 {
		t.Errorf("%s: %s", workload, strings.Join(problems, "; "))
	}
}

// TestWorkloadsAtSmallScale runs every workload's end-to-end pass and
// one traced pass at -scale 0.02, checks that no operation fails and
// that the metric names and units are those of BENCHMARK.json, and
// round-trips the records through -compare.
func TestWorkloadsAtSmallScale(t *testing.T) {
	man := readManifest(t)
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(man.Workloads), len(workloads))
	}
	endToEnd := map[string]string{}
	for _, m := range man.EndToEnd {
		endToEnd[m.Name] = m.Unit
		g, ok := gates[m.Name]
		if !ok || g.bound != m.Bound || g.higherBetter != (m.Better == "higher") {
			t.Errorf("%s: BENCHMARK.json says %s/%v, compare.go gates it %+v", m.Name, m.Better, m.Bound, g)
		}
	}
	perLayer := map[string]string{}
	for _, m := range man.PerLayer {
		perLayer[m.Name] = m.Unit
	}

	// The five runs are independent, so they share the cores.
	recs := make([]record, len(workloads))
	var traced record
	t.Run("runs", func(t *testing.T) {
		for i, def := range workloads {
			if man.Workloads[i].Name != def.name {
				t.Errorf("workload %d is %s in BENCHMARK.json and %s in the command", i, man.Workloads[i].Name, def.name)
			}
			t.Run(def.name, func(t *testing.T) {
				t.Parallel()
				rec := execute(def, 1, 0.01, 0.02, false, t.TempDir(), io.Discard)
				if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
				}
				checkMetrics(t, def.name, rec.Metrics, endToEnd)
				for name, m := range rec.Metrics {
					if m.Value == 0 {
						t.Errorf("end-to-end metric %s is zero", name)
					}
				}
				recs[i] = rec
			})
		}
		t.Run("traced", func(t *testing.T) {
			t.Parallel()
			traced = execute(workloads[0], 1, 0.01, 0.02, true, t.TempDir(), io.Discard)
			if !traced.Correct {
				t.Errorf("attempted=%d failed=%d", traced.Attempted, traced.Failed)
			}
			checkMetrics(t, "traced "+traced.Workload, traced.Metrics, perLayer)
		})
	})

	if line, err := resultLine(recs[:1]); err != nil || !strings.HasPrefix(line, `{"correct":true,"attempted":`) {
		t.Errorf("result line %q: %v", line, err)
	}

	path := filepath.Join(t.TempDir(), "a.json")
	if err := appendRecords(path, append(recs, traced)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, path, path); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"search_read", "search_live", "serve_sweep", "fleet_sharded",
		"query_p99_us", "mutation_p50_us", "sim_slo_rate_max", "sim_digest"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-compare output lacks %q:\n%s", want, out.String())
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		if !strings.HasSuffix(line, " same") {
			t.Errorf("a file compared with itself: %s", line)
		}
	}
}

func TestVerdict(t *testing.T) {
	timed, exact := gate{false, 0.10}, gate{true, 0}
	side := func(vs ...float64) map[uint64]float64 {
		m := map[uint64]float64{}
		for i, v := range vs {
			m[uint64(i)] = v
		}
		return m
	}
	for _, tc := range []struct {
		name string
		g    gate
		a, b map[uint64]float64
		want string
	}{
		{"within bound", timed, side(100, 101, 102), side(105, 106, 107), "same"},
		{"slower", timed, side(100, 101, 102), side(120, 121, 122), "worse"},
		{"faster", timed, side(100, 101, 102), side(80, 81, 82), "better"},
		{"noisy", timed, side(80, 100, 130), side(120, 121, 122), "unresolved"},
		{"exact equal", exact, side(0.9, 0.8), side(0.9, 0.8), "same"},
		{"exact lower", exact, side(0.9, 0.8), side(0.9, 0.7), "worse"},
		{"exact no shared seed", exact, side(0.9), map[uint64]float64{7: 0.9}, "unresolved"},
	} {
		if got := verdict(tc.g, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestFoldByPackage(t *testing.T) {
	top := `File: vlbench
Type: cpu
Showing nodes accounting for 100ms, 100% of 100ms total
      flat  flat%   sum%        cum   cum%
      50ms 50.00% 50.00%       60ms 60.00%  vectorliterag/internal/pq.(*LUT).scanIDs8
      30ms 30.00% 80.00%       30ms 30.00%  runtime.mallocgc
      10ms 10.00% 90.00%       10ms 10.00%  internal/runtime/atomic.(*Uint32).Load
      10ms 10.00%   100%      100ms   100%  main.(*searchRead).pass
`
	shares, err := foldByPackage([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	if shares["pq"] != 0.5 || shares["runtime"] != 0.4 || shares["des"] != 0 {
		t.Errorf("shares %v", shares)
	}
}
