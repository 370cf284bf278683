package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// gate is how one end-to-end metric is judged: which direction is
// better and the share of the baseline's median by which it may worsen
// before that counts as a regression. A zero bound means exact: the
// metric is simulated or a count, and must repeat for the same seed.
type gate struct {
	higherBetter bool
	bound        float64
}

// gates holds the six metrics every workload shares, with the bounds
// BENCHMARK.json gives them, and each workload's own metrics.
var gates = map[string]gate{
	"setup_s":    {false, 0.25},
	"wall_s":     {false, 0.25},
	"alloc_mb":   {false, 0.05},
	"op_p50_us":  {false, 0.25},
	"op_tail_us": {false, 0.25},
	"quality":    {true, 0.10},

	"query_p50_us":     {false, 0.10},
	"query_p99_us":     {false, 0.10},
	"mutation_p50_us":  {false, 0.10},
	"recall_at_10":     {true, 0},
	"run_p50_ms":       {false, 0.10},
	"run_p95_ms":       {false, 0.10},
	"sim_req_per_s":    {true, 0.10},
	"sim_slo_rate_max": {true, 0},
	"sim_attainment":   {true, 0},
	"sim_ttft_p50_ms":  {false, 0},
	"sim_ttft_p90_ms":  {false, 0},
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if !rec.Trace {
			recs = append(recs, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end records", path)
	}
	return recs, nil
}

// bySeed collects one metric's value per seed over a side's records of
// one workload.
func bySeed(recs []record, workload, name string) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, rec := range recs {
		if rec.Workload != workload {
			continue
		}
		if m, ok := rec.Metrics[name]; ok {
			out[rec.Seed] = m.Value
		} else if m, ok := rec.Named[name]; ok {
			out[rec.Seed] = m.Value
		}
	}
	return out
}

func values(m map[uint64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// verdict judges side b against baseline a. Exact metrics compare seed
// by seed; timed ones by medians, and are unresolved when either side's
// own quartile spread is wider than the bound.
func verdict(g gate, a, b map[uint64]float64) string {
	_, am, _ := quartiles(values(a))
	_, bm, _ := quartiles(values(b))
	worse := bm > am
	if g.higherBetter {
		worse = bm < am
	}
	if g.bound == 0 {
		shared, equal := 0, true
		for seed, av := range a {
			if bv, ok := b[seed]; ok {
				shared++
				equal = equal && av == bv
			}
		}
		switch {
		case shared == 0:
			return "unresolved" // no seed in common: exact metrics need one
		case equal:
			return "same"
		case worse:
			return "worse"
		}
		return "better"
	}
	for _, side := range []map[uint64]float64{a, b} {
		q1, q2, q3 := quartiles(values(side))
		if q2 != 0 && (q3-q1)/q2 > g.bound {
			return "unresolved"
		}
	}
	change := (bm - am) / am
	if change < 0 {
		change = -change
	}
	switch {
	case change <= g.bound:
		return "same"
	case worse:
		return "worse"
	}
	return "better"
}

// compareFiles prints one row per workload and end-to-end metric with
// each side's median and quartiles and the verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(gates))
	for name := range gates {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-17s %6s  %-38s %-38s %s\n", "workload", "metric", "bound",
		"a: median [q1, q3] (n)", "b: median [q1, q3] (n)", "verdict")
	for _, def := range workloads {
		for _, name := range names {
			av, bv := bySeed(a, def.name, name), bySeed(b, def.name, name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			bound := "exact"
			if g := gates[name]; g.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*g.bound)
			}
			fmt.Fprintf(w, "%-14s %-17s %6s  %-38s %-38s %s\n", def.name, name, bound,
				side(av), side(bv), verdict(gates[name], av, bv))
		}
		da, db := digests(a, def.name), digests(b, def.name)
		if len(da) > 0 && len(db) > 0 {
			fmt.Fprintf(w, "%-14s %-17s %6s  %-38s %-38s %s\n", def.name, "sim_digest", "exact",
				fmt.Sprintf("%d seeds", len(da)), fmt.Sprintf("%d seeds", len(db)), digestVerdict(da, db))
		}
	}
	return nil
}

func side(m map[uint64]float64) string {
	q1, q2, q3 := quartiles(values(m))
	return fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", q2, q1, q3, len(m))
}

func digests(recs []record, workload string) map[uint64]string {
	out := map[uint64]string{}
	for _, rec := range recs {
		if rec.Workload == workload && rec.SimDigest != "" {
			out[rec.Seed] = rec.SimDigest
		}
	}
	return out
}

func digestVerdict(a, b map[uint64]string) string {
	shared := 0
	for seed, d := range a {
		if other, ok := b[seed]; ok {
			shared++
			if other != d {
				return "differs"
			}
		}
	}
	if shared == 0 {
		return "unresolved"
	}
	return "same"
}
