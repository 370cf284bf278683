// Command benchmark is the repository's one layered benchmark: four
// workloads (real search, live search, serving sweep, sharded fleet),
// end-to-end metrics measured with tracing off, and a traced pass that
// yields the per-layer metrics. BENCHMARK.json at the repository root
// names the command, the workloads and every metric; README.md in this
// directory explains them.
//
//	go run ./benchmark                          # all four workloads
//	go run ./benchmark -workload search_read -seed 7 -seconds 12 -trace 1
//	go run ./benchmark -out a.json ; go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is what one run of one workload produced. The final stdout
// line carries correct/attempted/failed/metrics; -out appends the whole
// record, which -compare reads.
type record struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Scale      float64           `json:"scale"`
	Trace      bool              `json:"trace"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	// Named holds the workload's own end-to-end metrics (query_p50_us,
	// sim_ttft_p90_ms, ...) beside the six every workload shares.
	Named map[string]metric `json:"named,omitempty"`
	// StealShare is the share of the run's CPU time the hypervisor gave
	// to someone else; host-time metrics of a run with a large share
	// say more about the neighbours than about the code.
	StealShare float64        `json:"host_steal_share"`
	SimDigest  string         `json:"sim_digest,omitempty"`
	Samples    map[string]int `json:"samples,omitempty"`
	// Passes keeps the per-pass values the medians above were taken
	// over, so a reader can see how steady a run was.
	Passes map[string][]float64 `json:"passes,omitempty"`
}

// run is the state of one workload run: its arguments, the operation
// counts, and the metrics gathered so far.
type run struct {
	record
	tr       *tracer // nil unless tracing
	scratch  string  // directory for temporary profiles
	laps     laps    // chunk times of the passes
	log      io.Writer
	failures int // failure messages printed so far
}

// check counts one operation and records a failure when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	r.Attempted++
	if ok {
		return
	}
	r.Failed++
	if r.failures < 10 {
		r.failures++
		fmt.Fprintf(r.log, "FAILED: "+format+"\n", args...)
	}
}

func (r *run) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{v, unit}
}

func (r *run) name(name string, v float64, unit string) {
	r.Named[name] = metric{v, unit}
}

// scaled shrinks a work-list size by the run's scale, keeping at least
// floor.
func (r *run) scaled(n, floor int) int {
	if v := int(float64(n) * r.Scale); v > floor {
		return v
	}
	return floor
}

// setupReps is how often the end-to-end pass repeats its set-up, so
// setup_s is a median and not one draw.
const setupReps = 3

// timeSetup runs build setupReps times and records the median as
// setup_s.
func (r *run) timeSetup(build func() error) error {
	var took []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := build(); err != nil {
			return err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(took), "s")
	return nil
}

// laps times the chunks of a pass's fixed work list. Chunk k does the
// same work in every pass, so its median over passes is what that work
// takes on a quiet host: this sandbox slows down in bursts of a second
// or two, which spoil a whole pass's wall but only a few of a chunk's
// samples. The steady wall of a pass is the sum of the chunk medians.
type laps struct {
	k     int
	last  int64
	times [][]float64 // times[k] is chunk k's seconds in every pass
}

func (l *laps) begin() { l.k, l.last = 0, nowNS() }

// lap closes the current chunk.
func (l *laps) lap() {
	now := nowNS()
	if l.k == len(l.times) {
		l.times = append(l.times, nil)
	}
	l.times[l.k] = append(l.times[l.k], float64(now-l.last)/1e9)
	l.k, l.last = l.k+1, now
}

// medians returns each chunk's median seconds over the passes.
func (l *laps) medians() []float64 {
	out := make([]float64, len(l.times))
	for k, t := range l.times {
		out[k] = median(t)
	}
	return out
}

// steady is the sum of the chunk medians.
func (l *laps) steady() float64 {
	sum := 0.0
	for _, m := range l.medians() {
		sum += m
	}
	return sum
}

// passes repeats the workload's fixed work list until budget seconds
// are spent, at least atLeast times, and returns each pass's wall
// seconds and allocated megabytes; r.laps holds the chunk times.
// Garbage from the previous pass is collected outside the timed
// section.
func (r *run) passes(budget float64, atLeast int, b bench) (wall, allocMB []float64) {
	var m0, m1 runtime.MemStats
	r.laps = laps{}
	start := time.Now()
	for pass := 0; pass < atLeast || time.Since(start).Seconds() < budget; pass++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		r.laps.begin()
		b.pass(r, pass)
		r.laps.lap()
		wall = append(wall, time.Since(t0).Seconds())
		runtime.ReadMemStats(&m1)
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	}
	return wall, allocMB
}

// bench is one workload: set-up, one pass of its fixed work list, and
// the checks and metrics that follow the timed passes.
type bench interface {
	setup(r *run) error
	// pass runs the fixed work list once, closing a chunk with
	// r.laps.lap() at the same points in every pass.
	pass(r *run, pass int)
	// finish runs the untimed output checks and derives the workload's
	// metrics from the passes' wall seconds and allocated megabytes.
	finish(r *run, wall, allocMB []float64)
}

type workloadDef struct {
	name string
	new  func() bench
}

var workloads = []workloadDef{
	{"search_read", func() bench { return &searchRead{} }},
	{"search_live", func() bench { return &searchLive{} }},
	{"serve_sweep", func() bench { return &serveSweep{} }},
	{"fleet_sharded", func() bench { return &fleetSharded{} }},
}

// execute runs one workload and returns its record. A panic anywhere in
// the harness or the module is one failed operation, not a crash.
func execute(def workloadDef, seed uint64, seconds, scale float64, trace bool, scratch string, log io.Writer) (rec record) {
	r := &run{log: log, scratch: scratch, record: record{
		Workload: def.name, Seed: seed, Seconds: seconds, Scale: scale, Trace: trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Metrics: map[string]metric{}, Named: map[string]metric{}, Samples: map[string]int{},
		Passes: map[string][]float64{},
	}}
	steal0, total0 := cpuJiffies()
	defer func() {
		if p := recover(); p != nil {
			r.check(false, "panic: %v", p)
		}
		steal1, total1 := cpuJiffies()
		r.StealShare = finite((steal1 - steal0) / (total1 - total0))
		r.Correct = r.Failed == 0 && r.Attempted > 0
		rec = r.record
	}()
	b := def.new()
	if trace {
		tracedRun(r, b)
		return
	}
	if err := r.timeSetup(func() error { return b.setup(r) }); err != nil {
		r.check(false, "setup: %v", err)
		return
	}
	wall, allocMB := r.passes(seconds, 2, b)
	b.finish(r, wall, allocMB)
	return
}

// report prints a record's metrics by name with their units.
func report(w io.Writer, rec record) {
	fmt.Fprintf(w, "\n== %s  seed=%d seconds=%g scale=%g trace=%v  %s GOMAXPROCS=%d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Scale, rec.Trace, rec.GoVersion, rec.GOMAXPROCS)
	for _, group := range []map[string]metric{rec.Metrics, rec.Named} {
		names := make([]string, 0, len(group))
		for k := range group {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, group[k].Value, group[k].Unit)
		}
	}
	if rec.SimDigest != "" {
		fmt.Fprintf(w, "  %-36s %s\n", "sim_digest", rec.SimDigest)
	}
	samples := make([]string, 0, len(rec.Samples))
	for k := range rec.Samples {
		samples = append(samples, k)
	}
	sort.Strings(samples)
	for _, k := range samples {
		fmt.Fprintf(w, "  samples: %-27s %d\n", k, rec.Samples[k])
	}
	fmt.Fprintf(w, "  host steal share %.3f\n", rec.StealShare)
	fmt.Fprintf(w, "  operations attempted %d, failed %d\n", rec.Attempted, rec.Failed)
}

// resultLine is the contract's last stdout line. With several
// workloads in one invocation, metric names carry the workload prefix.
func resultLine(recs []record) (string, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, rec := range recs {
		out.Correct = out.Correct && rec.Correct
		out.Attempted += rec.Attempted
		out.Failed += rec.Failed
		for k, v := range rec.Metrics {
			if len(recs) > 1 {
				k = rec.Workload + "." + k
			}
			out.Metrics[k] = v
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func appendRecords(path string, recs []record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four): search_read, search_live, serve_sweep, fleet_sharded")
		seed    = flag.Uint64("seed", 1, "seed of the generated traffic; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 12, "seconds of timed passes per workload")
		trace   = flag.Int("trace", 0, "1 records spans and a CPU profile and reports the per-layer metrics; 0 reports the end-to-end metrics")
		scale   = flag.Float64("scale", 1, "shrinks corpora and work lists (tests use 0.02); metrics are only comparable at equal scale")
		out     = flag.String("out", "", "append each run's record to this JSON-lines file (the input of -compare)")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments: a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two files: a.json b.json")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds <= 0 || *scale <= 0 || *scale > 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -help")
		os.Exit(2)
	}
	var defs []workloadDef
	for _, d := range workloads {
		if *name == "" || *name == d.name {
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var recs []record
	for _, d := range defs {
		rec := execute(d, *seed, *seconds, *scale, *trace == 1, scratchDir, os.Stdout)
		report(os.Stdout, rec)
		recs = append(recs, rec)
	}
	if *out != "" {
		if err := appendRecords(*out, recs); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	line, err := resultLine(recs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}
