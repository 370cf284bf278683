package experiments

import (
	"encoding/csv"
	"strings"
	"testing"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/golden"
	"vectorliterag/internal/rag"
)

func quick() Config { return Config{Quick: true, Seed: 1} }

// quickReports caches each experiment's quick-mode report: every run is
// deterministic, so one run per test binary serves every assertion on
// it.
var quickReports = map[string]*Report{}

func quickReport(t *testing.T, id string) *Report {
	t.Helper()
	if quickReports[id] == nil {
		rep, err := Registry()[id](quick())
		if err != nil {
			t.Fatal(err)
		}
		quickReports[id] = rep
	}
	return quickReports[id]
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation must be registered, plus
	// the beyond-the-paper studies.
	want := []string{"fig3", "fig4", "fig5", "fig6", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "tab1", "ablations",
		"cluster", "adapt", "tenants", "overload", "faults",
		"ingest", "precision"}
	reg := Registry()
	for _, id := range want {
		if _, ok := reg[id]; !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(Names()) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Names()), len(want))
	}
}

func TestLookupListsValidIDs(t *testing.T) {
	if _, err := Lookup("fig11"); err != nil {
		t.Fatalf("known id rejected: %v", err)
	}
	_, err := Lookup("fig99")
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	for _, id := range []string{"fig11", "adapt", "cluster"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("lookup error does not list %q: %v", id, err)
		}
	}
}

// TestAllQuickGolden pins every artifact: the quick-mode text of all
// registered experiments in Names() order, each followed by the blank
// line the CLI prints, is the output recorded before the experiments
// moved onto one Report type; their CSV, every table's rows at more
// digits, is `vliterag run -exp all -quick -csv` without "=== id ===".
func TestAllQuickGolden(t *testing.T) {
	var text, rows strings.Builder
	for _, id := range Names() {
		text.WriteString(quickReport(t, id).Render() + "\n")
		rows.WriteString(quickReport(t, id).CSV() + "\n")
	}
	golden.Check(t, "all_quick", text.String())
	golden.Check(t, "all_quick_csv", rows.String())
}

// TestCSVExports: every table of every registered experiment exports,
// as blank-line-separated blocks that each parse back with a header row
// and uniform width; Fig. 11 exports one flat table, a row per point.
func TestCSVExports(t *testing.T) {
	for _, id := range Names() {
		out := quickReport(t, id).CSV()
		if out == "" {
			t.Errorf("%s exports no CSV", id)
		}
		for _, block := range strings.Split(out, "\n\n") {
			recs, err := csv.NewReader(strings.NewReader(block)).ReadAll()
			if err != nil || len(recs) < 2 {
				t.Errorf("%s: CSV block does not parse to header + rows (%v):\n%s", id, err, block)
			}
		}
	}
	f11 := quickReport(t, "fig11")
	out := f11.CSV()
	if !strings.HasPrefix(out, "dataset,model,system,rate_rps") {
		t.Fatalf("fig11 CSV header wrong: %q", strings.SplitN(out, "\n", 2)[0])
	}
	if lines, want := strings.Count(out, "\n"), len(f11.Tab(0).Rows())+1; lines != want {
		t.Fatalf("fig11 CSV has %d lines, want %d", lines, want)
	}
}

// TestFig5CSVSpecOrder: the access CDF exports in spec order (Wiki-All,
// then ORCAS 1K), identically on every call.
func TestFig5CSVSpecOrder(t *testing.T) {
	rep := quickReport(t, "fig5")
	first := rep.CSV()
	if !strings.HasPrefix(first, "dataset,cluster_percentile,cumulative_share\nWiki-All,") {
		t.Fatalf("fig5 CSV does not start with the Wiki-All block: %q", first[:80])
	}
	for i := 1; i < 16; i++ {
		if rep.CSV() != first {
			t.Fatalf("fig5 CSV export %d differs from the first", i+1)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	rep := quickReport(t, "fig3")
	for _, r := range rep.Tab(0).Rows() {
		// Fast scan must be ~5x faster (Fig. 3 left shows ~0.2 normalized)
		// though CQ dilutes the ratio slightly.
		if norm := r.Float("IVF-FS"); norm < 0.15 || norm > 0.4 {
			t.Errorf("batch %d: normalized fast-scan latency %.2f outside [0.15,0.4]", r.Int("batch"), norm)
		}
	}
	for _, r := range rep.Tab(1).Rows() {
		if r.Dur("LUT-build")+r.Dur("LUT-scan") <= r.Dur("CQ") {
			t.Errorf("batch %d: LUT stage does not dominate (Fig. 3 right)", r.Int("batch"))
		}
	}
	if !strings.Contains(rep.Render(), "Fig 3") {
		t.Error("render missing title")
	}
}

func TestFig4Shape(t *testing.T) {
	rep := quickReport(t, "fig4")
	left := rep.Tab(0).Row()
	speedup := float64(left.Dur("cpu_search_s")) / float64(left.Dur("gpu_search_s"))
	if speedup < 4 || speedup > 40 {
		t.Errorf("GPU speedup %.1fx outside the paper's ~10x order", speedup)
	}
	// Throughput must grow with KV space and normalize to 1.
	right := rep.Tab(1).Rows()
	last := right[len(right)-1].Float("norm throughput")
	if last != 1.0 {
		t.Errorf("throughput not normalized: %v", last)
	}
	if first := right[0].Float("norm throughput"); first >= last {
		t.Errorf("tiny KV not slower: %v vs %v", first, last)
	}
	if !strings.Contains(rep.Render(), "Fig 4") {
		t.Error("render missing title")
	}
}

func TestFig5SkewTargets(t *testing.T) {
	rep := quickReport(t, "fig5")
	wiki := rep.Tab(0).Row("dataset", dataset.WikiAll.Name).Float("top20")
	orcas := rep.Tab(0).Row("dataset", dataset.Orcas1K.Name).Float("top20")
	if wiki < 0.5 || wiki > 0.72 {
		t.Errorf("Wiki-All top-20%% share %.3f vs paper ~0.59", wiki)
	}
	if orcas < 0.85 {
		t.Errorf("ORCAS top-20%% share %.3f vs paper ~0.93", orcas)
	}
	if orcas <= wiki {
		t.Error("ORCAS must be more skewed than Wiki-All")
	}
	if !strings.Contains(rep.Render(), "Fig 5") {
		t.Error("render missing title")
	}
}

func TestFig6CoverageImprovesHitRate(t *testing.T) {
	rep := quickReport(t, "fig6")
	for _, name := range []string{dataset.WikiAll.Name, dataset.Orcas1K.Name} {
		at := func(pct int) Row { return rep.Tab(0).Row("dataset", name, "coverage", pct) }
		m5, m10, m20 := at(5).Float("mean"), at(10).Float("mean"), at(20).Float("mean")
		if !(m5 < m10 && m10 < m20) {
			t.Errorf("%s: mean hit rate not increasing with coverage: %v %v %v", name, m5, m10, m20)
		}
		// Tail queries persist (the violin's lower tail, Takeaway 3).
		if lo := at(20).Float("min"); lo > 0.6 {
			t.Errorf("%s: no long-tail queries at 20%% coverage (min=%.2f)", name, lo)
		}
	}
	if !strings.Contains(rep.Render(), "Fig 6") {
		t.Error("render missing title")
	}
}

func TestFig8Curves(t *testing.T) {
	rep := quickReport(t, "fig8")
	left := rep.Tab(0).Rows()
	for i := 1; i < len(left); i++ {
		if left[i].Dur("search") < left[i-1].Dur("search") {
			t.Error("search latency not monotone in batch")
		}
	}
	// Variance model tracks empirical within 3x wherever both defined.
	for _, r := range rep.Tab(1).Rows() {
		emp, model := r.Float("empirical_var"), r.Float("model_var")
		if emp <= 0 {
			continue
		}
		if ratio := model / emp; ratio > 4 || ratio < 0.25 {
			t.Errorf("variance model off at mean %.2f: model %.4f vs empirical %.4f", r.Float("mean"), model, emp)
		}
	}
	if !strings.Contains(rep.Render(), "Fig 8") {
		t.Error("render missing title")
	}
}

func TestFig9WithinEnvelope(t *testing.T) {
	rep := quickReport(t, "fig9")
	rows := rep.Tab(0).Rows()
	if len(rows) != 6 {
		t.Fatalf("expected 6 bars, got %d", len(rows))
	}
	for _, r := range rows {
		if total := r.Dur("total"); total <= 0 || total.Seconds() > 120 {
			t.Errorf("%s @%v: rebuild %v outside the paper's <1min envelope", r.Str("dataset"), r.Dur("SLO"), total)
		}
	}
	if !strings.Contains(rep.Render(), "Fig 9") {
		t.Error("render missing title")
	}
}

func TestFig10ModelTracksMeasurement(t *testing.T) {
	prevPred := map[string]float64{}
	for _, r := range quickReport(t, "fig10").Tab(0).Rows() {
		name, batch := r.Str("dataset"), r.Int("batch")
		pred, meas := r.Float("pred tail hit"), r.Float("meas tail hit")
		// Tail hit rate: the Beta estimator tracks the replayed truth in
		// level and trend. Our synthetic per-query hit-rate distribution
		// has a heavier low tail than a Beta with the parabolic variance,
		// so the prediction sits above the measurement at large batches —
		// the paper's Fig. 10 shows the same direction of offset. Bound
		// the absolute gap and require the predicted curve to decline
		// with batch size like the measured one.
		if diff := pred - meas; diff > 0.35 || diff < -0.15 {
			t.Errorf("%s b=%d: tail hit pred %.3f vs meas %.3f", name, batch, pred, meas)
		}
		if prev, ok := prevPred[name]; ok && pred > prev+1e-9 {
			t.Errorf("%s b=%d: predicted tail hit rose with batch", name, batch)
		}
		prevPred[name] = pred
		// Latency: within 2.5x (the paper also reports a visible offset,
		// Fig. 10 left).
		predLat, measLat := r.Dur("pred latency"), r.Dur("meas latency")
		if ratio := float64(predLat) / float64(measLat); ratio > 2.5 || ratio < 0.4 {
			t.Errorf("%s b=%d: latency pred %v vs meas %v", name, batch, predLat, measLat)
		}
	}
}

func TestFig11QuickHeadline(t *testing.T) {
	rep := quickReport(t, "fig11")
	cell := rep.Tab(0).Rows() // quick mode runs one (dataset, model) cell
	if len(cell) == 0 {
		t.Fatal("no cells")
	}
	vl := maxAttainedRate(cell, rag.VLiteRAG, 0.5)
	cpu := maxAttainedRate(cell, rag.CPUOnly, 0.5)
	if vl <= cpu {
		t.Errorf("vLiteRAG SLO-bound rate %.1f not above CPU-only %.1f", vl, cpu)
	}
	if !strings.Contains(rep.Render(), "vLiteRAG") {
		t.Error("render missing system rows")
	}
}

func TestFig12BreakdownSane(t *testing.T) {
	rep := quickReport(t, "fig12")
	for _, r := range rep.Tab(0).Rows() {
		if r.Dur("search") <= 0 || r.Dur("LLM(prefill)") <= 0 {
			t.Errorf("%s %s: degenerate breakdown %+v", r.Str("dataset"), r.Str("system"), r.cells)
		}
	}
	// CPU-only search segment must dominate vLiteRAG's at equal rate.
	at := func(kind rag.Kind) float64 {
		return rep.Tab(0).Row("dataset", dataset.Orcas1K.Name, "rate", 32.0, "system", string(kind)).Dur("search").Seconds()
	}
	if cpuSearch, vlSearch := at(rag.CPUOnly), at(rag.VLiteRAG); cpuSearch <= vlSearch {
		t.Errorf("CPU-only search %.3fs not above vLiteRAG %.3fs", cpuSearch, vlSearch)
	}
	if !strings.Contains(rep.Render(), "Fig 12") {
		t.Error("render missing title")
	}
	if !strings.HasPrefix(rep.CSV(), "dataset,system,rate_rps") {
		t.Error("fig12 CSV header wrong")
	}
}

func TestFig13HedraCachesMore(t *testing.T) {
	rep := quickReport(t, "fig13")
	// The §VI-D contrast: HedraRAG over-caches relative to the
	// latency-bounded point (paper: 0.73 vs 0.315).
	hedra := rep.Tab(0).Row("system", string(rag.HedraRAG)).Float("rho")
	vlite := rep.Tab(0).Row("system", string(rag.VLiteRAG)).Float("rho")
	if hedra <= vlite {
		t.Errorf("hedra rho %.3f not above vLiteRAG rho %.3f", hedra, vlite)
	}
	if !strings.Contains(rep.Render(), "Fig 13") {
		t.Error("render missing title")
	}
}

func TestFig14DispatcherHelps(t *testing.T) {
	rep := quickReport(t, "fig14")
	for _, on := range rep.Tab(0).Rows() {
		if on.Str("dispatcher") != "on" {
			continue
		}
		rate := on.Float("rate")
		off := rep.Tab(0).Row("dispatcher", "off", "rate", rate)
		if on.Dur("avg search") > off.Dur("avg search") {
			t.Errorf("rate %.0f: dispatcher hurt avg search (%v vs %v)", rate, on.Dur("avg search"), off.Dur("avg search"))
		}
	}
	if !strings.Contains(rep.Render(), "Fig 14") {
		t.Error("render missing title")
	}
}

func TestFig16TableIIMonotone(t *testing.T) {
	rep := quickReport(t, "fig16")
	split := rep.Tab(1).Rows()
	if len(split) < 2 {
		t.Fatal("Table II empty")
	}
	// Stricter SLO (earlier row) allocates at least as much index memory
	// and leaves less KV (paper Table II).
	for i := 1; i < len(split); i++ {
		if split[i-1].Float("index_gb") < split[i].Float("index_gb")-0.01 {
			t.Errorf("index memory not decreasing with relaxed SLO:\n%s", rep.Render())
		}
		if split[i-1].Float("kv_cache_gb") > split[i].Float("kv_cache_gb")+0.01 {
			t.Errorf("KV cache not increasing with relaxed SLO:\n%s", rep.Render())
		}
	}
	if !strings.Contains(rep.Render(), "Fig 16") {
		t.Error("render missing title")
	}
	if !strings.HasPrefix(rep.CSV(), "slo_search_ms") {
		t.Error("fig16 CSV header wrong")
	}
}

func TestTable1(t *testing.T) {
	rep := quickReport(t, "tab1")
	if len(rep.Tab(0).Rows()) != 3 || len(rep.Tab(1).Rows()) != 3 {
		t.Fatalf("incomplete Table I:\n%s", rep.Render())
	}
	out := rep.Render()
	if !strings.Contains(out, "Wiki-All") || !strings.Contains(out, "Qwen3-32B") {
		t.Error("render incomplete")
	}
}

func TestCluster(t *testing.T) {
	rep := quickReport(t, "cluster")
	rows := rep.Tab(0).Rows()
	if len(rows) != 3 { // x1 least-loaded, x2 both policies
		t.Fatalf("got %d rows:\n%s", len(rows), rep.Render())
	}
	base := rows[0].Float("attainment")
	for _, r := range rows[1:] {
		if att := r.Float("attainment"); att < base-0.10 {
			t.Errorf("x%d %s attainment %.3f collapsed vs single-node %.3f", r.Int("replicas"), r.Str("policy"), att, base)
		}
		if skew := r.Float("max skew"); skew > 0.25 {
			t.Errorf("x%d %s skew %.3f too large", r.Int("replicas"), r.Str("policy"), skew)
		}
	}
	out := rep.Render()
	if !strings.Contains(out, "least-loaded") || !strings.Contains(out, "round-robin") {
		t.Error("render missing policies")
	}
}

func TestAblations(t *testing.T) {
	rep := quickReport(t, "ablations")
	// Larger eps -> tighter budget -> more coverage -> faster search.
	eps := rep.Tab(0).Rows()
	first, last := eps[0], eps[len(eps)-1]
	if last.Float("rho") < first.Float("rho") {
		t.Errorf("coverage fell as eps grew: %v -> %v", first.Float("rho"), last.Float("rho"))
	}
	// The enumeration study covers every implemented system.
	if n := len(rep.Tab(2).Rows()); n != 5 {
		t.Errorf("system enumeration has %d rows, want 5:\n%s", n, rep.Render())
	}
	if last.Dur("avg search") > first.Dur("avg search") {
		t.Errorf("search slower at higher coverage: %v -> %v", first.Dur("avg search"), last.Dur("avg search"))
	}
	// The full runtime must not lose to its ablated variants on search.
	runtime := rep.Tab(1).Rows()
	for _, r := range runtime[1:] {
		if full := runtime[0].Dur("avg search"); full > r.Dur("avg search") {
			t.Errorf("full pipeline slower than %q: %v vs %v", r.Str("pipeline"), full, r.Dur("avg search"))
		}
	}
	if !strings.Contains(rep.Render(), "Ablation") {
		t.Error("render missing title")
	}
}

// TestAdaptRecovery pins the online-adaptation acceptance criteria:
// under a mid-run popularity rotation, the adaptive arm recovers SLO
// attainment above the static plan's post-drift attainment, with at
// least one rebuild whose timing respects the paper's envelope.
func TestAdaptRecovery(t *testing.T) {
	rep := quickReport(t, "adapt")
	sum := rep.Tab(0).Row()
	if sum.Int("rebuilds") == 0 {
		t.Fatal("drift never triggered a rebuild")
	}
	if msg := sum.Str("validate_err"); msg != "" {
		t.Fatalf("rebuild violated the update envelope: %s", msg)
	}
	if sum.Float("adaptive_post") <= sum.Float("static_post") {
		t.Fatalf("adaptive post-drift attainment %.3f not above static %.3f",
			sum.Float("adaptive_post"), sum.Float("static_post"))
	}
	// The final window must show the recovered hot set: adaptive hit
	// rate back near the expectation while the static plan keeps
	// missing.
	windows := rep.Tab(1).Rows()
	last := windows[len(windows)-1]
	if last.Float("adaptive hit") < sum.Float("expected_hit")-0.1 {
		t.Fatalf("final-window adaptive hit %.3f never recovered toward %.3f",
			last.Float("adaptive hit"), sum.Float("expected_hit"))
	}
	if last.Float("adaptive hit") < last.Float("static hit")+0.2 {
		t.Fatalf("final-window hit rates barely differ: adaptive %.3f vs static %.3f",
			last.Float("adaptive hit"), last.Float("static hit"))
	}
	out := rep.Render()
	for _, want := range []string{"rebuild timeline", "drift", "swap#1", "post-drift attainment"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if !strings.HasPrefix(rep.CSV(), "window_start_s,static_attainment") {
		t.Errorf("CSV header wrong: %q", strings.SplitN(rep.CSV(), "\n", 2)[0])
	}
}

// TestTenantsIsolation: the headline multi-tenant artifact — with a
// bursty bronze tenant, gold holds its tier target only under the
// joint allocator + FairScheduler, not under the shared queue.
func TestTenantsIsolation(t *testing.T) {
	rep := quickReport(t, "tenants")
	row := func(arm, tenant string) Row { return rep.Tab(0).Row("arm", arm, "tenant", tenant) }
	if !row("fair", "gold").Bool("met") {
		t.Fatalf("fair arm gold misses its tier target:\n%s", rep.Render())
	}
	if !row("fair", "silver").Bool("met") {
		t.Errorf("fair arm silver misses its tier target:\n%s", rep.Render())
	}
	if row("shared-queue", "gold").Bool("met") {
		t.Fatalf("shared-queue baseline unexpectedly holds gold's target:\n%s", rep.Render())
	}
	// The bronze surplus must visibly wait in its own queue under fair
	// scheduling and nowhere under the shared queue.
	if row("fair", "bronze").Int("peak queue") == 0 {
		t.Errorf("fair arm bronze queue never grew:\n%s", rep.Render())
	}
	if row("shared-queue", "bronze").Int("peak queue") != 0 {
		t.Errorf("shared-queue arm reports a per-tenant queue:\n%s", rep.Render())
	}
	out := rep.Render()
	for _, want := range []string{"gold", "silver", "bronze", "fair", "shared-queue", "Jain"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestTenantsGoldenPinned: the quick-mode artifact is bit-identical
// across runs with the same seed; testdata/tenants_quick.golden pins it.
func TestTenantsGoldenPinned(t *testing.T) {
	golden.Check(t, "tenants_quick", quickReport(t, "tenants").CSV())
}

// TestFaultsResilience: the headline failure-handling artifact — the
// baseline drops the crashed replica's in-flight work, every resilient
// arm serves the full population, hedges win a visible share of their
// races, and degradation recovers goodput relative to plain
// retry+hedge.
func TestFaultsResilience(t *testing.T) {
	rep := quickReport(t, "faults")
	arm := func(name string) Row { return rep.Tab(0).Row("arm", name) }
	base, hedgeArm, full := arm("baseline"), arm("retry+hedge"), arm("retry+hedge+degrade")
	if base.Int("failed") == 0 {
		t.Fatal("baseline failed nothing; the crash hit no in-flight work")
	}
	if base.Dur("recover_s") > 0 {
		t.Errorf("baseline reports a recovery (%v) with no retries configured", base.Dur("recover_s"))
	}
	for _, a := range []Row{arm("retry"), hedgeArm, full} {
		name := a.Str("arm")
		if a.Int("failed") != 0 || a.Int("unserved") != 0 {
			t.Errorf("%s arm dropped requests: failed %d, unserved %d", name, a.Int("failed"), a.Int("unserved"))
		}
		if a.Int("failover") != base.Int("failed") {
			t.Errorf("%s arm failed over %d, want the baseline's %d crash victims",
				name, a.Int("failover"), base.Int("failed"))
		}
		if a.Dur("recover_s") <= 0 {
			t.Errorf("%s arm never recovered the crash: %v", name, a.Dur("recover_s"))
		}
		// Resilience costs goodput (re-served work competes with fresh
		// arrivals) but must not collapse the run.
		if a.Float("goodput") < 0.9*base.Float("goodput") {
			t.Errorf("%s arm goodput %.2f collapsed vs baseline %.2f", name, a.Float("goodput"), base.Float("goodput"))
		}
	}
	if hedgeArm.Int("hedged") == 0 || hedgeArm.Int("hedge_wins") == 0 {
		t.Errorf("hedge arm fired %d backups with %d wins; the straggler tail went unhedged",
			hedgeArm.Int("hedged"), hedgeArm.Int("hedge_wins"))
	}
	// Hedging must stay rare — a hedge storm doubles load and collapses
	// the cluster (the tuning this experiment documents).
	if hedgeArm.Int("hedged") > hedgeArm.Int("requests")/10 {
		t.Errorf("hedge storm: %d backups for %d requests", hedgeArm.Int("hedged"), hedgeArm.Int("requests"))
	}
	if full.Float("goodput") < hedgeArm.Float("goodput") {
		t.Errorf("degradation lost goodput: %.2f vs retry+hedge %.2f", full.Float("goodput"), hedgeArm.Float("goodput"))
	}
	out := rep.Render()
	for _, want := range []string{"baseline", "retry+hedge+degrade", "crash@30s:r0:20s", "recover"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestFaultsGoldenPinned: the quick-mode faults artifact is bit-identical
// across runs with the same seed; testdata/faults_quick.golden pins it.
func TestFaultsGoldenPinned(t *testing.T) {
	golden.Check(t, "faults_quick", quickReport(t, "faults").CSV())
}

// sameAcrossWorkers re-runs an experiment at each worker count and
// requires the CSV of the default-worker run.
func sameAcrossWorkers(t *testing.T, id string, counts ...int) {
	t.Helper()
	ref := quickReport(t, id).CSV()
	for _, workers := range counts {
		cfg := quick()
		cfg.workers = workers
		rep, err := Registry()[id](cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.CSV(); got != ref {
			t.Errorf("workers=%d: %s CSV diverged:\ngot:\n%s\nwant:\n%s", workers, id, got, ref)
		}
	}
}

// TestFaultsDeterministicAcrossWorkers: resilient runs always execute
// on the single shared timeline, so the artifact must be bit-identical
// for every Workers value.
func TestFaultsDeterministicAcrossWorkers(t *testing.T) {
	sameAcrossWorkers(t, "faults", 2, 4)
}

// TestIngestFreshness: the headline live-corpus artifact — the frozen
// arm stays mutation-free, the streaming arms absorb the full mutation
// stream within the freshness SLO while holding at least 95% of the
// frozen arm's request attainment, and the compaction arm walks the
// escalation ladder: cheap compaction on the first drift trigger, full
// re-partition when the trigger recurs.
func TestIngestFreshness(t *testing.T) {
	rep := quickReport(t, "ingest")
	arm := func(name string) Row { return rep.Tab(0).Row("arm", name) }
	frozen, live, comp := arm("frozen"), arm("streaming"), arm("streaming+compaction")
	if frozen.Int("inserts") != 0 || frozen.Int("deletes") != 0 || frozen.Int("reencodes") != 0 {
		t.Errorf("frozen arm mutated: %+v", frozen.cells)
	}
	for _, a := range []Row{live, comp} {
		name := a.Str("arm")
		if a.Int("inserts") == 0 || a.Int("deletes") == 0 {
			t.Errorf("%s arm saw no mutations: inserts %d, deletes %d", name, a.Int("inserts"), a.Int("deletes"))
		}
		if a.Int("pending") != 0 {
			t.Errorf("%s arm left %d raw appends unfolded at run end", name, a.Int("pending"))
		}
		if a.Int("reencodes") == 0 {
			t.Errorf("%s arm never re-encoded", name)
		}
		if p50, p99 := a.Dur("tts_p50_s"), a.Dur("tts_p99_s"); p50 <= 0 || p99 < p50 {
			t.Errorf("%s arm TTS percentiles inverted: p50 %v, p99 %v", name, p50, p99)
		}
		if fresh := a.Float("fresh_attainment"); fresh < 0.9 {
			t.Errorf("%s arm freshness attainment %.3f; mutations queued past the SLO", name, fresh)
		}
		// The live corpus may cost a sliver of serving headroom, no more.
		if a.Float("attainment") < 0.95*frozen.Float("attainment") {
			t.Errorf("%s arm attainment %.3f fell past 95%% of frozen %.3f", name, a.Float("attainment"), frozen.Float("attainment"))
		}
	}
	// Identical mutation streams: the controller changes the index, not
	// the corpus.
	if live.Int("inserts") != comp.Int("inserts") || live.Int("deletes") != comp.Int("deletes") {
		t.Errorf("mutation streams diverged: streaming %d/%d vs compaction %d/%d",
			live.Int("inserts"), live.Int("deletes"), comp.Int("inserts"), comp.Int("deletes"))
	}
	if live.Int("compactions") != 0 || live.Int("rebuilds") != 0 {
		t.Errorf("streaming arm ran the controller: %d compactions, %d rebuilds", live.Int("compactions"), live.Int("rebuilds"))
	}
	if comp.Int("compactions") == 0 {
		t.Errorf("compaction arm never compacted; the drift trigger escalated straight to a rebuild")
	}
	if comp.Int("rebuilds") == 0 {
		t.Errorf("compaction arm never escalated; the repeat trigger should force the full re-partition")
	}
	out := rep.Render()
	for _, want := range []string{"frozen", "streaming+compaction", "tts p99", "freshness SLO", "escalat"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestIngestGoldenPinned: the quick-mode ingest artifact is bit-identical
// across runs with the same seed; testdata/ingest_quick.golden pins it.
func TestIngestGoldenPinned(t *testing.T) {
	golden.Check(t, "ingest_quick", quickReport(t, "ingest").CSV())
}

// TestIngestDeterministicAcrossWorkers: mutations, re-encodes, and
// compactions all schedule on the single shared timeline, so the
// artifact must be bit-identical for every Workers value.
func TestIngestDeterministicAcrossWorkers(t *testing.T) {
	sameAcrossWorkers(t, "ingest", 2, 4)
}

// TestPrecisionHeadline: the tentpole claim. At the same HBM budget the
// (tier, codec) refinement must hold placement-only attainment — the
// SQ8 streaming kernel shortens retrieval busy windows, so it in fact
// gains — while buying recall points; the recall delta must never fall
// more than 2 points. The HBM-only baseline keeps the whole index
// resident and is untouched by the refinement.
func TestPrecisionHeadline(t *testing.T) {
	rep := quickReport(t, "precision")
	for _, hbm := range rep.Tab(0).Rows() {
		if hbm.Str("arm") != "hbm-only" {
			continue
		}
		rate := hbm.Float("rate")
		place := rep.Tab(0).Row("arm", "placement", "rate", rate)
		prec := rep.Tab(0).Row("arm", "placement+precision", "rate", rate)
		if hbm.Float("rho") != 1 || hbm.Int("sq8") != 0 || hbm.Int("nvme") != 0 || hbm.Float("recall +pts") != 0 {
			t.Errorf("hbm-only arm is not the untouched baseline: %+v", hbm.cells)
		}
		if place.Int("sq8") != 0 || place.Int("nvme") != 0 || place.Float("recall +pts") != 0 {
			t.Errorf("placement-only arm carries precision state: %+v", place.cells)
		}
		if prec.Int("sq8") == 0 {
			t.Errorf("@%.1f: refinement upgraded no clusters to SQ8", rate)
		}
		if prec.Int("nvme") == 0 {
			t.Errorf("@%.1f: refinement demoted no clusters to NVMe", rate)
		}
		if prec.Float("attainment") < place.Float("attainment") {
			t.Errorf("@%.1f: precision attainment %.4f below placement-only %.4f at equal budget",
				rate, prec.Float("attainment"), place.Float("attainment"))
		}
		gain := prec.Float("recall +pts")
		if gain < -2 {
			t.Errorf("@%.1f: recall loss %.2f pts exceeds the 2-point bound", rate, gain)
		}
		if gain <= 0 {
			t.Errorf("@%.1f: SQ8 upgrades bought no recall: %.4f pts", rate, gain)
		}
		if prec.Float("rho") != place.Float("rho") {
			t.Errorf("@%.1f: refinement moved the placement split: rho %.4f vs %.4f",
				rate, prec.Float("rho"), place.Float("rho"))
		}
		// Honest accounting: the SQ8 bytes live in GPU memory, so the
		// refined plan must report more resident bytes, never fewer.
		if prec.Float("plan GB") <= place.Float("plan GB") {
			t.Errorf("@%.1f: refined plan %.2f GB not above placement-only %.2f GB",
				rate, prec.Float("plan GB"), place.Float("plan GB"))
		}
	}
	out := rep.Render()
	for _, want := range []string{"hbm-only", "placement+precision", "recall +pts", "same HBM budget"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestPrecisionGoldenPinned: the quick-mode artifact is bit-identical
// across runs with the same seed; testdata/precision_quick.golden pins it.
func TestPrecisionGoldenPinned(t *testing.T) {
	golden.Check(t, "precision_quick", quickReport(t, "precision").CSV())
}

// TestPrecisionDeterministicAcrossWorkers: every arm runs on the
// sharded cluster engine (NetDelay is set explicitly, so workers=1
// takes the same conservative-lookahead schedule), and the merged
// timeline is a pure function of the options — the artifact must be
// bit-identical for every Workers value.
func TestPrecisionDeterministicAcrossWorkers(t *testing.T) {
	sameAcrossWorkers(t, "precision", 1, 2, 4)
}

// TestOverloadResilience: the headline overload artifact — at a
// sustained ≈1.5× capacity ramp, the naive unbounded queue collapses
// (bronze backlog grows without bound, aggregate attainment craters),
// bounded admission contains the backlog by rejecting, and the
// brownout ladder on top of it holds gold at ≥0.90 attainment while
// buying goodput with recall instead of with dropped requests.
func TestOverloadResilience(t *testing.T) {
	rep := quickReport(t, "overload")
	tab := rep.Tab(0)
	// Per-arm outcomes repeat on every tenant row; read them off gold's.
	arm := func(name string) Row { return tab.Row("arm", name, "tenant", "gold") }
	rejected := func(name string) (n int) {
		for _, r := range tab.Rows() {
			if r.Str("arm") == name {
				n += r.Int("rejected")
			}
		}
		return n
	}
	naive, reject, brown := arm("naive-queue"), arm("reject-only"), arm("brownout")
	if !collapsed(tab, "naive-queue") {
		t.Fatalf("naive queue did not collapse: attainment %.3f\n%s", naive.Float("agg_attainment"), rep.Render())
	}
	if n := rejected("naive-queue"); n != 0 {
		t.Errorf("naive arm rejected %d requests with no admission bound", n)
	}
	if brown.Float("attainment") < 0.90 {
		t.Fatalf("brownout arm gold attainment below 0.90: %+v", brown.cells)
	}
	// Bounded admission must actually bound: no per-tenant queue past
	// the cap, and the bronze surplus visibly refused.
	for _, name := range []string{"reject-only", "brownout"} {
		for _, r := range tab.Rows() {
			if r.Str("arm") == name && r.Int("peak queue") > overloadQueueCap {
				t.Errorf("%s arm %s queue %d exceeds cap %d", name, r.Str("tenant"), r.Int("peak queue"), overloadQueueCap)
			}
		}
		if rejected(name) == 0 {
			t.Errorf("%s arm rejected nothing under 1.5x overload", name)
		}
	}
	// The controller must have engaged and stayed engaged through the
	// sustained overload, shedding real work.
	if brown.Int("max_level") == 0 || brown.Dur("time_in_brownout_s") == 0 || brown.Float("mean_shed") == 0 {
		t.Errorf("brownout controller never engaged: level %d, time %v, shed %.2f",
			brown.Int("max_level"), brown.Dur("time_in_brownout_s"), brown.Float("mean_shed"))
	}
	// Degrading beats dropping: brownout serves more within-SLO work
	// than reject-only, and pays for it in recall (the SQ8→PQ rung
	// hands back some of the precision upgrade's gain).
	if brown.Float("goodput_rps") <= reject.Float("goodput_rps") {
		t.Errorf("brownout goodput %.2f did not beat reject-only %.2f", brown.Float("goodput_rps"), reject.Float("goodput_rps"))
	}
	if brown.Float("recall_gain") >= naive.Float("recall_gain") {
		t.Errorf("brownout recall gain %.4f did not drop below naive %.4f; the precision-fallback rung never fired",
			brown.Float("recall_gain"), naive.Float("recall_gain"))
	}
	out := rep.Render()
	for _, want := range []string{"naive-queue", "reject-only", "brownout", "overload contained"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestOverloadGoldenPinned: the quick-mode artifact is bit-identical
// across runs with the same seed; testdata/overload_quick.golden pins it.
func TestOverloadGoldenPinned(t *testing.T) {
	golden.Check(t, "overload_quick", quickReport(t, "overload").CSV())
}

// TestOverloadDeterministicAcrossWorkers: every arm runs on the
// sharded cluster engine (NetDelay is set explicitly), per-replica
// brownout controllers see only replica-local completions, and the
// merged timeline is a pure function of the options — the artifact
// must be bit-identical for every Workers value.
func TestOverloadDeterministicAcrossWorkers(t *testing.T) {
	sameAcrossWorkers(t, "overload", 1, 2, 4)
}
