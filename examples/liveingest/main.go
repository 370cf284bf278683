// Live ingest: the corpus mutates while it serves. Insert and delete
// streams ride the same simulated timeline as the queries; new vectors
// are searchable from brute-force-scanned append buffers the moment the
// ingest station applies them, then fold into PQ codes on the periodic
// re-encode; deletes serve through tombstone bitmaps until a compaction
// purges them. Mid-run the popular queries also shift, and the
// compaction-enabled controller answers the drift cheaply first —
// re-encode + tombstone purge — escalating to the full Algorithm-1
// re-partition only when the trigger recurs.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	vlr "vectorliterag"
)

func main() {
	quick := flag.Bool("quick", false, "shorter run for smoke tests")
	flag.Parse()

	fmt.Println("building ORCAS-2K workload (trains a real IVF-PQ index)...")
	w, err := vlr.NewWorkload(vlr.Orcas2K)
	if err != nil {
		log.Fatal(err)
	}

	duration := 4 * time.Minute
	if *quick {
		duration = 2 * time.Minute
	}
	rot := w.DefaultDriftRotation()
	opts := vlr.ServeOptions{
		Workload: w, System: vlr.VLiteRAG, Rate: 20, Seed: 1,
		RateSchedule: vlr.DiurnalRate(20, 8, duration),
		SLOSearch:    150 * time.Millisecond, Duration: duration,
		Drain: 2 * time.Minute,
		Drift: []vlr.DriftEvent{{At: duration / 4, Rotate: rot}},
	}
	ingest := vlr.LiveIngestOptions{
		InsertRate: 4, DeleteRate: 1,
		ReencodeEvery: 12 * time.Second,
	}
	fmt.Printf("diurnal load around 20 req/s; 4 inserts/s + 1 deletes/s; popularity rotates by %d templates at t=%v\n\n",
		rot, duration/4)

	// Arm 1: the frozen corpus — the paper's evaluation regime.
	frozen, err := vlr.ServeLive(vlr.LiveServeOptions{ServeOptions: opts})
	if err != nil {
		log.Fatal(err)
	}
	// Arm 2: the live corpus, no controller.
	live, err := vlr.ServeLive(vlr.LiveServeOptions{ServeOptions: opts, Ingest: ingest})
	if err != nil {
		log.Fatal(err)
	}
	// Arm 3: the live corpus with the drift-compaction controller. The
	// insert stream tracks the drifted query distribution, so the
	// residual tracker carries an elevated floor; the threshold sits
	// above it and escalation comes from the repeat-trigger rule.
	ingest.Compaction = true
	ingest.EscalateResidual = 3.0
	comp, err := vlr.ServeLive(vlr.LiveServeOptions{ServeOptions: opts, Ingest: ingest})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-8s  %-10s  %-22s  %-22s\n", "", "frozen", "live corpus", "live + compaction")
	fmt.Printf("%-8s  %-10s  %-10s %-10s  %-10s %-10s\n",
		"window", "attainment", "attainment", "fresh att", "attainment", "fresh att")
	for i, cw := range comp.Timeline {
		fAtt, lAtt, lFresh := 0.0, 0.0, 0.0
		if i < len(frozen.Timeline) {
			fAtt = frozen.Timeline[i].Attainment
		}
		if i < len(live.Timeline) {
			lAtt, lFresh = live.Timeline[i].Attainment, live.Timeline[i].FreshAttainment
		}
		note := ""
		for _, rb := range comp.Rebuilds {
			if rb.Aborted != "" {
				continue
			}
			if in(rb.SwappedAt, cw.Start, 30*time.Second) {
				if rb.Compaction {
					note = "  <- compaction: re-encode + tombstone purge"
				} else {
					note = "  <- escalated: full re-partition swapped in"
				}
			}
		}
		fmt.Printf("%-8v  %-10.3f  %-10.3f %-10.3f  %-10.3f %-10.3f%s\n",
			cw.Start, fAtt, lAtt, lFresh, cw.Attainment, cw.FreshAttainment, note)
	}

	f := live.Freshness
	fmt.Printf("\nfreshness (live arm): %d inserts + %d deletes, tts p50 %v / p99 %v, %.1f%% within the %v SLO\n",
		f.Inserts, f.Deletes, f.TTS.P50.Round(time.Millisecond), f.TTS.P99.Round(time.Millisecond),
		100*f.Attainment, live.FreshnessSLO)
	fmt.Printf("drift trackers at run end: size skew %.2f, residual ratio %.2f\n",
		comp.SizeSkew, comp.ResidualRatio)
	fmt.Printf("overall attainment: frozen %.3f, live %.3f, live+compaction %.3f\n",
		frozen.Summary.Attainment, live.Summary.Attainment, comp.Summary.Attainment)
	if comp.Compactions > 0 {
		fmt.Println("the controller answered the drift with a cheap compaction before committing to a rebuild. ✓")
	}
}

// in reports whether the instant t falls inside the window of the given
// width starting at start.
func in(t int64, start, width time.Duration) bool {
	return t > 0 && time.Duration(t) >= start && time.Duration(t) < start+width
}
