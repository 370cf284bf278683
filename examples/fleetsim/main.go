// Fleet-scale parallel simulation: a replica fleet behind a
// least-loaded front end, simulated in parallel. Each replica's pipeline
// (admission → retrieval → generation) runs on its own timeline; the
// front end owns arrivals and routing; and the only coupling is
// request/completion-notice messages carrying a 1 ms modeled network
// transit — which bounds how far the replicas may run between two
// synchronizations (two transits, one round trip through the front).
//
// The demonstration is the engine's core guarantee: the run executes
// twice, once sequentially (-workers 1) and once spread over worker
// goroutines, and the merged schedules are bit-identical — same
// per-request timestamps, same per-replica routing split, same
// aggregate summary. Worker count is a wall-clock knob, never a
// semantics knob, so parallel runs need no tolerance bands: any
// difference is a bug, and on a multi-core host the second run is
// simply faster.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	vlr "vectorliterag"
)

func main() {
	quick := flag.Bool("quick", false, "shorter run for smoke tests")
	workers := flag.Int("workers", runtime.NumCPU(), "worker goroutines for the parallel run")
	replicas := flag.Int("replicas", 16, "replica pipelines behind the front end")
	flag.Parse()

	fmt.Println("building ORCAS-1K workload (trains a real IVF-PQ index)...")
	w, err := vlr.NewWorkload(vlr.Orcas1K)
	if err != nil {
		log.Fatal(err)
	}

	duration := 4 * time.Minute
	rate := 30.0 * float64(*replicas) // ~30 req/s per replica
	if *quick {
		duration = time.Minute
		*replicas = 8
		rate = 30 * float64(*replicas)
	}
	opts := func(workers int) vlr.ClusterOptions {
		return vlr.ClusterOptions{
			ServeOptions: vlr.ServeOptions{
				Workload: w, System: vlr.VLiteRAG, Rate: rate,
				Duration: duration, Seed: 1,
				Workers: workers, NetDelay: time.Millisecond,
			},
			Replicas: *replicas,
			Policy:   vlr.LeastLoaded,
		}
	}

	fmt.Printf("\nfleet: %d replicas @ %.0f req/s cluster-wide, %v of traffic, 1ms network\n",
		*replicas, rate, duration)

	start := time.Now()
	seq, err := vlr.ServeCluster(opts(1))
	if err != nil {
		log.Fatal(err)
	}
	seqWall := time.Since(start)

	start = time.Now()
	par, err := vlr.ServeCluster(opts(*workers))
	if err != nil {
		log.Fatal(err)
	}
	parWall := time.Since(start)

	fmt.Printf("\n%-22s %12s %12s\n", "", "sequential", fmt.Sprintf("%d workers", par.Workers))
	fmt.Printf("%-22s %12s %12s\n", "wall clock", seqWall.Round(time.Millisecond), parWall.Round(time.Millisecond))
	fmt.Printf("%-22s %12d %12d\n", "requests", seq.Summary.N, par.Summary.N)
	fmt.Printf("%-22s %12.3f %12.3f\n", "SLO attainment", seq.Summary.Attainment, par.Summary.Attainment)
	fmt.Printf("%-22s %12v %12v\n", "TTFT p90", seq.Summary.TTFT.P90, par.Summary.TTFT.P90)

	same := seq.Summary == par.Summary && len(seq.PerReplica) == len(par.PerReplica)
	for i := 0; same && i < len(seq.PerReplica); i++ {
		same = seq.PerReplica[i] == par.PerReplica[i]
	}
	if !same {
		log.Fatal("schedules diverged across worker counts — the determinism guarantee is broken")
	}
	fmt.Printf("\nschedules bit-identical across worker counts (%d replica breakdowns compared)\n",
		len(seq.PerReplica))
	if runtime.NumCPU() == 1 {
		fmt.Println("(single-core host: the parallel run measures coordination overhead, not speedup)")
	} else if parWall < seqWall {
		fmt.Printf("speedup: %.2fx on %d cores\n", float64(seqWall)/float64(parWall), runtime.NumCPU())
	}

	busiest, laziest := 0, 0
	for i, r := range seq.PerReplica {
		if r.Submitted > seq.PerReplica[busiest].Submitted {
			busiest = i
		}
		if r.Submitted < seq.PerReplica[laziest].Submitted {
			laziest = i
		}
	}
	fmt.Printf("routing spread (least-loaded, 1ms-stale gauges): replica %d served %d, replica %d served %d\n",
		busiest, seq.PerReplica[busiest].Submitted, laziest, seq.PerReplica[laziest].Submitted)
}
