// SLO explorer: sweep the search-stage SLO and watch the
// latency-bounded partitioner trade GPU memory between the vector
// index and the KV cache — the paper's Table II and Fig. 16 knob,
// exposed as an operator tool.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	vlr "vectorliterag"
)

func main() {
	quick := flag.Bool("quick", false, "fewer SLO points and shorter runs for smoke tests")
	flag.Parse()
	slos := []time.Duration{
		100 * time.Millisecond, 150 * time.Millisecond,
		200 * time.Millisecond, 250 * time.Millisecond,
	}
	var duration time.Duration // zero = library default (120s)
	if *quick {
		slos = []time.Duration{100 * time.Millisecond, 250 * time.Millisecond}
		duration = 40 * time.Second
	}

	fmt.Println("building ORCAS-1K workload...")
	w, err := vlr.NewWorkload(vlr.Orcas1K)
	if err != nil {
		log.Fatal(err)
	}
	node := vlr.H100Node()
	model := vlr.Qwen3_32B

	fmt.Printf("\n%-10s %-8s %-12s %-12s %-12s %-14s\n",
		"SLO", "rho", "index GB", "KV GB/GPU", "batch-min η", "attain @30rps")
	for _, slo := range slos {
		sys, err := vlr.BuildSystem(vlr.SystemOptions{
			Workload: w, Node: node, Model: model, SLOSearch: slo, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		// Memory the partitioning leaves for KV on each GPU.
		perGPUShard := float64(sys.PlanBytes) / float64(node.NumGPUs)
		kvGB := (float64(model.KVBytesPerGPU(node.GPU)) - perGPUShard) / 1e9

		rep, err := vlr.Serve(vlr.ServeOptions{
			Workload: w, System: vlr.VLiteRAG, Rate: 30,
			Node: node, Model: model, SLOSearch: slo, Seed: 1, Duration: duration,
			Prebuilt: sys, // serve the decision just built instead of re-deciding
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10v %-8.3f %-12.2f %-12.2f %-12.3f %-14.3f\n",
			slo, sys.Rho, float64(sys.PlanBytes)/1e9, kvGB, sys.TailHitRate,
			rep.Summary.Attainment)
	}
	fmt.Println("\nTighter SLOs cache more clusters (less KV); looser SLOs lean on the CPU.")
}
