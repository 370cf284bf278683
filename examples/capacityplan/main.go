// Capacity planning: size a deployment before buying hardware. For 4,
// 6, and 8 GPUs (with the cloud-style proportional CPU provisioning of
// paper §VI-E4 / Fig. 17), report the bare LLM capacity, the
// partitioning point VectorLiteRAG would choose, and the SLO attainment
// at a target arrival rate.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	vlr "vectorliterag"
)

func main() {
	quick := flag.Bool("quick", false, "fewer node sizes and shorter runs for smoke tests")
	flag.Parse()
	sizes := []int{4, 6, 8}
	var duration time.Duration // zero = library default (120s)
	if *quick {
		sizes = []int{4, 8}
		duration = 40 * time.Second
	}

	fmt.Println("building ORCAS-2K workload...")
	w, err := vlr.NewWorkload(vlr.Orcas2K)
	if err != nil {
		log.Fatal(err)
	}
	model := vlr.Qwen3_32B
	const targetRate = 16 // req/s the service must absorb

	fmt.Printf("\ntarget: %d req/s of 1024/256-token RAG traffic, %s\n\n", targetRate, model.Name)
	fmt.Printf("%-8s %-12s %-8s %-12s %-12s %-10s\n",
		"GPUs", "capacity", "rho", "index GB", "attainment", "TTFT p90")
	for _, gpus := range sizes {
		node, err := vlr.H100Node().WithGPUs(gpus)
		if err != nil {
			log.Fatal(err)
		}
		mu, err := vlr.Capacity(node, model)
		if err != nil {
			log.Fatal(err)
		}
		sys, err := vlr.BuildSystem(vlr.SystemOptions{
			Workload: w, Node: node, Model: model, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := vlr.Serve(vlr.ServeOptions{
			Workload: w, System: vlr.VLiteRAG, Rate: targetRate,
			Node: node, Model: model, Seed: 1, Duration: duration,
			Prebuilt: sys, // serve the decision just built instead of re-deciding
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %-12.1f %-8.3f %-12.1f %-12.3f %-10v\n",
			gpus, mu, sys.Rho, float64(sys.PlanBytes)/1e9,
			rep.Summary.Attainment, rep.Summary.TTFT.P90.Round(1e6))
	}
	fmt.Println("\nPick the smallest node whose attainment meets your availability target.")
}
