// Package serve holds the serving layer's stations and the cluster
// front ends over the discrete-event simulator: the FairScheduler that
// meters admission into a node's retrieval engine, the routing Policy,
// and the two routers that fan requests out to replica nodes: the
// failure-aware ResilientRouter and the sharded Exchange, the
// differential tests' reference. A front without failure handling
// routes through internal/rag's load index instead.
//
// A node is a fixed chain (§IV-B): admission, the optional scheduler,
// the retrieval engine, the LLM cluster. internal/rag wires each node
// by hand, back to front, from its Sinks: each station is built with
// its downstream neighbour's entry point as its forward hook, which is
// exactly the wiring the retrieval engines need (their Forward callback
// is fixed at construction). Compose and its Stage/Builder/Pipeline
// remain only for the fair-scheduler probe of the benchmark harness.
package serve

import (
	"fmt"

	"vectorliterag/internal/des"
	"vectorliterag/internal/workload"
)

// Sink consumes a request at the current virtual instant. Station entry
// points and the terminal hooks a completed request meets are both
// Sinks.
type Sink func(*workload.Request)

// Tee fans one request out to several sinks in order. A lone sink is
// returned as it is.
func Tee(sinks ...Sink) Sink {
	if len(sinks) == 1 {
		return sinks[0]
	}
	return func(req *workload.Request) {
		for _, s := range sinks {
			s(req)
		}
	}
}

// Stage is one station of a composed pipeline: requests enter through
// Submit and leave through the downstream sink the stage was built
// with. Stages schedule their service time on the shared simulator.
type Stage interface {
	Submit(req *workload.Request)
}

// Builder constructs a stage bound to its downstream sink.
type Builder func(next Sink) (Stage, error)

// Pipeline is a linear chain of stages ending in a terminal sink, held
// by its head.
type Pipeline struct {
	head Sink
}

// Compose builds a pipeline from stage builders, back to front, so each
// stage receives its downstream neighbor's Submit as the forward hook.
// A nil terminal sink discards completed requests.
func Compose(sim *des.Sim, terminal Sink, builders ...Builder) (*Pipeline, error) {
	if sim == nil {
		return nil, fmt.Errorf("serve: nil simulator")
	}
	if len(builders) == 0 {
		return nil, fmt.Errorf("serve: empty pipeline")
	}
	next := terminal
	if next == nil {
		next = func(*workload.Request) {}
	}
	for i := len(builders) - 1; i >= 0; i-- {
		st, err := builders[i](next)
		if err != nil {
			return nil, fmt.Errorf("serve: stage %d: %w", i, err)
		}
		next = st.Submit
	}
	return &Pipeline{head: next}, nil
}

// Submit feeds a request into the pipeline's first stage.
func (p *Pipeline) Submit(req *workload.Request) { p.head(req) }
