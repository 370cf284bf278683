package rag

import (
	"errors"
	"fmt"
)

// feature is one axis a serving call combines: the topology its entry
// point runs on, or a control plane its options switch on.
type feature uint

const (
	fSingleNode  feature = 1 << iota // one node, no router: Run, RunAdaptive, RunLive
	fCluster                         // replicas behind a router: RunCluster, any engine
	fSharedQueue                     // the multi-tenant baseline without the FairScheduler
	fBaseline                        // Kind is not vLiteRAG
	fAdaptive                        // the re-partitioning controller of RunAdaptive
	fIngest                          // live mutation streams (RunLive with ingest configured)
	fCompaction                      // the compaction controller of a live run
	fFaults                          // a fault schedule or a Resilience config
	fPrecision                       // the (tier, codec) refinement
	fPrebuilt                        // a prebuilt split plan (Options.Plan)
	fOverload                        // bounded admission and the brownout controller
)

// rules is the one table of feature combinations the package refuses.
// Every entry point consults it before doing any work, so an option a
// mode cannot honor is named up front instead of silently ignored. The
// first matching row wins, so the more specific combination comes
// first. A row that includes fBaseline formats the offending Kind into
// its message.
var rules = []struct {
	both feature
	msg  string
}{
	{fOverload | fSharedQueue, "rag: overload control needs the fair scheduler's per-tenant queues; it cannot bound the shared-queue baseline"},
	{fOverload | fCluster, "rag: overload control runs on single-node Run and multi-tenant serving; cluster runs degrade through the resilient front end instead"},
	{fOverload | fIngest, "rag: overload control is not wired into the live-ingest pipeline; drop Overload or run without ingest"},
	{fOverload | fAdaptive, "rag: overload control and the adaptive replan controller would fight over the same latency signal; run one or the other"},
	{fFaults | fIngest, "rag: live ingest runs single-node — fault injection needs RunCluster"},
	{fFaults | fSingleNode, "rag: fault injection and resilience need replicas to fail over to — use RunCluster"},
	{fAdaptive | fBaseline, "rag: adaptive serving requires the hot-swappable vLiteRAG runtime, got %s"},
	{fCompaction | fBaseline, "rag: compaction needs the hot-swappable vLiteRAG runtime, got %s"},
	{fPrecision | fBaseline, "rag: precision refinement applies to vLiteRAG only, not %s"},
	{fPrebuilt | fBaseline, "rag: a prebuilt plan serves vLiteRAG only, not %s"},
}

// reject returns the first rule the feature set trips, or nil.
func reject(have feature, kind Kind) error {
	for _, r := range rules {
		if have&r.both != r.both {
			continue
		}
		if r.both&fBaseline != 0 {
			return fmt.Errorf(r.msg, kind)
		}
		return errors.New(r.msg)
	}
	return nil
}

// when is f if on, else no feature — for assembling a feature set.
func when(on bool, f feature) feature {
	if on {
		return f
	}
	return 0
}

// check consults the rule table for a single-corpus run on the given
// topology (plus whichever control planes the entry point attaches).
func (opts *Options) check(topology feature) error {
	return reject(topology|
		when(opts.Kind != VLiteRAG, fBaseline)|
		when(opts.resilient(), fFaults)|
		when(opts.Precision != nil, fPrecision)|
		when(opts.Plan != nil, fPrebuilt)|
		when(opts.Overload != nil, fOverload), opts.Kind)
}
