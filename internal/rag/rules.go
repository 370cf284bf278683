package rag

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/tenant"
	"vectorliterag/internal/workload"
)

// feature is one axis a run's Options combine: the corpus, the
// topology, or a control plane.
type feature uint

const (
	fCorpus      feature = 1 << iota // one workload
	fTenants                         // a tenant lineup
	fSingleNode                      // one node, no router (Replicas == 0)
	fRouted                          // replicas behind a router
	fNetDelay                        // a modeled front↔replica network
	fSharedQueue                     // the multi-tenant baseline without the FairScheduler
	fBaseline                        // Kind is not vLiteRAG
	fAdaptive                        // the re-partitioning controller (Monitor on a frozen corpus)
	fIngest                          // live mutation streams
	fCompaction                      // the compaction controller (Monitor beside live streams)
	fFaults                          // a fault schedule or a Resilience config
	fPrecision                       // the (tier, codec) refinement
	fDecision                        // a decision served as-is (Options.Decision)
	fMismatch                        // a decision made for a Kind this run cannot serve it on
	fOverload                        // bounded admission and the brownout controller
)

// rules is the one table of feature combinations the package refuses.
// validate consults it before doing any work, so an option a run cannot
// honor is named up front instead of silently ignored. The first
// matching row wins, so the more specific combination comes first. A
// row that includes fBaseline formats the offending Kind into its
// message.
var rules = []struct {
	both feature
	msg  string
}{
	{fTenants | fBaseline, "rag: a tenant lineup serves on the vLiteRAG multi-tenant runtime, not %s"},
	{fTenants | fIngest, "rag: live ingest streams into one corpus; a tenant lineup has none to mutate"},
	{fTenants | fAdaptive, "rag: the adapt controller re-plans one corpus; a tenant lineup is jointly allocated"},
	{fTenants | fFaults, "rag: fault injection and resilience run on a routed single corpus; a tenant fleet has no resilient router"},
	{fTenants | fDecision, "rag: a decision is one corpus's placement; a tenant lineup is jointly allocated"},
	{fCorpus | fSharedQueue, "rag: SharedQueue is the multi-tenant baseline; it needs Tenants"},
	{fOverload | fSharedQueue, "rag: overload control needs the fair scheduler's per-tenant queues; it cannot bound the shared-queue baseline"},
	{fOverload | fCorpus | fRouted, "rag: overload control runs on a single node or a tenant lineup; a routed single corpus degrades through the resilient front end instead"},
	{fOverload | fIngest, "rag: overload control is not wired into the live-ingest pipeline; drop Overload or run without ingest"},
	{fOverload | fAdaptive, "rag: overload control and the adaptive replan controller would fight over the same latency signal; run one or the other"},
	{fFaults | fIngest, "rag: live ingest runs single-node — fault injection needs Replicas"},
	{fIngest | fRouted, "rag: live ingest runs single-node; drop Replicas"},
	{fAdaptive | fRouted, "rag: the adapt controller re-plans a single node; drop Replicas"},
	{fNetDelay | fSingleNode, "rag: NetDelay models the front↔replica network of a routed run; a single node has none — set Replicas"},
	{fFaults | fSingleNode, "rag: fault injection and resilience need replicas to fail over to — set Replicas"},
	{fAdaptive | fBaseline, "rag: adaptive serving requires the hot-swappable vLiteRAG runtime, got %s"},
	{fCompaction | fBaseline, "rag: compaction needs the hot-swappable vLiteRAG runtime, got %s"},
	{fPrecision | fBaseline, "rag: precision refinement applies to vLiteRAG only, not %s"},
	{fMismatch, "rag: a run serves a decision on the Kind it was made for; only HedraRAG's runtime may serve a vLiteRAG decision, and only one without precision refinement"},
	{fAdaptive | fPrecision, "rag: the adapt controller rebuilds an all-PQ plan and would drop the precision refinement; run one or the other"},
	{fCompaction | fPrecision, "rag: compaction escalates to an adapt rebuild, which would drop the precision refinement; run one or the other"},
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

// features derives the run's feature set from its options alone.
func (opts *Options) features() feature {
	tenants, routed, live, d := opts.Tenants != nil, opts.Replicas > 0, opts.streams() != nil, opts.Decision
	return when(!tenants, fCorpus) | when(tenants, fTenants) |
		when(!routed, fSingleNode) | when(routed, fRouted) |
		when(opts.NetDelay > 0, fNetDelay) |
		when(opts.SharedQueue, fSharedQueue) |
		when(opts.Kind != VLiteRAG, fBaseline) |
		when(opts.Monitor != nil && !live, fAdaptive) |
		when(live, fIngest) |
		when(opts.Monitor != nil && live, fCompaction) |
		when(opts.resilient(), fFaults) |
		when(opts.Precision != nil || (d != nil && d.refined()), fPrecision) |
		when(d != nil, fDecision) |
		when(d != nil && !d.serves(opts.Kind), fMismatch) |
		when(opts.Overload != nil, fOverload)
}

// validate is the one place a run's options are checked: it rejects
// malformed values and every combination the rules table refuses, and
// fills the defaults the run reads — on private copies of the caller's
// lineup and option structs, which a caller may share across concurrent
// runs. It measures, profiles and simulates nothing, so every error
// surfaces before any work.
func (opts *Options) validate() (err error) {
	if err := opts.validateDecision(); err != nil {
		return err
	}
	if opts.Replicas < 0 {
		return fmt.Errorf("rag: negative Replicas %d", opts.Replicas)
	}
	if opts.NetDelay < 0 {
		return fmt.Errorf("rag: negative NetDelay %v", opts.NetDelay)
	}
	if opts.Ingest, err = opts.Ingest.normalized(); err != nil {
		return err
	}
	if err := reject(opts.features(), opts.Kind); err != nil {
		return err
	}
	if opts.Policy, err = serve.ResolvePolicy(opts.Policy); err != nil {
		return err
	}
	if err := opts.Faults.Validate(opts.Replicas); err != nil {
		return err
	}
	if opts.Overload, err = opts.Overload.normalized(); err != nil {
		return err
	}
	if opts.Tenants != nil {
		err = opts.validateTenants()
	} else {
		err = opts.validateCorpus()
	}
	if err != nil {
		return err
	}
	if opts.Duration == 0 {
		opts.Duration = 120 * time.Second
	}
	if opts.Warmup == 0 {
		opts.Warmup = 20 * time.Second
	}
	if opts.Drain == 0 {
		opts.Drain = 120 * time.Second
	}
	// A routed lineup always runs as a fleet; a routed single corpus
	// runs as one only when NetDelay asks for it.
	if opts.Replicas > 0 && opts.NetDelay == 0 && opts.Tenants != nil {
		opts.NetDelay = DefaultNetDelay
	}
	return nil
}

// validateDecision checks and defaults what a decision reads — the
// deployment, the corpus, the Kind, the request shape, the search SLO,
// Algorithm 1's queuing factor, the calibration sample and the
// precision refinement (on a private copy). Run validates through it and
// Decide decides through it, so the two accept the same inputs.
func (opts *Options) validateDecision() (err error) {
	if err := checkDeployment(opts.Node, opts.Model); err != nil {
		return err
	}
	if opts.Tenants == nil {
		if opts.W == nil {
			return fmt.Errorf("rag: nil workload")
		}
		opts.SLOSearch = cmp.Or(opts.SLOSearch, opts.W.Spec.SLOSearch)
	}
	opts.Shape = cmp.Or(opts.Shape, workload.DefaultShape())
	opts.Kind = cmp.Or(opts.Kind, VLiteRAG)
	if !slices.Contains(AllKinds(), opts.Kind) {
		return fmt.Errorf("rag: unknown kind %q", opts.Kind)
	}
	if !(opts.Epsilon >= 0) {
		return fmt.Errorf("rag: queuing factor Epsilon %v is negative or NaN", opts.Epsilon)
	}
	if opts.ProfileQueries < 0 {
		return fmt.Errorf("rag: negative ProfileQueries %d", opts.ProfileQueries)
	}
	opts.Precision, err = opts.Precision.normalized()
	return err
}

// validateCorpus checks a single corpus and the decision it serves.
func (opts *Options) validateCorpus() error {
	if opts.RateSchedule != nil {
		if err := workload.ValidateSchedule(opts.RateSchedule); err != nil {
			return fmt.Errorf("rag: %w", err)
		}
	} else if opts.Rate <= 0 {
		return fmt.Errorf("rag: non-positive rate %v", opts.Rate)
	}
	if err := dataset.ValidateDrift(opts.Drift); err != nil {
		return fmt.Errorf("rag: %w", err)
	}
	if d := opts.Decision; d != nil {
		switch {
		case d.Plan == nil && d.Kind != CPUOnly:
			return fmt.Errorf("rag: the %s decision carries no plan", d.Kind)
		case d.Plan != nil && d.nDed == 0 && d.Plan.NumShards != opts.Node.NumGPUs:
			return fmt.Errorf("rag: prebuilt plan has %d shards, node has %d GPUs", d.Plan.NumShards, opts.Node.NumGPUs)
		}
	}
	return nil
}

// validateTenants checks a lineup and fills each tenant's defaults on a
// private copy.
func (opts *Options) validateTenants() error {
	if opts.W != nil || opts.Rate != 0 || opts.RateSchedule != nil || opts.Drift != nil || opts.SLOSearch != 0 {
		return errors.New("rag: a tenant lineup brings its own corpora, rates and search SLOs; leave W, Rate, RateSchedule, Drift and SLOSearch unset")
	}
	if len(opts.Tenants) == 0 {
		return fmt.Errorf("rag: no tenants")
	}
	opts.Tenants = slices.Clone(opts.Tenants)
	for i := range opts.Tenants {
		tc := &opts.Tenants[i]
		if tc.W == nil {
			return fmt.Errorf("rag: tenant %d (%s) has no workload", i, tc.Name)
		}
		if tc.Rate <= 0 {
			return fmt.Errorf("rag: tenant %d (%s) non-positive rate %v", i, tc.Name, tc.Rate)
		}
		if tc.RateSchedule != nil {
			if err := workload.ValidateSchedule(tc.RateSchedule); err != nil {
				return fmt.Errorf("rag: tenant %d (%s): %w", i, tc.Name, err)
			}
		}
		if _, err := tenant.ParseTier(string(tc.Tier)); err != nil {
			return fmt.Errorf("rag: tenant %d (%s): %w", i, tc.Name, err)
		}
		if tc.Name == "" {
			tc.Name = fmt.Sprintf("tenant-%d", i)
		}
		if tc.SLOSearch == 0 {
			tc.SLOSearch = tc.W.Spec.SLOSearch
		}
	}
	return nil
}
