package main

import (
	"fmt"
	"strings"
	"time"

	vlr "vectorliterag"
)

// serveFlags is the serve subcommand's parsed flag set. timeoutSet,
// ingestTuned and capSet record whether -timeout-ms, an ingest tuning
// flag (-ingest-rate, -delete-rate, -reencode-every) or -queue-cap was
// given explicitly: an explicit zero deadline or cap, or tuning without
// -ingest, is rejected, while a flag never given keeps its default.
type serveFlags struct {
	system, dataset, model, policy, tiers, pattern, faults, stageBudgets string

	rate, ingestRate, deleteRate, sqBudget, nvmeShare float64
	dur, netDelay, driftAt, slo, reencodeEvery        time.Duration
	seed                                              uint64

	replicas, workers, tenants, driftRotate, retry, hedgeMS, timeoutMS, queueCap int

	adaptive, sharedQueue, degrade, ingest, brownout, precision bool
	timeoutSet, ingestTuned, capSet                             bool
}

// resilient reports whether any flag of the failure-handling group is
// set.
func (f serveFlags) resilient() bool {
	return f.faults != "" || f.retry != 0 || f.hedgeMS != 0 || f.timeoutMS != 0 || f.degrade
}

// precisionOptions is the -precision group, or nil without -precision.
func (f serveFlags) precisionOptions() *vlr.PrecisionOptions {
	if !f.precision {
		return nil
	}
	return &vlr.PrecisionOptions{SQBudgetFrac: f.sqBudget, NVMeColdShare: f.nvmeShare}
}

// overloadOptions is the overload-control group, or nil when neither
// -brownout nor -queue-cap was given.
func (f serveFlags) overloadOptions() *vlr.OverloadOptions {
	if !f.brownout && !f.capSet {
		return nil
	}
	ov := &vlr.OverloadOptions{QueueCap: f.queueCap, Brownout: f.brownout}
	if f.stageBudgets != "" {
		// Validated in validateServeFlags; parse errors cannot reach here.
		ov.RetrievalBudget, ov.GenerationBudget, _ = parseStageBudgets(f.stageBudgets)
	}
	return ov
}

// parseStageBudgets splits a -stage-budgets value of the form
// "<retrieval>:<generation>" (e.g. "350ms:600ms") into the two
// per-stage latency budgets. Both must parse and be positive.
func parseStageBudgets(s string) (retr, gen time.Duration, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("serve: -stage-budgets wants <retrieval>:<generation> (e.g. 350ms:600ms), have %q", s)
	}
	if retr, err = time.ParseDuration(strings.TrimSpace(parts[0])); err != nil {
		return 0, 0, fmt.Errorf("serve: -stage-budgets retrieval budget %q: %v", parts[0], err)
	}
	if gen, err = time.ParseDuration(strings.TrimSpace(parts[1])); err != nil {
		return 0, 0, fmt.Errorf("serve: -stage-budgets generation budget %q: %v", parts[1], err)
	}
	if retr <= 0 || gen <= 0 {
		return 0, 0, fmt.Errorf("serve: -stage-budgets must both be positive (have %v:%v)", retr, gen)
	}
	return retr, gen, nil
}

// validateServeFlags rejects nonsensical serve parameters and flag
// combinations up front, in the style of serve.ResolvePolicy's error:
// name the knob, echo the bad value, state what is accepted — so no
// flag is parsed and then silently ignored by the mode that runs.
func validateServeFlags(f serveFlags) error {
	vlite := vlr.System(f.system) == vlr.VLiteRAG
	switch {
	case f.rate <= 0:
		return fmt.Errorf("serve: -rate must be positive (have %g)", f.rate)
	case f.replicas <= 0:
		return fmt.Errorf("serve: -replicas must be positive (have %d)", f.replicas)
	case f.workers < 0:
		return fmt.Errorf("serve: -workers must not be negative (have %d)", f.workers)
	case f.timeoutSet && f.timeoutMS <= 0:
		return fmt.Errorf("serve: -timeout-ms must be positive (have %d)", f.timeoutMS)
	case f.netDelay > 0 && f.replicas == 1:
		return fmt.Errorf("serve: -netdelay models the front<->replica network; add -replicas > 1")
	case f.adaptive && f.replicas > 1:
		return fmt.Errorf("serve: -adapt serves a single adaptive pipeline; drop -replicas")
	case f.adaptive && !vlite:
		return fmt.Errorf("serve: -adapt requires the hot-swappable vLiteRAG runtime, not %s", f.system)
	case f.ingest && f.replicas > 1:
		return fmt.Errorf("serve: -ingest streams mutations into a single live pipeline; drop -replicas")
	case f.tenants > 0 && (f.adaptive || f.ingest):
		return fmt.Errorf("serve: -tenants is its own serving mode; drop -adapt/-ingest")
	case f.tenants > 0 && f.driftAt > 0:
		return fmt.Errorf("serve: -drift-at rotates one corpus's popularity; a -tenants lineup has none to drift")
	case f.tenants > 0 && f.resilient():
		return fmt.Errorf("serve: -faults/-retry/-hedge-ms/-timeout-ms/-degrade drive the single-corpus resilient cluster; drop them with -tenants")
	case f.sharedQueue && f.tenants <= 0:
		return fmt.Errorf("serve: -shared-queue is the multi-tenant baseline; add -tenants")
	case f.adaptive && f.precision:
		return fmt.Errorf("serve: -adapt rebuilds an all-PQ plan and would drop the -precision refinement; run one or the other")
	case f.precision && !vlite:
		return fmt.Errorf("serve: -precision refines the vLiteRAG placement, not %s", f.system)
	case (f.sqBudget != 0 || f.nvmeShare != 0) && !f.precision:
		return fmt.Errorf("serve: -sq-budget/-nvme-share tune the -precision refinement; add -precision")
	case f.ingestTuned && !f.ingest:
		return fmt.Errorf("serve: -ingest-rate/-delete-rate/-reencode-every tune the mutation stream and need -ingest")
	case f.ingest && f.ingestRate < 0:
		return fmt.Errorf("serve: -ingest-rate must be non-negative (have %g)", f.ingestRate)
	case f.ingest && f.deleteRate < 0:
		return fmt.Errorf("serve: -delete-rate must be non-negative (have %g)", f.deleteRate)
	case f.ingest && f.reencodeEvery <= 0:
		return fmt.Errorf("serve: -reencode-every must be positive (have %v)", f.reencodeEvery)
	case f.capSet && f.queueCap <= 0:
		return fmt.Errorf("serve: -queue-cap must be positive (have %d); omit the flag for the default bound", f.queueCap)
	case f.stageBudgets != "" && !f.brownout:
		return fmt.Errorf("serve: -stage-budgets tunes the brownout controller's per-stage latency budgets; add -brownout")
	case (f.brownout || f.capSet) && f.replicas > 1 && f.tenants <= 0:
		return fmt.Errorf("serve: -brownout/-queue-cap meter one node or a -tenants lineup; a -replicas cluster degrades through -degrade instead")
	case (f.brownout || f.capSet) && f.sharedQueue:
		return fmt.Errorf("serve: -shared-queue has no per-tenant queues to bound; drop -brownout/-queue-cap")
	}
	if f.stageBudgets != "" {
		if _, _, err := parseStageBudgets(f.stageBudgets); err != nil {
			return err
		}
	}
	return nil
}

// resilienceFromFlags translates the failure-handling flag group into a
// ResilienceConfig, or nil when none of its flags is set. The resilient
// path needs spare replicas to fail over to, so any flag in the group
// requires -replicas > 1.
func resilienceFromFlags(f serveFlags) (*vlr.ResilienceConfig, error) {
	if !f.resilient() {
		return nil, nil
	}
	if f.replicas < 2 {
		return nil, fmt.Errorf("serve: -faults/-retry/-hedge-ms/-timeout-ms/-degrade need replicas to fail over to (have -replicas %d, want > 1)", f.replicas)
	}
	if f.retry < 0 {
		return nil, fmt.Errorf("serve: -retry must be non-negative (have %d)", f.retry)
	}
	rc := &vlr.ResilienceConfig{
		MaxRetries: f.retry,
		Timeout:    time.Duration(f.timeoutMS) * time.Millisecond,
		Degrade:    f.degrade,
	}
	switch {
	case f.hedgeMS > 0:
		rc.HedgeDelay = time.Duration(f.hedgeMS) * time.Millisecond
	case f.hedgeMS < 0:
		rc.HedgeAuto = true
	}
	return rc, nil
}
