package rag

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"vectorliterag/internal/adapt"
	"vectorliterag/internal/fault"
	"vectorliterag/internal/serve"
	"vectorliterag/internal/splitter"
)

// quickOpts is baseOpts shrunk to the shortest run that still serves
// traffic: the compatibility table runs dozens of points.
func quickOpts(t *testing.T, kind Kind) Options {
	o := baseOpts(t, kind, 10)
	o.Duration, o.Warmup, o.Drain = 20*time.Second, 5*time.Second, 30*time.Second
	o.ProfileQueries = 1000
	return o
}

func quickMT(t *testing.T) Options {
	o := mtOpts(t)
	o.Duration, o.Warmup, o.Drain = 20*time.Second, 5*time.Second, 30*time.Second
	o.ProfileQueries = 1000
	return o
}

// TestFeatureCompatibility is the end-to-end table of topology × feature
// pairs: each either runs or is rejected up front with its pinned
// message, never silently ignored.
func TestFeatureCompatibility(t *testing.T) {
	crash := fault.Schedule{{Kind: fault.Crash, Replica: 0, At: 5 * time.Second, Duration: 2 * time.Second}}
	overload := &OverloadOptions{QueueCap: 16}
	ingest := &IngestOptions{InsertRate: 4}
	monitor := &adapt.MonitorConfig{}

	run := func(mut func(*Options)) func() error {
		return func() error { o := quickOpts(t, VLiteRAG); mut(&o); _, err := Run(o); return err }
	}
	cluster := func(mut func(*Options)) func() error {
		return run(func(o *Options) { o.Replicas = 2; mut(o) })
	}
	adaptive := func(mut func(*Options)) func() error {
		return run(func(o *Options) { o.Monitor = monitor; mut(o) })
	}
	live := func(io *IngestOptions, compaction bool, mut func(*Options)) func() error {
		return run(func(o *Options) {
			o.Ingest = io
			if compaction {
				o.Monitor = monitor
			}
			mut(o)
		})
	}
	tenants := func(mut func(*Options)) func() error {
		return func() error { o := quickMT(t); mut(&o); _, err := Run(o); return err }
	}
	plain := func(*Options) {}

	cases := []struct {
		name string
		call func() error
		want string // error substring; "" means the pair runs
	}{
		// Overload control: a single node or a tenant lineup only.
		{"Run+overload", run(func(o *Options) { o.Overload = overload }), ""},
		{"routed+overload", cluster(func(o *Options) { o.Overload = overload }), "overload control runs on a single node or a tenant lineup"},
		{"routed(NetDelay)+overload", cluster(func(o *Options) { o.Overload, o.NetDelay = overload, time.Millisecond }), "overload control runs on a single node or a tenant lineup"},
		{"adaptive+overload", adaptive(func(o *Options) { o.Overload = overload }), "overload control and the adaptive replan controller"},
		{"live+overload", live(ingest, false, func(o *Options) { o.Overload = overload }), "overload control is not wired into the live-ingest pipeline"},
		{"live(compaction)+overload", live(ingest, true, func(o *Options) { o.Overload = overload }), "overload control is not wired into the live-ingest pipeline"},
		{"live(frozen)+overload", live(&IngestOptions{}, false, func(o *Options) { o.Overload = overload }), ""},
		{"tenants+overload", tenants(func(o *Options) { o.Overload = overload }), ""},
		{"tenants(replicas)+overload", tenants(func(o *Options) { o.Overload, o.Replicas = overload, 2 }), ""},
		{"tenants(shared-queue)+overload", tenants(func(o *Options) { o.Overload, o.SharedQueue = overload, true }), "shared-queue"},

		// Faults and resilience need replicas to fail over to.
		{"Run+faults", run(func(o *Options) { o.Faults = crash }), "need replicas to fail over to"},
		{"Run+resilience", run(func(o *Options) { o.Resilience = &serve.ResilienceConfig{} }), "need replicas to fail over to"},
		{"adaptive+faults", adaptive(func(o *Options) { o.Faults = crash }), "need replicas to fail over to"},
		{"live+faults", live(ingest, false, func(o *Options) { o.Faults = crash }), "live ingest runs single-node"},
		{"live(frozen)+faults", live(&IngestOptions{}, false, func(o *Options) { o.Faults = crash }), "need replicas to fail over to"},
		{"routed+faults", cluster(func(o *Options) { o.Faults = crash }), ""},
		{"routed(NetDelay)+faults", cluster(func(o *Options) { o.Faults, o.NetDelay = crash, time.Millisecond }), ""},

		// The controllers and the precision refinement act on vLiteRAG's
		// hot-swappable, partitioned placement.
		{"Run(CPU-Only)+precision", run(func(o *Options) { o.Kind, o.Precision = CPUOnly, &PrecisionOptions{} }), "precision refinement applies to vLiteRAG only, not CPU-Only"},
		{"routed(ALL-GPU)+precision", cluster(func(o *Options) { o.Kind, o.Precision = AllGPU, &PrecisionOptions{} }), "precision refinement applies to vLiteRAG only, not ALL-GPU"},
		{"adaptive(HedraRAG)", adaptive(func(o *Options) { o.Kind = HedraRAG }), "adaptive serving requires the hot-swappable vLiteRAG runtime, got HedraRAG"},
		{"live(compaction,CPU-Only)", live(ingest, true, func(o *Options) { o.Kind = CPUOnly }), "compaction needs the hot-swappable vLiteRAG runtime, got CPU-Only"},
		{"live(ingest,CPU-Only)", live(ingest, false, func(o *Options) { o.Kind = CPUOnly }), ""},
		{"Run(CPU-Only)+vLiteRAG decision", run(func(o *Options) { o.Kind, o.Decision = CPUOnly, &Decision{Kind: VLiteRAG, Plan: &splitter.Plan{}} }), "a run serves a decision on the Kind it was made for"},
		{"adaptive+precision", adaptive(func(o *Options) { o.Precision = &PrecisionOptions{} }), "the adapt controller rebuilds an all-PQ plan and would drop the precision refinement"},
		{"live(compaction)+precision", live(ingest, true, func(o *Options) { o.Precision = &PrecisionOptions{} }), "compaction escalates to an adapt rebuild, which would drop the precision refinement"},
		{"live+precision", live(ingest, false, func(o *Options) { o.Precision = &PrecisionOptions{} }), ""},
		{"routed+faults+precision", cluster(func(o *Options) { o.Faults, o.Precision = crash, &PrecisionOptions{} }), ""},
		{"routed(NetDelay)+precision", cluster(func(o *Options) { o.NetDelay, o.Precision = time.Millisecond, &PrecisionOptions{} }), ""},

		// Topology knobs, validated on every run whether or not it routes.
		{"adaptive", adaptive(plain), ""},
		{"Run(NetDelay)", run(func(o *Options) { o.NetDelay = 5 * time.Millisecond }), "a single node has none"},
		{"routed(NetDelay<0)", cluster(func(o *Options) { o.NetDelay = -time.Millisecond }), "negative NetDelay"},
		{"tenants(NetDelay<0)", tenants(func(o *Options) { o.NetDelay = -time.Millisecond }), "negative NetDelay"},
		{"tenants(Replicas<0)", tenants(func(o *Options) { o.Replicas = -3 }), "negative Replicas"},
		{"tenants(bogus policy)", tenants(func(o *Options) { o.Policy = "bogus" }), "unknown routing policy"},
		{"tenants(replicas,bogus policy)", tenants(func(o *Options) { o.Replicas, o.Policy = 2, "bogus" }), "unknown routing policy"},
		{"tenants+W", tenants(func(o *Options) { o.W = testW(t) }), "leave W, Rate"},
		{"tenants+decision", tenants(func(o *Options) { o.Decision = &Decision{Kind: VLiteRAG, Plan: &splitter.Plan{}} }), "a tenant lineup is jointly allocated"},
		{"tenants(replicas,shared-queue)+precision", tenants(func(o *Options) {
			o.Replicas, o.SharedQueue, o.Precision = 2, true, &PrecisionOptions{}
		}), ""},
	}
	for _, tc := range cases {
		err := tc.call()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: should run, got %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v does not contain %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateIsPureAndTotal walks every subset of twelve option axes
// through validate alone — no decision, no simulation. No combination
// panics; every error is a row of the rules table; the combinations one
// Options newly makes representable are each refused by a row; and
// every row is reached.
func TestValidateIsPureAndTotal(t *testing.T) {
	const (
		aTenants = 1 << iota
		aReplicas
		aNetDelay
		aFaults
		aResilience
		aMonitor
		aIngest
		aOverload
		aPrecision
		aDecision
		aSharedQueue
		aBaseline
		axes = iota
	)
	corpus, lineup := quickOpts(t, VLiteRAG), quickMT(t)
	crash := fault.Schedule{{Kind: fault.Crash, Replica: 0, At: 5 * time.Second, Duration: 2 * time.Second}}
	msgs := make([]string, len(rules))
	for i, r := range rules {
		msgs[i] = r.msg
		if r.both&fBaseline != 0 {
			msgs[i] = fmt.Sprintf(r.msg, CPUOnly)
		}
	}
	reached := make([]bool, len(rules))
	for mask := 0; mask < 1<<axes; mask++ {
		has := func(a int) bool { return mask&a != 0 }
		o := corpus
		if has(aTenants) {
			o = lineup
		}
		if has(aReplicas) {
			o.Replicas = 2
		}
		if has(aNetDelay) {
			o.NetDelay = time.Millisecond
		}
		if has(aFaults) {
			o.Faults = crash
		}
		if has(aResilience) {
			o.Resilience = &serve.ResilienceConfig{}
		}
		if has(aMonitor) {
			o.Monitor = &adapt.MonitorConfig{}
		}
		if has(aIngest) {
			o.Ingest = &IngestOptions{InsertRate: 4}
		}
		if has(aOverload) {
			o.Overload = &OverloadOptions{}
		}
		if has(aPrecision) {
			o.Precision = &PrecisionOptions{}
		}
		if has(aDecision) {
			o.Decision = &Decision{Kind: VLiteRAG, Plan: &splitter.Plan{NumShards: corpus.Node.NumGPUs}}
		}
		o.SharedQueue = has(aSharedQueue)
		if has(aBaseline) {
			o.Kind = CPUOnly
		}
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			return o.validate()
		}()
		row := -1
		if err != nil {
			for i, m := range msgs {
				if err.Error() == m {
					row = i
				}
			}
			if row < 0 {
				t.Errorf("mask %012b: %v is not a rules row", mask, err)
				continue
			}
			reached[row] = true
		}
		tenants := has(aTenants)
		newlyRepresentable := (tenants && (has(aMonitor) || has(aIngest) || has(aFaults) || has(aResilience) || has(aDecision) || has(aBaseline))) ||
			(!tenants && has(aReplicas) && (has(aMonitor) || has(aIngest))) ||
			(!tenants && has(aSharedQueue))
		if newlyRepresentable && row < 0 {
			t.Errorf("mask %012b: validate accepted a combination no entry point could express before", mask)
		}
	}
	for i, r := range rules {
		if !reached[i] {
			t.Errorf("no combination reaches the rule %q", r.msg)
		}
	}
}

// TestRunsLeaveOptionsAlone: validation fills defaults on private
// copies — a caller's option structs and tenant lineup come back
// exactly as written.
func TestRunsLeaveOptionsAlone(t *testing.T) {
	prec, over := &PrecisionOptions{}, &OverloadOptions{}
	o := quickOpts(t, VLiteRAG)
	o.Precision, o.Overload = prec, over
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	o.Overload = nil
	if _, err := Run(routed(o, 2, "")); err != nil {
		t.Fatal(err)
	}
	mt := quickMT(t)
	mt.Tenants[1].Name = "" // defaulted to "tenant-1" on the run's own copy
	mt.Precision, mt.Overload = prec, over
	before := append([]TenantConfig(nil), mt.Tenants...)
	if _, err := Run(mt); err != nil {
		t.Fatal(err)
	}
	if *prec != (PrecisionOptions{}) || *over != (OverloadOptions{}) {
		t.Errorf("runs wrote defaults through the caller's options: %+v %+v", *prec, *over)
	}
	if !reflect.DeepEqual(mt.Tenants, before) {
		t.Errorf("Run wrote defaults into the caller's tenants:\n%+v\nwant\n%+v", mt.Tenants, before)
	}
}
