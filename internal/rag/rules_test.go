package rag

import (
	"reflect"
	"strings"
	"testing"
	"time"

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

func quickMT(t *testing.T) MultiTenantOptions {
	o := mtOpts(t)
	o.Duration, o.Warmup, o.Drain = 20*time.Second, 5*time.Second, 30*time.Second
	o.ProfileQueries = 1000
	return o
}

// TestFeatureCompatibility is the one table of entry point × feature
// pairs: each either runs or is rejected up front with its pinned
// message, never silently ignored. Every row of the rule table must be
// reached by some case here.
func TestFeatureCompatibility(t *testing.T) {
	crash := fault.Schedule{{Kind: fault.Crash, Replica: 0, At: 5 * time.Second, Duration: 2 * time.Second}}
	overload := &OverloadOptions{QueueCap: 16}
	ingest := IngestOptions{InsertRate: 4}
	compaction := IngestOptions{InsertRate: 4, Compaction: true}

	run := func(mut func(*Options)) func() error {
		return func() error { o := quickOpts(t, VLiteRAG); mut(&o); _, err := Run(o); return err }
	}
	cluster := func(mut func(*Options)) func() error {
		return func() error { o := quickOpts(t, VLiteRAG); mut(&o); _, err := RunCluster(o, 2, ""); return err }
	}
	adaptive := func(mut func(*Options)) func() error {
		return func() error {
			o := AdaptiveOptions{Options: quickOpts(t, VLiteRAG)}
			mut(&o.Options)
			_, err := RunAdaptive(o)
			return err
		}
	}
	live := func(io IngestOptions, mut func(*Options)) func() error {
		return func() error {
			o := LiveOptions{Options: quickOpts(t, VLiteRAG), Ingest: io}
			mut(&o.Options)
			_, err := RunLive(o)
			return err
		}
	}
	tenants := func(mut func(*MultiTenantOptions)) func() error {
		return func() error { o := quickMT(t); mut(&o); _, err := RunMultiTenant(o); return err }
	}
	plain := func(*Options) {}

	cases := []struct {
		name string
		call func() error
		want string // error substring; "" means the pair runs
	}{
		// Overload control: single-node Run and multi-tenant serving only.
		{"Run+overload", run(func(o *Options) { o.Overload = overload }), ""},
		{"RunCluster+overload", cluster(func(o *Options) { o.Overload = overload }), "overload control runs on single-node Run"},
		{"RunCluster(NetDelay)+overload", cluster(func(o *Options) { o.Overload, o.NetDelay = overload, time.Millisecond }), "overload control runs on single-node Run"},
		{"RunAdaptive+overload", adaptive(func(o *Options) { o.Overload = overload }), "overload control and the adaptive replan controller"},
		{"RunLive(ingest)+overload", live(ingest, func(o *Options) { o.Overload = overload }), "overload control is not wired into the live-ingest pipeline"},
		{"RunLive(compaction)+overload", live(compaction, func(o *Options) { o.Overload = overload }), "overload control is not wired into the live-ingest pipeline"},
		{"RunLive(frozen)+overload", live(IngestOptions{}, func(o *Options) { o.Overload = overload }), ""},
		{"RunMultiTenant+overload", tenants(func(o *MultiTenantOptions) { o.Overload = overload }), ""},
		{"RunMultiTenant(replicas)+overload", tenants(func(o *MultiTenantOptions) { o.Overload, o.Replicas = overload, 2 }), ""},
		{"RunMultiTenant(shared-queue)+overload", tenants(func(o *MultiTenantOptions) { o.Overload, o.SharedQueue = overload, true }), "shared-queue"},

		// Faults and resilience need replicas to fail over to.
		{"Run+faults", run(func(o *Options) { o.Faults = crash }), "need replicas to fail over to"},
		{"Run+resilience", run(func(o *Options) { o.Resilience = &serve.ResilienceConfig{} }), "need replicas to fail over to"},
		{"RunAdaptive+faults", adaptive(func(o *Options) { o.Faults = crash }), "need replicas to fail over to"},
		{"RunLive(ingest)+faults", live(ingest, func(o *Options) { o.Faults = crash }), "live ingest runs single-node"},
		{"RunLive(frozen)+faults", live(IngestOptions{}, func(o *Options) { o.Faults = crash }), "need replicas to fail over to"},
		{"RunCluster+faults", cluster(func(o *Options) { o.Faults = crash }), ""},
		{"RunCluster(NetDelay)+faults", cluster(func(o *Options) { o.Faults, o.NetDelay = crash, time.Millisecond }), ""},

		// The controllers and the precision refinement act on vLiteRAG's
		// hot-swappable, partitioned placement.
		{"Run(CPU-Only)+precision", run(func(o *Options) { o.Kind, o.Precision = CPUOnly, &PrecisionOptions{} }), "precision refinement applies to vLiteRAG only, not CPU-Only"},
		{"RunCluster(ALL-GPU)+precision", cluster(func(o *Options) { o.Kind, o.Precision = AllGPU, &PrecisionOptions{} }), "precision refinement applies to vLiteRAG only, not ALL-GPU"},
		{"RunAdaptive(HedraRAG)", adaptive(func(o *Options) { o.Kind = HedraRAG }), "adaptive serving requires the hot-swappable vLiteRAG runtime, got HedraRAG"},
		{"RunLive(compaction,CPU-Only)", live(compaction, func(o *Options) { o.Kind = CPUOnly }), "compaction needs the hot-swappable vLiteRAG runtime, got CPU-Only"},
		{"RunLive(ingest,CPU-Only)", live(ingest, func(o *Options) { o.Kind = CPUOnly }), ""},
		{"Run(HedraRAG)+prebuilt", run(func(o *Options) { o.Kind, o.Plan = HedraRAG, &splitter.Plan{} }), "a prebuilt plan serves vLiteRAG only, not HedraRAG"},
		{"RunAdaptive+precision", adaptive(func(o *Options) { o.Precision = &PrecisionOptions{} }), ""},
		{"RunLive(compaction)+precision", live(compaction, func(o *Options) { o.Precision = &PrecisionOptions{} }), ""},
		{"RunCluster+faults+precision", cluster(func(o *Options) { o.Faults, o.Precision = crash, &PrecisionOptions{} }), ""},
		{"RunCluster(NetDelay)+precision", cluster(func(o *Options) { o.NetDelay, o.Precision = time.Millisecond, &PrecisionOptions{} }), ""},

		// Topology knobs.
		{"RunAdaptive", adaptive(plain), ""},
		{"RunCluster(NetDelay<0)", cluster(func(o *Options) { o.NetDelay = -time.Millisecond }), "negative NetDelay"},
		{"RunMultiTenant(NetDelay<0)", tenants(func(o *MultiTenantOptions) { o.NetDelay = -time.Millisecond }), "negative NetDelay"},
		{"RunMultiTenant(replicas,bogus policy)", tenants(func(o *MultiTenantOptions) { o.Replicas, o.Policy = 2, "bogus" }), "unknown routing policy"},
		{"RunMultiTenant(replicas,shared-queue)+precision", tenants(func(o *MultiTenantOptions) {
			o.Replicas, o.SharedQueue, o.Precision = 2, true, &PrecisionOptions{}
		}), ""},
	}
	reached := make([]bool, len(rules))
	for _, tc := range cases {
		err := tc.call()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: should run, got %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v does not contain %q", tc.name, err, tc.want)
		}
		for i, r := range rules {
			if err != nil && strings.HasPrefix(err.Error(), strings.SplitN(r.msg, "%s", 2)[0]) {
				reached[i] = true
			}
		}
	}
	for i, r := range rules {
		if !reached[i] {
			t.Errorf("no case reaches the rule %q", r.msg)
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
	if _, err := RunCluster(o, 2, ""); err != nil {
		t.Fatal(err)
	}
	mt := quickMT(t)
	mt.Tenants[1].Name = "" // defaulted to "tenant-1" on the run's own copy
	mt.Precision, mt.Overload = prec, over
	before := append([]TenantConfig(nil), mt.Tenants...)
	if _, err := RunMultiTenant(mt); err != nil {
		t.Fatal(err)
	}
	if *prec != (PrecisionOptions{}) || *over != (OverloadOptions{}) {
		t.Errorf("runs wrote defaults through the caller's options: %+v %+v", *prec, *over)
	}
	if !reflect.DeepEqual(mt.Tenants, before) {
		t.Errorf("RunMultiTenant wrote defaults into the caller's tenants:\n%+v\nwant\n%+v", mt.Tenants, before)
	}
}
