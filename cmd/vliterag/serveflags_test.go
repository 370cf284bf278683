package main

import (
	"flag"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	vlr "vectorliterag"
	"vectorliterag/internal/rag"
)

var (
	sharedOnce sync.Once
	sharedW    *vlr.Workload
	sharedErr  error
)

// orcas1K is the ORCAS-1K workload every serve test shares.
func orcas1K(t *testing.T) *vlr.Workload {
	t.Helper()
	sharedOnce.Do(func() { sharedW, sharedErr = vlr.NewWorkload(vlr.Orcas1K) })
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedW
}

// parseServe parses a serve command line through the command's own
// flag set.
func parseServe(t *testing.T, args string) *serveFlags {
	t.Helper()
	fs, f := serveFlagSet(flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := f.parse(fs, strings.Fields(args)); err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return f
}

// TestValidateServeFlags walks serve command lines through the path
// serveCmd takes: the flag checks, the options, and rag.Run. A row whose
// error starts with "rag:" is one the flags pass and rag's rules refuse
// before any work, so the command holds no copy of a mode rule. Rows
// that run do so on a 1 s arrival window.
func TestValidateServeFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    string
		wantErr string // substring; "" means the run goes ahead
	}{
		{"defaults", "", ""},
		{"zero rate", "-rate 0", "-rate"},
		{"negative rate", "-rate -5", "-rate"},
		{"zero replicas", "-replicas 0", "-replicas"},
		{"negative replicas", "-replicas -2", "-replicas"},
		{"negative tenants", "-tenants -1", "-tenants"},
		{"zero workers", "-replicas 2 -workers 0", ""}, // one per GOMAXPROCS
		{"negative workers", "-replicas 2 -workers -1", "rag: negative Workers"},
		{"explicit zero timeout", "-replicas 2 -timeout-ms 0", "-timeout-ms"},
		{"negative timeout", "-replicas 2 -timeout-ms -100", "-timeout-ms"},
		{"unset timeout default", "-replicas 2", ""},
		{"valid timeout", "-replicas 2 -timeout-ms 8000", ""},
		{"timeout under one generation", "-replicas 3 -retry 1 -timeout-ms 900 -rate 60", "rag: resilience Timeout 900ms expires before any attempt completes"},
		{"negative retry", "-replicas 2 -retry -1", "-retry"},
		{"faults on one node", "-faults crash@10s:r0:5s", "rag: fault injection and resilience need replicas"},
		{"retry on one node", "-retry 2", "rag: fault injection and resilience need replicas"},
		{"valid ingest", "-ingest -ingest-rate 4 -delete-rate 1", ""},
		{"ingest zero rates", "-ingest -ingest-rate 0 -delete-rate 0", ""},
		{"ingest tuning without -ingest", "-ingest-rate 4", "-ingest"},
		{"negative insert rate", "-ingest -ingest-rate -4", "rag: negative ingest rate"},
		{"negative delete rate", "-ingest -delete-rate -1", "rag: negative ingest rate"},
		{"zero reencode interval", "-ingest -ingest-rate 4 -reencode-every 0s", "-reencode-every"},
		{"negative reencode interval", "-ingest -ingest-rate 4 -reencode-every -1s", "-reencode-every"},
		{"brownout with tenants", "-brownout -tenants 3", ""},
		{"queue cap with tenants", "-queue-cap 32 -tenants 3", ""},
		{"full brownout group", "-brownout -queue-cap 32 -stage-budgets 350ms:600ms -tenants 3", ""},
		{"explicit zero queue cap", "-queue-cap 0 -tenants 3", "-queue-cap"},
		{"negative queue cap", "-queue-cap -4 -tenants 3", "-queue-cap"},
		// A single node serves the overload group itself.
		{"brownout without tenants", "-brownout", ""},
		{"queue cap without tenants", "-queue-cap 32", ""},
		{"brownout on a cluster", "-brownout -replicas 2", "rag: overload control runs on a single node or a tenant lineup"},
		{"brownout on a tenant fleet", "-brownout -replicas 2 -tenants 3", ""},
		{"brownout on the shared queue", "-brownout -tenants 3 -shared-queue", "rag: overload control needs the fair scheduler's per-tenant queues"},
		{"stage budgets without brownout", "-stage-budgets 350ms:600ms -tenants 3", "-brownout"},
		{"stage budgets missing a stage", "-brownout -stage-budgets 350ms", "-stage-budgets"},
		{"stage budgets unparsable", "-brownout -stage-budgets fast:slow", "-stage-budgets"},
		{"stage budgets non-positive", "-brownout -stage-budgets 350ms:-1s", "-stage-budgets"},
		// Tuning flags without their mode, which the run would ignore.
		{"drift rotate without drift", "-drift-rotate 50", "-drift-at"},
		{"tiers without tenants", "-tiers gold,bronze", "-tenants"},
		{"sq budget without precision", "-sq-budget 0.2", "-precision"},
		{"nvme share without precision", "-nvme-share 0.05", "-precision"},
		// Values rag refuses on every run.
		{"negative duration", "-duration -5s", "rag: negative Duration"},
		{"negative drift onset", "-drift-at -5s", "rag: dataset: drift event 0 at negative time"},
		{"negative slo on a baseline", "-system ALL-GPU -slo -50ms", "rag: negative SLOSearch"},
		{"negative slo on a lineup", "-tenants 3 -slo -50ms", "rag: tenant 0 (gold-0) negative SLOSearch"},
		{"unknown policy on one node", "-policy bogus", "unknown routing policy"},
		// Mode combinations: each one rag's rules table refuses.
		{"adapt with replicas", "-adapt -replicas 2", "rag: the adapt controller re-plans a single node"},
		{"adapt on a baseline", "-adapt -system CPU-Only", "rag: adaptive serving requires the hot-swappable vLiteRAG runtime, got CPU-Only"},
		{"adapt with tenants", "-adapt -tenants 3", "rag: the adapt controller re-plans one corpus"},
		{"ingest with replicas", "-ingest -ingest-rate 0 -delete-rate 0 -replicas 2", "rag: live ingest runs single-node; drop Replicas"},
		{"live ingest with replicas", "-ingest -replicas 2", "rag: live ingest runs single-node; drop Replicas"},
		{"ingest with tenants", "-ingest -ingest-rate 0 -delete-rate 0 -tenants 3", "rag: live ingest streams into one corpus"},
		{"adapt with precision", "-adapt -precision", "rag: the adapt controller rebuilds an all-PQ plan and would drop the precision refinement"},
		{"precision on a baseline", "-precision -system ALL-GPU", "rag: precision refinement applies to vLiteRAG only, not ALL-GPU"},
		{"precision with tenants", "-precision -sq-budget 0.2 -tenants 3", ""},
		{"shared queue without tenants", "-shared-queue", "rag: SharedQueue is the multi-tenant baseline"},
		{"drift with tenants", "-drift-at 1m -tenants 3", "rag: a tenant lineup brings its own corpora"},
		{"faults with tenants", "-faults crash@10s:r0:5s -replicas 2 -tenants 3", "rag: fault injection and resilience run on a routed single corpus"},
		{"degrade with tenants", "-degrade -replicas 2 -tenants 3", "rag: fault injection and resilience run on a routed single corpus"},
		{"lineup on a baseline", "-system CPU-Only -tenants 3", "rag: a tenant lineup serves on the vLiteRAG multi-tenant runtime, not CPU-Only"},
		{"netdelay on one node", "-netdelay 1ms", "rag: NetDelay models the front↔replica network"},
		{"netdelay on a lineup", "-netdelay 1ms -tenants 3", "rag: NetDelay models the front↔replica network"},
		{"netdelay on a cluster", "-netdelay 1ms -replicas 4", ""},
	}
	w := orcas1K(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := parseServe(t, "-duration 1s "+tc.args)
			err := validateServeFlags(f)
			if strings.HasPrefix(tc.wantErr, "rag:") && err != nil {
				t.Fatalf("the flag checks refused a combination rag's rules own: %v", err)
			}
			if err == nil {
				var o rag.Options
				if o, err = f.options(w); err == nil {
					_, err = rag.Run(o)
				}
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted; want error naming %s", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name %s", err, tc.wantErr)
			}
		})
	}
}

func TestResilienceFromFlags(t *testing.T) {
	// No resilience flags → nil config.
	if rc, err := resilienceFromFlags(parseServe(t, "")); err != nil || rc != nil {
		t.Fatalf("bare flags: got %v, %v; want nil, nil", rc, err)
	}
	if _, err := resilienceFromFlags(parseServe(t, "-retry -1 -replicas 2")); err == nil {
		t.Fatal("negative -retry accepted")
	}
	// Full group translates faithfully.
	rc, err := resilienceFromFlags(parseServe(t, "-faults crash@10s:r0:5s -retry 2 -hedge-ms 500 -timeout-ms 8000 -degrade -replicas 3"))
	if err != nil {
		t.Fatal(err)
	}
	if rc.MaxRetries != 2 || rc.Timeout != 8*time.Second || rc.HedgeDelay != 500*time.Millisecond || rc.HedgeAuto || !rc.Degrade {
		t.Fatalf("config %+v does not match flags", rc)
	}
	// Negative hedge selects the p95-derived delay.
	rc, err = resilienceFromFlags(parseServe(t, "-retry 1 -hedge-ms -1 -replicas 2"))
	if err != nil {
		t.Fatal(err)
	}
	if !rc.HedgeAuto || rc.HedgeDelay != 0 {
		t.Fatalf("config %+v: -hedge-ms -1 should set HedgeAuto", rc)
	}
}

func TestParseStageBudgets(t *testing.T) {
	retr, gen, err := parseStageBudgets("350ms:600ms")
	if err != nil || retr != 350*time.Millisecond || gen != 600*time.Millisecond {
		t.Fatalf("350ms:600ms -> %v, %v, %v", retr, gen, err)
	}
	if _, _, err := parseStageBudgets("350ms:600ms:1s"); err == nil {
		t.Fatal("three stages accepted")
	}
	if _, _, err := parseStageBudgets(""); err == nil {
		t.Fatal("empty value accepted")
	}
}
