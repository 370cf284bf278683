package main

import (
	"strings"
	"testing"
	"time"
)

func TestValidateServeFlags(t *testing.T) {
	// base is the flag set of a plain single-node run; each row changes
	// what it names.
	base := serveFlags{system: "vLiteRAG", rate: 30, replicas: 1, workers: 8, reencodeEvery: 25 * time.Second}
	cases := []struct {
		name    string
		mod     func(f *serveFlags)
		wantErr string // substring; "" means valid
	}{
		{"defaults", func(f *serveFlags) {}, ""},
		{"zero rate", func(f *serveFlags) { f.rate = 0 }, "-rate"},
		{"negative rate", func(f *serveFlags) { f.rate = -5 }, "-rate"},
		{"zero replicas", func(f *serveFlags) { f.replicas = 0 }, "-replicas"},
		{"negative replicas", func(f *serveFlags) { f.replicas = -2 }, "-replicas"},
		{"zero workers", func(f *serveFlags) { f.replicas, f.workers = 2, 0 }, ""}, // one per GOMAXPROCS
		{"negative workers", func(f *serveFlags) { f.replicas, f.workers = 2, -1 }, "-workers"},
		{"explicit zero timeout", func(f *serveFlags) { f.replicas, f.timeoutSet = 2, true }, "-timeout-ms"},
		{"negative timeout", func(f *serveFlags) { f.replicas, f.timeoutMS, f.timeoutSet = 2, -100, true }, "-timeout-ms"},
		{"unset timeout default", func(f *serveFlags) { f.replicas = 2 }, ""},
		{"valid timeout", func(f *serveFlags) { f.replicas, f.timeoutMS, f.timeoutSet = 2, 8000, true }, ""},
		{"valid ingest", func(f *serveFlags) { f.ingest, f.ingestRate, f.deleteRate, f.ingestTuned = true, 4, 1, true }, ""},
		{"ingest zero rates", func(f *serveFlags) { f.ingest = true }, ""},
		{"ingest tuning without -ingest", func(f *serveFlags) { f.ingestRate, f.ingestTuned = 4, true }, "-ingest"},
		{"negative insert rate", func(f *serveFlags) { f.ingest, f.ingestRate = true, -4 }, "-ingest-rate"},
		{"negative delete rate", func(f *serveFlags) { f.ingest, f.deleteRate = true, -1 }, "-delete-rate"},
		{"zero reencode interval", func(f *serveFlags) { f.ingest, f.ingestRate, f.reencodeEvery = true, 4, 0 }, "-reencode-every"},
		{"negative reencode interval", func(f *serveFlags) { f.ingest, f.ingestRate, f.reencodeEvery = true, 4, -time.Second }, "-reencode-every"},
		{"brownout with tenants", func(f *serveFlags) { f.brownout, f.tenants = true, 3 }, ""},
		{"queue cap with tenants", func(f *serveFlags) { f.queueCap, f.capSet, f.tenants = 32, true, 3 }, ""},
		{"full brownout group", func(f *serveFlags) {
			f.brownout, f.queueCap, f.capSet, f.stageBudgets, f.tenants = true, 32, true, "350ms:600ms", 3
		}, ""},
		{"explicit zero queue cap", func(f *serveFlags) { f.capSet, f.tenants = true, 3 }, "-queue-cap"},
		{"negative queue cap", func(f *serveFlags) { f.queueCap, f.capSet, f.tenants = -4, true, 3 }, "-queue-cap"},
		// A single node serves the overload group itself.
		{"brownout without tenants", func(f *serveFlags) { f.brownout = true }, ""},
		{"queue cap without tenants", func(f *serveFlags) { f.queueCap, f.capSet = 32, true }, ""},
		{"brownout on a cluster", func(f *serveFlags) { f.brownout, f.replicas = true, 2 }, "-degrade"},
		{"brownout on a tenant fleet", func(f *serveFlags) { f.brownout, f.replicas, f.tenants = true, 2, 3 }, ""},
		{"brownout on the shared queue", func(f *serveFlags) { f.brownout, f.tenants, f.sharedQueue = true, 3, true }, "-shared-queue"},
		{"stage budgets without brownout", func(f *serveFlags) { f.stageBudgets, f.tenants = "350ms:600ms", 3 }, "-brownout"},
		{"stage budgets missing a stage", func(f *serveFlags) { f.brownout, f.stageBudgets = true, "350ms" }, "-stage-budgets"},
		{"stage budgets unparsable", func(f *serveFlags) { f.brownout, f.stageBudgets = true, "fast:slow" }, "-stage-budgets"},
		{"stage budgets non-positive", func(f *serveFlags) { f.brownout, f.stageBudgets = true, "350ms:-1s" }, "-stage-budgets"},
		// Mode checks: each combination a mode cannot honor.
		{"adapt with replicas", func(f *serveFlags) { f.adaptive, f.replicas = true, 2 }, "-adapt"},
		{"adapt on a baseline", func(f *serveFlags) { f.adaptive, f.system = true, "CPU-Only" }, "-adapt"},
		{"adapt with tenants", func(f *serveFlags) { f.adaptive, f.tenants = true, 3 }, "-tenants"},
		{"ingest with replicas", func(f *serveFlags) { f.ingest, f.replicas = true, 2 }, "-ingest"},
		{"ingest with tenants", func(f *serveFlags) { f.ingest, f.tenants = true, 3 }, "-tenants"},
		{"adapt with precision", func(f *serveFlags) { f.adaptive, f.precision = true, true }, "-precision"},
		{"precision on a baseline", func(f *serveFlags) { f.precision, f.system = true, "ALL-GPU" }, "-precision"},
		{"sq budget without precision", func(f *serveFlags) { f.sqBudget = 0.2 }, "-precision"},
		{"nvme share without precision", func(f *serveFlags) { f.nvmeShare = 0.05 }, "-precision"},
		{"precision with tenants", func(f *serveFlags) { f.precision, f.sqBudget, f.tenants = true, 0.2, 3 }, ""},
		{"shared queue without tenants", func(f *serveFlags) { f.sharedQueue = true }, "-tenants"},
		{"drift with tenants", func(f *serveFlags) { f.driftAt, f.tenants = time.Minute, 3 }, "-drift-at"},
		{"faults with tenants", func(f *serveFlags) { f.faults, f.replicas, f.tenants = "crash@10s:r0:5s", 2, 3 }, "-tenants"},
		{"degrade with tenants", func(f *serveFlags) { f.degrade, f.replicas, f.tenants = true, 2, 3 }, "-tenants"},
		{"netdelay on one node", func(f *serveFlags) { f.netDelay = time.Millisecond }, "-netdelay"},
		{"netdelay on a cluster", func(f *serveFlags) { f.netDelay, f.replicas = time.Millisecond, 4 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := base
			tc.mod(&f)
			err := validateServeFlags(f)
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
	// No resilience flags → nil config, any replica count.
	if rc, err := resilienceFromFlags(serveFlags{replicas: 1}); err != nil || rc != nil {
		t.Fatalf("bare flags: got %v, %v; want nil, nil", rc, err)
	}
	// Any resilience flag on a single replica is rejected.
	if _, err := resilienceFromFlags(serveFlags{faults: "crash@10s:r0:5s", replicas: 1}); err == nil {
		t.Fatal("-faults with -replicas 1 accepted")
	}
	if _, err := resilienceFromFlags(serveFlags{retry: 2, replicas: 1}); err == nil {
		t.Fatal("-retry with -replicas 1 accepted")
	}
	if _, err := resilienceFromFlags(serveFlags{retry: -1, replicas: 2}); err == nil {
		t.Fatal("negative -retry accepted")
	}
	// Full group translates faithfully.
	rc, err := resilienceFromFlags(serveFlags{faults: "crash@10s:r0:5s", retry: 2, hedgeMS: 500, timeoutMS: 8000, degrade: true, replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rc.MaxRetries != 2 || rc.Timeout != 8*time.Second || rc.HedgeDelay != 500*time.Millisecond || rc.HedgeAuto || !rc.Degrade {
		t.Fatalf("config %+v does not match flags", rc)
	}
	// Negative hedge selects the p95-derived delay.
	rc, err = resilienceFromFlags(serveFlags{retry: 1, hedgeMS: -1, replicas: 2})
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
