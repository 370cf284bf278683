package rag

import (
	"strings"
	"testing"
	"time"
)

func TestOverloadOptionsNormalize(t *testing.T) {
	cases := []struct {
		name    string
		o       OverloadOptions
		wantErr string // substring; "" means valid
	}{
		{name: "zero value", o: OverloadOptions{}},
		{name: "full set", o: OverloadOptions{QueueCap: 16, Brownout: true,
			RetrievalBudget: 300 * time.Millisecond, GenerationBudget: 500 * time.Millisecond}},
		{name: "negative queue cap", o: OverloadOptions{QueueCap: -1}, wantErr: "QueueCap"},
		{name: "negative retrieval budget", o: OverloadOptions{RetrievalBudget: -time.Second}, wantErr: "budget"},
		{name: "negative generation budget", o: OverloadOptions{GenerationBudget: -time.Second}, wantErr: "budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.o
			o, err := in.normalized()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if o.QueueCap == 0 {
					t.Fatal("normalized left the default queue cap at 0")
				}
				if in != tc.o {
					t.Fatalf("normalized wrote through the caller's options: %+v", in)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not name %s", err, tc.wantErr)
			}
		})
	}
}

// TestRunOverloadSingleNode: the single-node path constructs the rig,
// reports the admission outcome, and keeps the queue bound honest.
func TestRunOverloadSingleNode(t *testing.T) {
	o := baseOpts(t, VLiteRAG, 10)
	o.Overload = &OverloadOptions{QueueCap: 16, Brownout: true}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overload == nil {
		t.Fatal("overload run returned no report")
	}
	if res.Overload.QueueCap != 16 {
		t.Fatalf("report echoes cap %d, want 16", res.Overload.QueueCap)
	}
	if got := len(res.Overload.Rejected); got != 1 {
		t.Fatalf("single-tenant report has %d rejection counters", got)
	}
	if !res.Overload.Brownout {
		t.Fatal("report dropped the Brownout flag")
	}
	if res.Generated == 0 {
		t.Fatal("overload run served nothing")
	}
}

// TestRunMultiTenantOverload: the bursty bronze tenant drives the
// bounded multi-tenant path — queues never exceed the cap, per-tenant
// rejections sum to the total, and the brownout controller reports a
// coherent trajectory.
func TestRunMultiTenantOverload(t *testing.T) {
	mt := mtOpts(t)
	mt.Overload = &OverloadOptions{QueueCap: 8, Brownout: true}
	res, err := Run(mt)
	if err != nil {
		t.Fatal(err)
	}
	ov := res.Overload
	if ov == nil {
		t.Fatal("no overload report")
	}
	total := 0
	for _, tr := range res.Tenants {
		if tr.PeakQueue > 8 {
			t.Errorf("tenant %s queue %d exceeds cap 8", tr.Name, tr.PeakQueue)
		}
		if tr.Rejected < 0 {
			t.Errorf("tenant %s negative rejections", tr.Name)
		}
		total += tr.Rejected
	}
	if ov.RejectedTotal != total {
		t.Fatalf("report total %d, per-tenant sum %d", ov.RejectedTotal, total)
	}
	if ov.MaxLevel < 0 || ov.MaxLevel > 5 {
		t.Fatalf("max level %d outside the ladder", ov.MaxLevel)
	}
	if ov.BrownoutShare < 0 || ov.BrownoutShare > 1 {
		t.Fatalf("brownout share %v outside [0,1]", ov.BrownoutShare)
	}
	if ov.MaxLevel > 0 && ov.TimeInBrownout == 0 {
		t.Fatal("ladder moved but no time in brownout recorded")
	}
}

// TestRunMultiTenantOverloadSharded: the same option set on the
// sharded engine — per-replica rigs keep the bound per replica, and
// the merged report sums rejections across replicas.
func TestRunMultiTenantOverloadSharded(t *testing.T) {
	mt := mtOpts(t)
	mt.Overload = &OverloadOptions{QueueCap: 8, Brownout: true}
	mt.Replicas, mt.Workers = 2, 2
	res, err := Run(mt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overload == nil {
		t.Fatal("sharded run dropped the overload report")
	}
	total := 0
	for _, tr := range res.Tenants {
		total += tr.Rejected
	}
	if res.Overload.RejectedTotal != total {
		t.Fatalf("merged total %d, per-tenant sum %d", res.Overload.RejectedTotal, total)
	}
	for _, tr := range res.Tenants {
		if tr.Summary.N == 0 {
			t.Errorf("tenant %s saw no requests on the sharded path", tr.Name)
		}
	}
}
