package serve

import (
	"testing"

	"vectorliterag/internal/workload"
)

// goldSilverBronze is the canonical three-tier class set (weights
// 4/2/1, priorities 0/1/2).
func goldSilverBronze() []TenantClass {
	return []TenantClass{{Weight: 4, Priority: 0}, {Weight: 2, Priority: 1}, {Weight: 1, Priority: 2}}
}

// schedFixture drives a scheduler whose downstream sink records every
// dispatched request, releasing them in dispatch order on demand.
type schedFixture struct {
	s        *FairScheduler
	sent     []*workload.Request
	released int
}

func newSched(t *testing.T, classes []TenantClass, maxInflight int) *schedFixture {
	t.Helper()
	s, err := NewFairScheduler(classes, maxInflight)
	if err != nil {
		t.Fatal(err)
	}
	f := &schedFixture{s: s}
	st, err := Scheduled(s)(func(req *workload.Request) { f.sent = append(f.sent, req) })
	if err != nil {
		t.Fatal(err)
	}
	if st != Stage(s) {
		t.Fatal("Scheduled built a stage other than the scheduler")
	}
	return f
}

// release frees the oldest still-held slot.
func (f *schedFixture) release() {
	f.s.Release(f.sent[f.released])
	f.released++
}

// order returns the dispatched tenants in dispatch order.
func (f *schedFixture) order() []int {
	out := make([]int, len(f.sent))
	for i, req := range f.sent {
		out[i] = req.Tenant
	}
	return out
}

func TestFairSchedulerWRRSharesUnderSaturation(t *testing.T) {
	f := newSched(t, goldSilverBronze(), 1)
	// Backlog every tenant in proportion to its weight (three full
	// rounds' worth), then drain one slot at a time.
	id := 0
	for tenant, n := range []int{12, 6, 3} {
		for i := 0; i < n; i++ {
			f.s.Submit(&workload.Request{ID: id, Tenant: tenant})
			id++
		}
	}
	for len(f.sent) < 21 {
		f.release()
	}
	// Each full round serves gold×4, silver×2, bronze×1 in priority
	// order; three rounds drain the backlog.
	want := []int{0, 0, 0, 0, 1, 1, 2}
	for i, tenant := range f.order() {
		if tenant != want[i%7] {
			t.Fatalf("dispatch order %v, want repeating %v", f.order(), want)
		}
	}
	if f.s.Dispatched(0) != 12 || f.s.Dispatched(1) != 6 || f.s.Dispatched(2) != 3 {
		t.Fatalf("shares %d/%d/%d, want 12/6/3", f.s.Dispatched(0), f.s.Dispatched(1), f.s.Dispatched(2))
	}
}

func TestFairSchedulerPriorityPreemptsQueueOrder(t *testing.T) {
	f := newSched(t, goldSilverBronze(), 1)
	// Fill the single slot, then backlog bronze before gold arrives.
	for i := 0; i <= 5; i++ {
		f.s.Submit(&workload.Request{ID: i, Tenant: 2})
	}
	f.s.Submit(&workload.Request{ID: 6, Tenant: 0})
	// The freed slot must go to the late-arriving gold request even
	// though five bronze requests queued first.
	f.release()
	if got := f.order()[1]; got != 0 {
		t.Fatalf("slot went to tenant %d, want gold (0); order %v", got, f.order())
	}
}

func TestFairSchedulerNoStarvationAcrossRounds(t *testing.T) {
	f := newSched(t, goldSilverBronze(), 1)
	// Gold backlog far exceeding its quantum plus one bronze request.
	for i := 0; i < 9; i++ {
		f.s.Submit(&workload.Request{ID: i, Tenant: 0})
	}
	f.s.Submit(&workload.Request{ID: 9, Tenant: 2})
	for len(f.sent) < 10 {
		f.release()
	}
	// Bronze must be served when gold's first-round quantum (4) runs
	// out — silver's quantum is idle, so bronze follows dispatch 4.
	if f.order()[4] != 2 {
		t.Fatalf("bronze starved: order %v", f.order())
	}
}

func TestFairSchedulerInflightBound(t *testing.T) {
	f := newSched(t, goldSilverBronze(), 8)
	// Gold's weight share of 8 slots is floor(8*4/7) = 4.
	if got := f.s.Cap(0); got != 4 {
		t.Fatalf("gold cap %d, want 4", got)
	}
	for i := 0; i < 10; i++ {
		f.s.Submit(&workload.Request{ID: i, Tenant: 0})
	}
	if len(f.sent) != 4 || f.s.Inflight() != 4 || f.s.QueueLen(0) != 6 {
		t.Fatalf("cap ignored: dispatched %d inflight %d queued %d", len(f.sent), f.s.Inflight(), f.s.QueueLen(0))
	}
	f.release()
	if len(f.sent) != 5 || f.s.Inflight() != 4 {
		t.Fatalf("release did not refill: dispatched %d inflight %d", len(f.sent), f.s.Inflight())
	}
	if f.s.PeakQueue(0) < 6 {
		t.Fatalf("peak queue %d, want >= 6", f.s.PeakQueue(0))
	}
}

// TestFairSchedulerPerTenantCapLeavesRoomForOthers: a bursting bronze
// tenant may hold at most its weight share of slots, so a later gold
// arrival finds a free slot immediately instead of a full section.
func TestFairSchedulerPerTenantCapLeavesRoomForOthers(t *testing.T) {
	f := newSched(t, goldSilverBronze(), 7)
	// caps: gold 4, silver 2, bronze 1.
	for i := 0; i < 20; i++ {
		f.s.Submit(&workload.Request{ID: i, Tenant: 2})
	}
	if len(f.sent) != 1 {
		t.Fatalf("bronze burst took %d slots, cap is 1", len(f.sent))
	}
	f.s.Submit(&workload.Request{ID: 20, Tenant: 0})
	if len(f.sent) != 2 || f.sent[1].Tenant != 0 {
		t.Fatalf("gold blocked by bronze burst: %v", f.order())
	}
	// Releasing bronze's slot readmits bronze (gold queue empty).
	f.release()
	if f.sent[2].Tenant != 2 || f.s.Inflight() != 2 {
		t.Fatalf("bronze slot not recycled: %v", f.order())
	}
}

func TestFairSchedulerUntaggedRidesFirstClass(t *testing.T) {
	f := newSched(t, goldSilverBronze(), 8)
	f.s.Submit(&workload.Request{ID: 0, Tenant: -1})
	f.s.Submit(&workload.Request{ID: 1, Tenant: 99})
	if len(f.sent) != 2 || f.s.Dispatched(0) != 2 {
		t.Fatalf("out-of-range tenants not clamped: %v, dispatched(0)=%d", f.order(), f.s.Dispatched(0))
	}
	// Releasing them (still stray-tagged) frees class 0's slots.
	f.release()
	f.release()
	if f.s.Inflight() != 0 {
		t.Fatalf("stray releases leaked slots: inflight %d", f.s.Inflight())
	}
}

func TestFairSchedulerEqualWeightsRoundRobin(t *testing.T) {
	classes := []TenantClass{{Weight: 1, Priority: 0}, {Weight: 1, Priority: 0}, {Weight: 1, Priority: 0}}
	f := newSched(t, classes, 1)
	for i := 0; i < 9; i++ {
		f.s.Submit(&workload.Request{ID: i, Tenant: i % 3})
	}
	for len(f.sent) < 9 {
		f.release()
	}
	// Equal priority and weight: least-recently-served rotation, i.e.
	// plain round-robin.
	for i, tenant := range f.order() {
		if tenant != i%3 {
			t.Fatalf("equal classes should round-robin, got %v", f.order())
		}
	}
}

func TestFairSchedulerValidation(t *testing.T) {
	if _, err := NewFairScheduler(nil, 8); err == nil {
		t.Fatal("empty class set accepted")
	}
	if _, err := Scheduled(nil)(func(*workload.Request) {}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	// Zero weights are raised to 1 so every tenant progresses.
	s, err := NewFairScheduler([]TenantClass{{Weight: 0, Priority: 0}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if _, err := Scheduled(s)(func(*workload.Request) { n++ }); err != nil {
		t.Fatal(err)
	}
	s.Submit(&workload.Request{})
	if n != 1 {
		t.Fatalf("zero-weight tenant never dispatched")
	}
	// A nil release decrements only the global gauge and must not panic.
	s.Release(nil)
}

// rejectRecorder collects requests refused at admission.
type rejectRecorder struct{ got []*workload.Request }

func (r *rejectRecorder) sink(req *workload.Request) { r.got = append(r.got, req) }

// TestFairSchedulerBoundedAdmission: the queue-cap boundary table —
// the cap counts queued (not inflight) requests, rejection starts at
// exactly cap, a drained slot re-admits, and one tenant filling its
// queue never costs another tenant a slot.
func TestFairSchedulerBoundedAdmission(t *testing.T) {
	cases := []struct {
		name        string
		queueCap    int
		maxInflight int
		// submit[i] = tenant of the i-th submission, in order.
		submit []int
		// releases drained after all submissions.
		releases     int
		wantSent     int
		wantRejected map[int]int
	}{
		{
			// Slot 1 dispatches immediately, two queue, the rest bounce.
			name: "reject starts exactly at cap", queueCap: 2, maxInflight: 1,
			submit:   []int{0, 0, 0, 0, 0},
			wantSent: 1, wantRejected: map[int]int{0: 2},
		},
		{
			// cap 0 means unbounded: nothing is ever rejected.
			name: "zero cap is unbounded", queueCap: 0, maxInflight: 1,
			submit:   []int{0, 0, 0, 0, 0, 0, 0, 0},
			wantSent: 1, wantRejected: map[int]int{0: 0},
		},
		{
			// Bronze floods its own queue past the cap; gold's later
			// arrivals still fill gold's own queue untouched — the cap
			// is per tenant, not shared.
			name: "per-tenant isolation", queueCap: 2, maxInflight: 1,
			submit:   []int{2, 2, 2, 2, 2, 0, 0},
			wantSent: 1, wantRejected: map[int]int{2: 2, 0: 0},
		},
		{
			// Draining inflight slots admits queued work downstream but
			// does not retroactively admit what was already refused.
			name: "drain dispatches the queue", queueCap: 2, maxInflight: 1,
			submit: []int{0, 0, 0, 0}, releases: 2,
			wantSent: 3, wantRejected: map[int]int{0: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newSched(t, goldSilverBronze(), tc.maxInflight)
			rej := &rejectRecorder{}
			f.s.SetAdmission(tc.queueCap, rej.sink)
			for i, tenant := range tc.submit {
				f.s.Submit(&workload.Request{ID: i, Tenant: tenant})
			}
			for i := 0; i < tc.releases; i++ {
				f.release()
			}
			if len(f.sent) != tc.wantSent {
				t.Fatalf("dispatched %d, want %d (order %v)", len(f.sent), tc.wantSent, f.order())
			}
			total := 0
			for tenant, want := range tc.wantRejected {
				if got := f.s.Rejected(tenant); got != want {
					t.Errorf("tenant %d rejected %d, want %d", tenant, got, want)
				}
				total += want
			}
			if len(rej.got) != total {
				t.Errorf("reject sink saw %d requests, want %d", len(rej.got), total)
			}
		})
	}
}

// TestFairSchedulerReadmitsAfterDrain: a queue at its cap opens one
// admission slot per dispatched request — the boundary is live, not
// latched.
func TestFairSchedulerReadmitsAfterDrain(t *testing.T) {
	f := newSched(t, goldSilverBronze(), 1)
	rej := &rejectRecorder{}
	f.s.SetAdmission(2, rej.sink)
	for i := 0; i < 4; i++ { // 1 inflight, 2 queued, 1 rejected
		f.s.Submit(&workload.Request{ID: i, Tenant: 0})
	}
	if f.s.Rejected(0) != 1 {
		t.Fatalf("rejected %d, want 1", f.s.Rejected(0))
	}
	f.release() // a queued request dispatches; the queue drops to 1
	f.s.Submit(&workload.Request{ID: 4, Tenant: 0})
	if f.s.Rejected(0) != 1 {
		t.Fatalf("re-admission failed: rejected %d, want still 1", f.s.Rejected(0))
	}
	if f.s.QueueLen(0) != 2 {
		t.Fatalf("queue length %d, want back at cap 2", f.s.QueueLen(0))
	}
}

// TestFairSchedulerOnDispatch: the dispatch hook sees exactly the
// requests that enter service, never the rejected ones, in dispatch
// order.
func TestFairSchedulerOnDispatch(t *testing.T) {
	f := newSched(t, goldSilverBronze(), 1)
	rej := &rejectRecorder{}
	f.s.SetAdmission(1, rej.sink)
	var stamped []int
	f.s.SetOnDispatch(func(req *workload.Request) { stamped = append(stamped, req.ID) })
	for i := 0; i < 4; i++ { // 1 inflight, 1 queued, 2 rejected
		f.s.Submit(&workload.Request{ID: i, Tenant: 0})
	}
	f.release()
	if want := []int{0, 1}; len(stamped) != 2 || stamped[0] != want[0] || stamped[1] != want[1] {
		t.Fatalf("hook saw %v, want %v", stamped, want)
	}
	if len(rej.got) != 2 {
		t.Fatalf("reject sink saw %d, want 2", len(rej.got))
	}
}
