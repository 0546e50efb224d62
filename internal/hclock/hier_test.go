package hclock

import (
	"testing"
)

// hierHarness drives a bare Hier engine with synthetic per-tenant
// backlogs, the way an external caller (the sharded backend) does: the
// harness owns the queues (here just counters), the engine owns the tags.
type hierHarness struct {
	h       *Hier
	tenants []*Tenant
	backlog []int
}

func newHierHarness(cfg Config, specs [][3]uint64) *hierHarness {
	hh := &hierHarness{h: NewHier(cfg)}
	for i, sp := range specs {
		t := &Tenant{}
		hh.h.Init(t, sp[0], sp[1], sp[2])
		t.Self = i
		hh.tenants = append(hh.tenants, t)
		hh.backlog = append(hh.backlog, 0)
	}
	return hh
}

func (hh *hierHarness) fill(tenant, n int, now int64) {
	was := hh.backlog[tenant]
	hh.backlog[tenant] += n
	if was == 0 && n > 0 {
		hh.h.Activate(hh.tenants[tenant], now)
	}
}

// serve runs one pick/charge/requeue cycle and returns the served tenant
// index, or -1 when the engine refuses.
func (hh *hierHarness) serve(now int64, size uint64) int {
	hh.h.Migrate(now)
	t, res := hh.h.Pick(now, NoBound)
	if res != Picked {
		return -1
	}
	i := t.Self.(int)
	hh.backlog[i]--
	hh.h.Charge(t, size, now)
	if hh.backlog[i] > 0 {
		hh.h.Requeue(t, now)
	} else {
		hh.h.Idle(t)
	}
	return i
}

// TestHierProportionalShares: with no reservations or limits, service
// splits by weight across every backend.
func TestHierProportionalShares(t *testing.T) {
	for _, be := range []Backend{BackendEiffel, BackendHeap} {
		hh := newHierHarness(Config{Backend: be}, [][3]uint64{
			{0, 0, 3},
			{0, 0, 1},
		})
		hh.fill(0, 1<<20, 0)
		hh.fill(1, 1<<20, 0)
		served := [2]int{}
		for i := 0; i < 8000; i++ {
			w := hh.serve(int64(i), 1500)
			if w < 0 {
				t.Fatalf("%v: engine refused with backlog", be)
			}
			served[w]++
		}
		share := float64(served[0]) / 8000
		if share < 0.68 || share > 0.82 {
			t.Fatalf("%v: weight-3 tenant share %.3f, want ~0.75", be, share)
		}
	}
}

// TestHierReservationPreference: a due reservation clock preempts a
// smaller share tag.
func TestHierReservationPreference(t *testing.T) {
	hh := newHierHarness(Config{}, [][3]uint64{
		{400e6, 0, 1}, // reservation holder, small weight share alone
		{0, 0, 16},    // heavyweight share tenant
	})
	hh.fill(0, 1<<20, 0)
	hh.fill(1, 1<<20, 0)
	// Serve at 1 Gbps pacing (12 us per 1500B packet): the reservation
	// needs 40% of service.
	served := [2]int{}
	now := int64(0)
	for i := 0; i < 5000; i++ {
		w := hh.serve(now, 1500)
		if w < 0 {
			t.Fatal("engine refused with backlog")
		}
		served[w]++
		now += 12_000
	}
	if share := float64(served[0]) / 5000; share < 0.36 || share > 0.46 {
		t.Fatalf("reservation tenant share %.3f, want ~0.40", share)
	}
}

// TestHierParkAndMigrate: an over-limit tenant parks; the engine refuses
// while everyone is parked and NextEvent names the release time; at that
// time the tenant migrates back and serves again.
func TestHierParkAndMigrate(t *testing.T) {
	hh := newHierHarness(Config{}, [][3]uint64{
		{0, 100e6, 1}, // 100 Mbps cap: 1500B costs 120 us of limit clock
	})
	hh.fill(0, 100, 0)
	if w := hh.serve(0, 1500); w != 0 {
		t.Fatalf("first serve got %d", w)
	}
	// Immediately after, the limit clock is at 120 us: parked.
	if w := hh.serve(1, 1500); w != -1 {
		t.Fatalf("over-limit tenant served (%d)", w)
	}
	// The parked index quantizes tags at TagGranularityNs, so the release
	// time reads back at bucket granularity.
	ev, ok := hh.h.NextEvent(1)
	if !ok || ev < 120_000-2048 || ev > 120_000 {
		t.Fatalf("NextEvent = %d,%v, want ~120000,true", ev, ok)
	}
	if w := hh.serve(ev, 1500); w != 0 {
		t.Fatalf("migrated tenant not served at release time (%d)", w)
	}
}

// TestHierRateDiv: RateDiv renormalizes reservation and limit but not
// weight, and never rounds a configured rate to zero.
func TestHierRateDiv(t *testing.T) {
	h := NewHier(Config{RateDiv: 8})
	var a, b Tenant
	h.Init(&a, 800e6, 8e9, 5)
	if a.ResBps != 100e6 || a.LimitBps != 1e9 || a.Weight != 5 {
		t.Fatalf("renormalized tenant = res %d limit %d weight %d", a.ResBps, a.LimitBps, a.Weight)
	}
	h.Init(&b, 3, 5, 1)
	if b.ResBps != 1 || b.LimitBps != 1 {
		t.Fatalf("sub-div rates rounded to %d/%d, want 1/1", b.ResBps, b.LimitBps)
	}
	var c Tenant
	h.Init(&c, 0, 0, 0)
	if c.ResBps != 0 || c.LimitBps != 0 || c.Weight != 1 {
		t.Fatalf("zero-rate tenant = res %d limit %d weight %d", c.ResBps, c.LimitBps, c.Weight)
	}
}

// TestHierMinShareAndDueReservation: the merge-facing views agree with
// Pick's preference order.
func TestHierMinShareAndDueReservation(t *testing.T) {
	hh := newHierHarness(Config{}, [][3]uint64{
		{500e6, 0, 1},
		{0, 0, 1},
	})
	if _, ok := hh.h.MinShare(); ok {
		t.Fatal("MinShare reported a rank on an empty engine")
	}
	if hh.h.DueReservation(1 << 40) {
		t.Fatal("DueReservation true on an empty engine")
	}
	hh.fill(0, 4, 0)
	hh.fill(1, 4, 0)
	if !hh.h.DueReservation(0) {
		t.Fatal("reservation clock not due at activation time")
	}
	if _, ok := hh.h.MinShare(); !ok {
		t.Fatal("MinShare empty with two ready tenants")
	}
	// Serving at time 0 must take the reservation phase.
	if w := hh.serve(0, 1500); w != 0 {
		t.Fatalf("served %d, want reservation holder 0", w)
	}
}

// TestHierAllocationFree: the pick/charge/requeue cycle and activation
// allocate nothing once the engine is built.
func TestHierAllocationFree(t *testing.T) {
	hh := newHierHarness(Config{}, [][3]uint64{
		{100e6, 0, 2},
		{0, 900e6, 1},
		{0, 0, 4},
	})
	for i := range hh.tenants {
		hh.fill(i, 1<<30, 0)
	}
	now := int64(0)
	allocs := testing.AllocsPerRun(2000, func() {
		hh.serve(now, 1500)
		now += 12_000
	})
	if allocs != 0 {
		t.Fatalf("pick/charge/requeue cycle allocates %.1f/op", allocs)
	}
}
