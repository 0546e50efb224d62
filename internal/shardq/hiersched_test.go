package shardq

import (
	"testing"

	"eiffel/internal/bucket"
	"eiffel/internal/hclock"
	"eiffel/internal/pkt"
)

func hierPkts(pool *pkt.Pool, n int, flow uint64, size uint32) []*pkt.Packet {
	ps := make([]*pkt.Packet, n)
	for i := range ps {
		p := pool.Get()
		p.Flow = flow
		p.Size = size
		ps[i] = p
	}
	return ps
}

func TestHierSpecValidate(t *testing.T) {
	if _, err := NewHierSched(HierSpec{}); err == nil {
		t.Fatal("empty tenant table accepted")
	}
	if _, err := NewHierSched(HierSpec{Tenants: []HierTenant{{Policy: "lifo"}}}); err == nil {
		t.Fatal("unknown in-tenant policy accepted")
	}
	if _, err := NewHierSched(HierSpec{Tenants: []HierTenant{{ResBps: 2e9, LimitBps: 1e9}}}); err == nil {
		t.Fatal("reservation above limit accepted")
	}
	if _, err := NewHierSched(HierSpec{Tenants: []HierTenant{{Weight: 1}, {Policy: "rank"}}}); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestHierSchedFifoOrder: a fifo tenant releases in exact arrival order.
func TestHierSchedFifoOrder(t *testing.T) {
	b, err := NewHierSched(HierSpec{Tenants: []HierTenant{{Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	pool := pkt.NewPool(64)
	ps := hierPkts(pool, 40, 7, 1500)
	for i, p := range ps {
		p.ID = uint64(i)
		b.EnqueueAux(&p.SchedNode, 0, 0)
	}
	out := make([]*bucket.Node, 16)
	seen := 0
	for b.Len() > 0 {
		k := b.DequeueBatch(^uint64(0), out)
		if k == 0 {
			t.Fatal("drain stalled with backlog")
		}
		for _, n := range out[:k] {
			if got := pkt.FromSchedNode(n).ID; got != uint64(seen) {
				t.Fatalf("released ID %d at position %d", got, seen)
			}
			seen++
		}
	}
	if seen != len(ps) {
		t.Fatalf("released %d of %d", seen, len(ps))
	}
}

// TestHierSchedRankOrder: a rank tenant releases in ascending ring-rank
// order (FIFO within a bucket).
func TestHierSchedRankOrder(t *testing.T) {
	b, err := NewHierSched(HierSpec{Tenants: []HierTenant{{Weight: 1, Policy: "rank", Buckets: 1024, RankGran: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	pool := pkt.NewPool(64)
	ps := hierPkts(pool, 32, 3, 1500)
	for i, p := range ps {
		b.EnqueueAux(&p.SchedNode, uint64((31-i)%8)*10, 0)
	}
	out := make([]*bucket.Node, 64)
	k := b.DequeueBatch(^uint64(0), out)
	if k != len(ps) {
		t.Fatalf("drained %d of %d", k, len(ps))
	}
	last := uint64(0)
	// Recover the publish ranks by position: ranks were (31-i)%8*10.
	ranks := make(map[*bucket.Node]uint64, len(ps))
	for i, p := range ps {
		ranks[&p.SchedNode] = uint64((31-i)%8) * 10
	}
	for i, n := range out[:k] {
		r := ranks[n]
		if r < last {
			t.Fatalf("rank inversion at %d: %d after %d", i, r, last)
		}
		last = r
	}
}

// TestHierSchedWeightShares: two fifo tenants at weight 3:1 split service
// ~3:1 while both stay backlogged.
func TestHierSchedWeightShares(t *testing.T) {
	b, err := NewHierSched(HierSpec{Tenants: []HierTenant{{Weight: 3}, {Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	pool := pkt.NewPool(4096)
	for i := 0; i < 1024; i++ {
		p := pool.Get()
		p.Flow, p.Size = 1, 1500
		b.EnqueueAux(&p.SchedNode, 0, 0)
		p = pool.Get()
		p.Flow, p.Size = 2, 1500
		b.EnqueueAux(&p.SchedNode, 0, 1)
	}
	out := make([]*bucket.Node, 1)
	gold := 0
	for i := 0; i < 1024; i++ {
		if b.DequeueBatch(^uint64(0), out) != 1 {
			t.Fatal("drain stalled")
		}
		if pkt.FromSchedNode(out[0]).Flow == 1 {
			gold++
		}
	}
	share := float64(gold) / 1024
	if share < 0.68 || share > 0.82 {
		t.Fatalf("weight-3 tenant share %.3f, want ~0.75", share)
	}
}

// TestHierSchedReservationRank: a due reservation pulls the merge rank to
// 0 ahead of every share tag, and serving it clears the preference.
func TestHierSchedReservationRank(t *testing.T) {
	b, err := NewHierSched(HierSpec{Tenants: []HierTenant{
		{Weight: 8},
		{ResBps: 1e9, Weight: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	pool := pkt.NewPool(64)
	b.SetNow(1_000_000)
	p0 := hierPkts(pool, 4, 1, 1500)
	p1 := hierPkts(pool, 4, 2, 1500)
	for _, p := range p0 {
		b.EnqueueAux(&p.SchedNode, 0, 0)
	}
	for _, p := range p1 {
		b.EnqueueAux(&p.SchedNode, 0, 1)
	}
	if r, ok := b.Min(); !ok || r != 0 {
		t.Fatalf("Min = (%d,%v) with a due reservation, want (0,true)", r, ok)
	}
	out := make([]*bucket.Node, 1)
	if b.DequeueBatch(^uint64(0), out) != 1 || pkt.FromSchedNode(out[0]).Flow != 2 {
		t.Fatal("due reservation not served first")
	}
}

// TestHierSchedStallAndWake: the progress contract under limit parking —
// a backend whose only tenant is over its cap reports Min empty after a
// refused drain, then serves again once SetNow reaches the release.
func TestHierSchedStallAndWake(t *testing.T) {
	b, err := NewHierSched(HierSpec{Tenants: []HierTenant{
		{LimitBps: 100e6, Weight: 1}, // 1500B costs 120us of limit clock
	}})
	if err != nil {
		t.Fatal(err)
	}
	pool := pkt.NewPool(64)
	for _, p := range hierPkts(pool, 4, 1, 1500) {
		b.EnqueueAux(&p.SchedNode, 0, 0)
	}
	out := make([]*bucket.Node, 8)
	if b.DequeueBatch(^uint64(0), out) != 1 {
		t.Fatal("first packet not served at now=0")
	}
	// The tenant is parked until ~120us: the next drain must pop nothing
	// AND leave Min empty (mergeRuns' progress contract).
	if k := b.DequeueBatch(^uint64(0), out); k != 0 {
		t.Fatalf("over-limit drain popped %d", k)
	}
	if _, ok := b.Min(); ok {
		t.Fatal("Min reported a rank while every tenant is parked")
	}
	if !b.Stalled() {
		t.Fatal("stall flag not raised")
	}
	ev, ok := b.NextEvent()
	if !ok {
		t.Fatal("NextEvent empty with a parked tenant")
	}
	b.SetNow(ev + 2048)
	if b.Stalled() {
		t.Fatal("SetNow did not clear the stall")
	}
	if b.DequeueBatch(^uint64(0), out) != 1 {
		t.Fatal("migrated tenant not served after the clock advanced")
	}
}

// TestHierSchedRuntime: the backend behind the full sharded runtime —
// per-flow FIFO order survives the ring, the flush staging, and the
// cross-shard merge.
func TestHierSchedRuntime(t *testing.T) {
	var backends []*HierSched
	spec := HierSpec{
		Tenants: []HierTenant{{Weight: 3}, {Weight: 1}},
		RateDiv: 4,
	}
	q := New(Options{
		NumShards: 4,
		Backend: func(int) Scheduler {
			b, err := NewHierSched(spec)
			if err != nil {
				t.Fatal(err)
			}
			backends = append(backends, b)
			return b
		},
	})
	defer q.Close()
	const flows, per = 32, 64
	pool := pkt.NewPool(flows * per)
	for i := 0; i < per; i++ {
		for f := 0; f < flows; f++ {
			p := pool.Get()
			p.Flow = uint64(f)
			p.Size = 1500
			p.ID = uint64(i)
			q.EnqueueAux(p.Flow, &p.SchedNode, 0, uint64(f%2))
		}
	}
	out := make([]*bucket.Node, 128)
	next := make([]uint64, flows)
	got := 0
	for q.Len() > 0 {
		k := q.GroupDequeueBatch(0, ^uint64(0), out)
		if k == 0 {
			t.Fatal("merged drain stalled with backlog")
		}
		for _, n := range out[:k] {
			p := pkt.FromSchedNode(n)
			if p.ID != next[p.Flow] {
				t.Fatalf("flow %d released ID %d, want %d", p.Flow, p.ID, next[p.Flow])
			}
			next[p.Flow]++
			got++
		}
	}
	if got != flows*per {
		t.Fatalf("released %d of %d", got, flows*per)
	}
	if len(backends) != 4 {
		t.Fatalf("factory built %d backends, want 4", len(backends))
	}
}

// TestHierSchedAllocFree: the publish->drain lap allocates nothing once
// the rings and tenant FIFOs reach steady state.
func TestHierSchedAllocFree(t *testing.T) {
	b, err := NewHierSched(HierSpec{
		Backend: hclock.BackendEiffel,
		Tenants: []HierTenant{{Weight: 3}, {Weight: 1}, {Policy: "rank"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := pkt.NewPool(512)
	ps := make([]*pkt.Packet, 256)
	for i := range ps {
		p := pool.Get()
		p.Flow = uint64(i % 8)
		p.Size = 1500
		ps[i] = p
	}
	out := make([]*bucket.Node, 64)
	lap := func() {
		for i, p := range ps {
			b.EnqueueAux(&p.SchedNode, uint64(i%1024), uint64(i%3))
		}
		for b.Len() > 0 {
			if b.DequeueBatch(^uint64(0), out) == 0 {
				t.Fatal("drain stalled")
			}
		}
	}
	lap() // warm tenant FIFOs and the rank queue
	if allocs := testing.AllocsPerRun(50, lap); allocs != 0 {
		t.Fatalf("steady-state lap allocates %.1f/op", allocs)
	}
}
