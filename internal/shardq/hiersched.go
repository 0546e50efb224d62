package shardq

import (
	"fmt"
	"sync/atomic"

	"eiffel/internal/bucket"
	"eiffel/internal/hclock"
	"eiffel/internal/pkt"
	"eiffel/internal/queue"
)

// This file is the hierarchical QoS backend for the sharded runtime: one
// hclock.Hier engine per shard, compiled from a HierSpec the way the
// policy backend compiles its program per shard. Flow-hash sharding
// confines a flow's whole backlog to one shard, so the engine's tag state
// (reservation/limit/share clocks) is shard-private and lock-free behind
// the shard's MPSC ring; per-tenant rates renormalize by the shard count
// (hclock.Config.RateDiv) so a tenant whose flows spread across every
// shard still aggregates to its configured reservation and limit.
//
// The ring payload is (rank, aux) = (in-tenant key, tenant | size<<32 —
// HierAux): the producer resolves the tenant and reads the length once,
// while the packet is cache-hot; the consumer routes by the low half,
// keeps the high half beside the node in the tenant's FIFO and charges it
// at the drain, loading no packet memory on either side (hiersharded.go
// says what that load cost). The cross-shard merge rank is the engine's
// share virtual time — every shard's tenants advance their share tags at
// size/weight, so comparing MinShare across shards approximates the
// global weighted order at tag-bucket granularity (the same shard-local
// approximation the policy backend's wfq root accepts) — except that a
// shard holding a DUE RESERVATION reports rank 0, which makes the merge
// serve reservations ahead of every share tag, exactly hClock's two-phase
// preference lifted across shards.

// HierTenant describes one tenant (traffic class) of a HierSpec.
type HierTenant struct {
	// ResBps is the reserved minimum rate in bits/s (0 = none). The
	// constructor renormalizes per shard via the spec's RateDiv.
	ResBps uint64
	// LimitBps is the rate cap in bits/s (0 = unlimited), renormalized
	// like ResBps.
	LimitBps uint64
	// Weight is the proportional share weight (>= 1; 0 means 1).
	Weight uint64
	// Policy selects the in-tenant order: "fifo" (or empty — the faithful
	// hClock leaf, packets serve in arrival order) or "rank" (packets
	// serve in ascending ring-rank order, FIFO within a rank bucket — the
	// Eiffel-extended leaf).
	Policy string
	// Buckets sizes the rank-policy in-tenant queue (default 4096);
	// ignored for fifo tenants.
	Buckets int
	// RankGran is the rank-policy bucket width (default 64); ignored for
	// fifo tenants.
	RankGran uint64
}

// HierSpec compiles into one hierarchical engine per shard.
type HierSpec struct {
	// Tenants is the tenant table; the enqueue aux word's low half
	// indexes it (modulo its length). Required.
	Tenants []HierTenant
	// Backend picks the tag-index implementation (Eiffel FFS queues or
	// binary heaps).
	Backend hclock.Backend
	// TagGranularityNs / Buckets size the tag queues; see hclock.Config.
	TagGranularityNs uint64
	Buckets          int
	// ShareGranularity is the share-tag index bucket width; see
	// hclock.Config. 0 here means ShareScale*512 (512 weighted bytes —
	// sub-packet share precision with ~one bucket step per served
	// packet), NOT the flow scheduler's time-domain default: the tenant
	// trees this backend compiles have few, heavy tenants whose share
	// tags stride ~100M units per packet, and a time-domain bucket width
	// makes every bucketed-index operation walk hundreds of buckets.
	ShareGranularity uint64
	// RateDiv renormalizes every tenant's ResBps/LimitBps per engine —
	// the sharded front sets it to the shard count. 0 or 1 = none.
	RateDiv uint64
	// MergeShift coarsens the cross-shard merge rank: Min reports the
	// shard's minimum share tag right-shifted by this many bits, and
	// DequeueBatch honors its rank bound in the same shifted domain.
	// Share tags advance by size*2^16/weight per packet (~100M units per
	// 1500B at weight 1), so an unshifted merge re-ranks the shard after
	// EVERY pop and the cross-shard merge degenerates to runs of one
	// packet per head refresh. The default (30) keeps a shard's merge
	// rank stable for roughly 10-30 packets, trading a bounded per-shard
	// service skew (2^MergeShift/2^16 weighted bytes, ~11 packets at
	// weight 1) for long merge runs. 0 means the default; use
	// MergeShiftNone for an exact (per-packet) merge.
	MergeShift uint8
}

// MergeShiftNone disables merge-rank coarsening: the merge compares raw
// quantized share tags (exact cross-shard weighted order, short runs).
const MergeShiftNone uint8 = 0xff

// defaultMergeShift is the MergeShift applied when the spec leaves it 0.
const defaultMergeShift = 30

// Validate reports why the spec cannot compile, or nil.
func (sp HierSpec) Validate() error {
	if len(sp.Tenants) == 0 {
		return fmt.Errorf("shardq: hier spec needs at least one tenant")
	}
	for i, tn := range sp.Tenants {
		switch tn.Policy {
		case "", "fifo", "rank":
		default:
			return fmt.Errorf("shardq: tenant %d: unknown in-tenant policy %q", i, tn.Policy)
		}
		if tn.LimitBps > 0 && tn.ResBps > tn.LimitBps {
			return fmt.Errorf("shardq: tenant %d: reservation %d exceeds limit %d", i, tn.ResBps, tn.LimitBps)
		}
	}
	return nil
}

// HierAux packs the hier rule's aux word: tenant id low, the length the
// drain will charge high. A high half of 0 (a bare tenant id, or a
// zero-length packet, which charges nothing either way) makes the backend
// read the length from the packet at enqueue — the same schedule.
//
//eiffel:hotpath
func HierAux(tenant, size uint32) uint64 { return uint64(tenant) | uint64(size)<<32 }

// hierTenant is one tenant's shard-local state: the engine tags plus the
// in-tenant packet queue (a FIFO ring of (node, published length), or an
// FFS-indexed rank queue).
type hierTenant struct {
	t    hclock.Tenant
	rank Scheduler // non-nil: "rank" policy in-tenant queue

	// One ring in two arrays (lengths stay pointer-free); capacity 8·2^k.
	fifo []*bucket.Node
	size []uint32
	head int
	n    int // queued elements, both policies
}

//eiffel:hotpath
func (ht *hierTenant) push(n *bucket.Node, rank uint64, size uint32) {
	ht.n++
	if ht.rank != nil {
		ht.rank.Enqueue(n, rank)
		return
	}
	if size == 0 {
		// Aux fallback: the publisher carried no length (see HierAux).
		size = pkt.FromSchedNode(n).Size
	}
	if ht.n > len(ht.fifo) {
		c := max(8, len(ht.fifo)*2) // power of two: the masks below rely on it
		//eiffel:allow(hotpath) amortized FIFO ring growth, doubling to the tenant's high-water backlog
		fifo, sz := make([]*bucket.Node, c), make([]uint32, c)
		for i := 0; i < ht.n-1; i++ {
			j := (ht.head + i) & (len(ht.fifo) - 1)
			fifo[i], sz[i] = ht.fifo[j], ht.size[j]
		}
		ht.fifo, ht.size, ht.head = fifo, sz, 0
	}
	i := (ht.head + ht.n - 1) & (len(ht.fifo) - 1)
	ht.fifo[i], ht.size[i] = n, size
}

//eiffel:hotpath
func (ht *hierTenant) pop(one *[1]*bucket.Node) (*bucket.Node, uint32) {
	ht.n--
	if ht.rank != nil {
		// The one packet load left on the drain: vecSched has no slot for
		// a length, and no measured path builds a rank tenant to carry one.
		ht.rank.DequeueBatch(^uint64(0), one[:])
		return one[0], pkt.FromSchedNode(one[0]).Size
	}
	n, size := ht.fifo[ht.head], ht.size[ht.head]
	ht.fifo[ht.head] = nil
	ht.head = (ht.head + 1) & (len(ht.fifo) - 1)
	return n, size
}

// HierSched is one shard's hierarchical QoS backend; see the file
// comment. It implements Scheduler, AuxScheduler, and ClockedScheduler.
// All methods run under the shard lock except SetNow (atomics only, per
// the ClockedScheduler contract).
type HierSched struct {
	h       *hclock.Hier
	tenants []hierTenant
	backlog int

	// now is the consumer-set clock for eligibility decisions. Atomic
	// because the owner advances it (SetNow) while a producer whose ring
	// filled may be enqueueing under the shard lock.
	now atomic.Int64

	// stalled marks a backend with backlog but nothing eligible at the
	// current clock (every active tenant parked over its limit): Min then
	// reports empty so the cross-shard merge's progress contract holds.
	// Cleared by SetNow or any enqueue; atomic for the same
	// consumer-vs-fallback concurrency as now.
	stalled atomic.Bool

	one [1]*bucket.Node // rank-policy single-pop scratch

	mergeShift uint // share-tag >> mergeShift is the merge-rank domain

	// timed is whether any tenant carries a reservation or limit; a pure
	// weighted-share tree skips the per-call migrate and resDue upkeep.
	timed bool

	// resDue publishes the earliest ready reservation clock (0 = none)
	// for the owner's clock propagation: when the consumer clock crosses
	// it, the owner must force a head re-peek (the shard's cached merge
	// rank was computed before the reservation came due). Written under
	// the shard lock, read lock-free by advanceGroupClock.
	resDue atomic.Int64
}

// NewHierSched compiles spec into one shard engine.
func NewHierSched(spec HierSpec) (*HierSched, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	shareGran := spec.ShareGranularity
	if shareGran == 0 {
		shareGran = hclock.ShareScale * 512
	}
	b := &HierSched{
		h: hclock.NewHier(hclock.Config{
			Backend:          spec.Backend,
			TagGranularityNs: spec.TagGranularityNs,
			Buckets:          spec.Buckets,
			ShareGranularity: shareGran,
			RateDiv:          spec.RateDiv,
		}),
		tenants: make([]hierTenant, len(spec.Tenants)),
	}
	switch spec.MergeShift {
	case 0:
		b.mergeShift = defaultMergeShift
	case MergeShiftNone:
		b.mergeShift = 0
	default:
		b.mergeShift = uint(spec.MergeShift)
	}
	for i := range spec.Tenants {
		tn := &spec.Tenants[i]
		ht := &b.tenants[i]
		b.timed = b.timed || tn.ResBps > 0 || tn.LimitBps > 0
		b.h.Init(&ht.t, tn.ResBps, tn.LimitBps, tn.Weight)
		ht.t.Self = ht
		if tn.Policy == "rank" {
			buckets, gran := tn.Buckets, tn.RankGran
			if buckets <= 0 {
				buckets = 4096
			}
			if gran == 0 {
				gran = 64
			}
			ht.rank = NewVecSched(queue.Config{NumBuckets: buckets, Granularity: gran})
		}
	}
	return b, nil
}

// TenantLen returns tenant i's queued-element count on this shard.
// Callers hold the shard lock (WithShardLocked).
//
//eiffel:locked(shard)
func (b *HierSched) TenantLen(i int) int { return b.tenants[i].n }

// EnqueueAux implements AuxScheduler: aux carries the producer-resolved
// tenant id and packet length (HierAux), rank the in-tenant key — neither
// this side nor the drain loads the packet.
//
//eiffel:hotpath
func (b *HierSched) EnqueueAux(n *bucket.Node, rank, aux uint64) {
	ht := &b.tenants[int(uint32(aux))%len(b.tenants)]
	ht.push(n, rank, uint32(aux>>32))
	b.backlog++
	if !ht.t.Active() {
		b.h.Activate(&ht.t, b.now.Load())
		if ht.t.ResBps > 0 {
			b.noteResDue()
		}
	}
	if b.stalled.Load() { // a load per packet, not an XCHG
		b.stalled.Store(false)
	}
}

// noteResDue publishes the earliest ready reservation clock for the
// owner's clock propagation. Runs under the shard lock like every other
// mutating method.
//
//eiffel:hotpath
func (b *HierSched) noteResDue() {
	if r, ok := b.h.NextReservation(); ok {
		b.resDue.Store(int64(r))
	} else {
		b.resDue.Store(0)
	}
}

// Enqueue implements Scheduler: the keyless surface loads the packet to
// resolve its tenant (Class annotation) and length — the slow-but-correct
// form of the aux path, used by spill paths that lost the aux word.
//
//eiffel:hotpath
func (b *HierSched) Enqueue(n *bucket.Node, rank uint64) {
	p := pkt.FromSchedNode(n)
	b.EnqueueAux(n, rank, HierAux(uint32(p.Class), p.Size))
}

// EnqueueBatch implements Scheduler.
//
//eiffel:hotpath
func (b *HierSched) EnqueueBatch(ns []*bucket.Node, ranks []uint64) {
	for i, n := range ns {
		b.Enqueue(n, ranks[i])
	}
}

// EnqueueBatchAux implements AuxScheduler.
//
//eiffel:hotpath
func (b *HierSched) EnqueueBatchAux(ns []*bucket.Node, ranks, auxes []uint64) {
	for i, n := range ns {
		b.EnqueueAux(n, ranks[i], auxes[i])
	}
}

// DequeueBatch implements Scheduler: serve the engine's two-phase
// preference while the merge rank stays within maxRank. A due reservation
// serves regardless of the bound (its merge rank is 0 — see Min); the
// share phase stops at the bound. Each pop is one engine pick (one index
// pass) charged with the length stored beside the node; every charge moves
// the served tenant's tags, so the head is re-picked every iteration.
//
//eiffel:hotpath
func (b *HierSched) DequeueBatch(maxRank uint64, out []*bucket.Node) int {
	now := b.now.Load()
	if b.timed {
		// now is constant for the whole call, so one migration suffices:
		// nothing parked can release mid-call, and a Requeue that parks a
		// tenant parks it beyond now by construction.
		b.h.Migrate(now)
	}
	// maxRank is in the shifted merge domain; the engine compares raw tags.
	bound := hclock.NoBound
	if maxRank < hclock.NoBound>>b.mergeShift {
		bound = (maxRank+1)<<b.mergeShift - 1
	}
	popped := 0
	for popped < len(out) && b.backlog > 0 {
		t, res := b.h.Pick(now, bound)
		if res != hclock.Picked {
			if res == hclock.PickNone {
				b.stalled.Store(true) // backlog, all of it parked: see stalled
			}
			break
		}
		ht := t.Self.(*hierTenant)
		n, size := ht.pop(&b.one)
		b.backlog--
		b.h.Charge(t, uint64(size), now)
		if ht.n > 0 {
			b.h.Requeue(t, now)
		} else {
			b.h.Idle(t)
		}
		out[popped] = n
		popped++
	}
	if b.timed {
		b.noteResDue()
	}
	return popped
}

// Min implements Scheduler: 0 when a reservation clock is due (the merge
// must serve this shard before any share tag), else the smallest ready
// share tag, else empty — setting the stall flag when backlog exists but
// nothing is eligible, so the owner knows to re-peek after SetNow.
// Callers hold the shard lock (the runtime's head refresh), so migrating
// parked tenants here is safe.
//
//eiffel:hotpath
func (b *HierSched) Min() (uint64, bool) {
	if b.stalled.Load() {
		return 0, false
	}
	if b.timed {
		now := b.now.Load()
		b.h.Migrate(now)
		b.noteResDue()
		if b.h.DueReservation(now) {
			return 0, true
		}
	}
	if r, ok := b.h.MinShare(); ok {
		return r >> b.mergeShift, true
	}
	if b.backlog > 0 {
		b.stalled.Store(true)
	}
	return 0, false
}

// Len implements Scheduler.
//
//eiffel:hotpath
func (b *HierSched) Len() int { return b.backlog }

// SetNow implements ClockedScheduler: advance the eligibility clock,
// waking a stalled engine. Two events make the advance invalidate what Min
// last answered: the engine had stalled (reported itself empty with
// backlog parked over limits), or the clock crossed a reservation's due
// time (the owner's cached rank is a share tag computed before the
// reservation came due; left stale, a weight-poor reservation holder
// starves behind heavy share tenants until their tags pass its own). Safe
// without the shard lock (atomics).
//
//eiffel:hotpath
func (b *HierSched) SetNow(now int64) (repeek bool) {
	prev := b.now.Load()
	if now == prev {
		return false
	}
	d := b.resDue.Load()
	repeek = b.stalled.Load() || (d > 0 && prev < d && d <= now)
	b.now.Store(now)
	b.stalled.Store(false)
	return repeek
}

// Stalled reports whether the backend declared itself unservable at the
// current clock (what SetNow's result tells an owner that advances it).
//
//eiffel:hotpath
func (b *HierSched) Stalled() bool { return b.stalled.Load() }

// NextEvent implements ClockedScheduler: the earliest limit-clock release
// at the current clock. Callers hold the shard lock.
//
//eiffel:locked(shard)
func (b *HierSched) NextEvent() (int64, bool) {
	return b.h.NextEvent(b.now.Load())
}
