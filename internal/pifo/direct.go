package pifo

import (
	"math/bits"

	"eiffel/internal/ffsq"
	"eiffel/internal/pkt"
)

// This file is the shard-confined direct service path: when a policy
// program is a single unshaped flow leaf, the class hierarchy above the
// leaf adds no scheduling decisions — the root always serves its only
// child — so a shard-private backend can drive the leaf itself and skip
// the per-packet hierarchy walk (root queue churn, activation checks,
// backlog propagation, shaper peeks). Combined with packet-free
// transactions (RankFlowPolicy), keys carried by the caller, and ranks
// cached in the flow ring, the scheduler core never loads packet memory
// at all: the enqueue keys arrive pre-resolved (the sharded runtime's
// producers read them while the packet is cache-hot and ship them over
// the publication ring), and the dequeue-side front rank comes from the
// flow's own ring slot. Those two cold-packet loads are the largest
// per-packet costs of the tree-driven path — pFabric's on-dequeue
// transaction chases the front packet's pointer into memory last touched
// at enqueue.
//
// Semantics relative to Tree-driven service: per-flow order is identical
// (FIFO within a flow, transactions run in the same places with the same
// inputs). Two documented divergences, both invisible to flow-local
// order:
//
//   - A flow whose re-rank lands in the bucket it already occupies keeps
//     its bucket position, where the tree's remove-and-reinsert would
//     rotate it to the bucket tail. Buckets are FIFO either way, so this
//     only permutes service among flows whose ranks tie at bucket
//     granularity.
//   - Drained flows are retained (never released): policy state is NOT
//     zeroed between a flow's backlogged periods. Every packet-free
//     policy must therefore treat a flow whose Len just became 1 as
//     freshly started — the convention the paper's policies already
//     follow (pFabric: "previous rank is stale").

// RankFlowPolicy is the packet-free form of FlowPolicy: transactions that
// depend only on flow state and the packet's rank annotation, so the
// scheduler core never dereferences a packet. The paper's flow policies
// are all of this form — pFabric reads p.Rank, LQF/SQF read f.Len, FIFO
// reads neither — and implement both interfaces with identical math. None
// of them reads the clock either, so the packet-free form takes none: a
// backend that drives a leaf directly needs no consumer clock.
type RankFlowPolicy interface {
	// OnEnqueueRank is OnEnqueue with the arriving packet's rank
	// annotation in place of the packet.
	OnEnqueueRank(f *Flow, rank uint64) uint64
	// OnDequeueRank is OnDequeue after the head packet (whose annotation
	// was rank) left the flow; frontRank is the new head's annotation,
	// valid only when f.Len() > 0.
	OnDequeueRank(f *Flow, rank, frontRank uint64) uint64
}

// DirectRanked reports whether this class supports direct ranked service:
// a flow leaf whose policy is packet-free (RankFlowPolicy) and whose
// queue is the default cFFS (the direct path uses its peek-front and
// granularity surfaces). The caller must also ensure no class on the
// leaf's path is rate-limited — shaping needs the tree's shaper, which
// direct service bypasses.
func (c *Class) DirectRanked() bool {
	if c.kind != flowLeaf {
		return false
	}
	if _, ok := c.flowPol.(RankFlowPolicy); !ok {
		return false
	}
	_, ok := c.pq.(*ffsq.CFFS)
	return ok
}

// directState is the cached plumbing of a direct-driven leaf: the
// concrete queue (no interface dispatch on the hot path) and an
// open-addressed flow table. By default flows are retained once created —
// no deletions keeps linear probing trivial and recycles ring capacity —
// so the table is sized by distinct flow ids seen, not live flows. That
// is exactly the unbounded per-flow state the paper indicts kernel FQ
// for, so a leaf can arm idle-flow eviction (SetDirectEviction): slots
// are stamped with the epoch of their last enqueue, the owner advances
// the epoch clock on its own cadence (DirectAdvanceEpoch), and stale
// idle slots are reclaimed lazily — in place on the probe path when an
// insert walks past one (the slot stays occupied, so probe chains never
// break and no tombstones are needed), and in bulk at grow time, when
// stale slots are dropped instead of rehashed. A flow with queued
// packets, or queued in the leaf's priority queue, is never evicted.
type directState struct {
	pol   RankFlowPolicy
	pq    *ffsq.CFFS
	gran  uint64
	tab   []flowSlot
	shift uint // Fibonacci-hash shift for the current table size
	n     int  // occupied slots

	// Eviction state: epoch is the current clock, evictAfter the idle age
	// (in epochs) at which a drained flow becomes reclaimable (0 disables
	// eviction), live the number of backlogged flows, evicted the number
	// of reclaimed slots. All driven under the owner's synchronization
	// (the shard lock, for the sharded policy qdisc).
	epoch      uint32
	evictAfter uint32
	live       int
	evicted    uint64
}

// flowSlot keeps the key beside the pointer so a probe compares ids
// without dereferencing the flow, and the epoch stamp of the flow's last
// enqueue beside both so an eviction check touches no extra line.
type flowSlot struct {
	id    uint64
	f     *Flow
	epoch uint32
}

// fibMult deliberately differs from the sharded runtime's flow-hash
// multiplier (0x9E3779B97F4A7C15): shards select flows by the TOP bits of
// that product, so a shard's whole flow population shares them — reusing
// the same mix here would cluster every flow into one region of the table
// and degrade linear probing to long chains.
const fibMult = 0xD6E8FEB86659FD93

//eiffel:hotpath
func (c *Class) direct() *directState {
	if c.directCache == nil {
		cffs := c.pq.(*ffsq.CFFS)
		//eiffel:allow(hotpath) one-time lazy init; every later call returns the cache
		c.directCache = &directState{
			pol:  c.flowPol.(RankFlowPolicy),
			pq:   cffs,
			gran: cffs.Granularity(),
			//eiffel:allow(hotpath) one-time lazy init; every later call returns the cache
			tab:        make([]flowSlot, 1<<8),
			shift:      64 - 8,
			evictAfter: c.directEvictAfter,
		}
	}
	return c.directCache
}

// SetDirectEviction arms idle-flow eviction on the direct service path:
// a drained flow whose slot has not seen an enqueue for evictAfter epoch
// advances becomes reclaimable. evictAfter <= 0 keeps the retain-forever
// default. Call it before the leaf serves traffic.
func (c *Class) SetDirectEviction(evictAfter int) {
	if evictAfter < 0 {
		evictAfter = 0
	}
	c.directEvictAfter = uint32(evictAfter)
	if c.directCache != nil {
		c.directCache.evictAfter = uint32(evictAfter)
	}
}

// DirectAdvanceEpoch advances the direct leaf's eviction epoch clock. The
// owner calls it on whatever cadence defines "idle" — every N packets,
// every timer tick — under the same synchronization as the Direct calls.
func (c *Class) DirectAdvanceEpoch() { c.direct().epoch++ }

// DirectFlowStats reports the direct leaf's flow-table occupancy: live is
// the number of backlogged flows, retained the number of occupied slots
// (live flows plus idle ones not yet reclaimed), evicted the number of
// slots reclaimed so far.
func (c *Class) DirectFlowStats() (live, retained int, evicted uint64) {
	d := c.direct()
	return d.live, d.n, d.evicted
}

// evictable reports whether a slot may be reclaimed: its flow holds no
// packets, sits in no queue, and has not seen an enqueue for evictAfter
// epochs. Callers check d.evictAfter > 0 first.
//
//eiffel:hotpath
func (d *directState) evictable(s *flowSlot) bool {
	return s.f.n == 0 && !s.f.Node.Queued() && d.epoch-s.epoch >= d.evictAfter
}

// flow returns the retained Flow for id, creating it on first sight. With
// eviction armed, the probe remembers the first reclaimable slot it walks
// past; if id is absent, that slot's flow is recycled in place — the new
// id lies on every probe chain that passed through the slot, and the slot
// stays occupied, so other chains are undisturbed.
//
//eiffel:hotpath
func (d *directState) flow(id uint64) *Flow {
	mask := uint64(len(d.tab) - 1)
	reuse := -1
	for i := (id * fibMult) >> d.shift; ; i = (i + 1) & mask {
		s := &d.tab[i]
		if s.f == nil {
			if reuse >= 0 {
				return d.reuseSlot(reuse, id)
			}
			if d.n >= len(d.tab)/2 {
				//eiffel:allow(hotpath) amortized table rebuild: O(1) per insert (see grow)
				d.grow()
				return d.flow(id)
			}
			//eiffel:allow(hotpath) first sight of a flow id; slots recycle via eviction
			f := &Flow{ID: id}
			f.Node.Data = f
			*s = flowSlot{id: id, f: f, epoch: d.epoch}
			d.n++
			return f
		}
		if s.id == id {
			s.epoch = d.epoch
			return s.f
		}
		if reuse < 0 && d.evictAfter > 0 && d.evictable(s) {
			reuse = int(i)
		}
	}
}

// reuseSlot recycles an idle slot's flow for a new id: policy state is
// zeroed exactly as the map path's releaseFlow does, the packet ring keeps
// its capacity, and the slot is re-stamped. Per-flow semantics match a
// fresh flow — every packet-free policy already treats a flow whose Len
// just became 1 as freshly started (see the file comment).
//
//eiffel:hotpath
func (d *directState) reuseSlot(i int, id uint64) *Flow {
	s := &d.tab[i]
	f := s.f
	f.ID, f.Bytes, f.Rank, f.U0, f.U1 = id, 0, 0, 0, 0
	s.id, s.epoch = id, d.epoch
	d.evicted++
	return f
}

// grow rebuilds the table when an insert finds it half full. Stale idle
// slots are dropped instead of rehashed (bulk reclamation), and the new
// capacity is sized by the SURVIVING set, not the slot count that forced
// the rebuild: under churn most slots are reclaimable by the time the
// table fills, and doubling regardless would ratchet the table upward
// forever — each doubling buying room for twice as many dead flows
// before the next rebuild. Rebuilding in place (or shrinking) instead
// keeps retained state proportional to the recently-active flow window
// no matter how many flows have ever existed.
func (d *directState) grow() {
	old := d.tab
	keep := 0
	for i := range old {
		s := &old[i]
		if s.f != nil && !(d.evictAfter > 0 && d.evictable(s)) {
			keep++
		}
	}
	// Invariant: post-rebuild load is in (1/8, 1/4] (down to the 256-slot
	// floor), so the next rebuild is at least cap/4 inserts away and the
	// rebuild cost amortizes to O(1) per insert.
	newCap := len(old)
	if keep > newCap/4 {
		newCap *= 2
	}
	for newCap > 256 && keep <= newCap/8 {
		newCap /= 2
	}
	d.tab = make([]flowSlot, newCap)
	d.shift = uint(64 - bits.TrailingZeros(uint(newCap)))
	mask := uint64(newCap - 1)
	n := 0
	for _, s := range old {
		if s.f == nil {
			continue
		}
		if d.evictAfter > 0 && d.evictable(&s) {
			d.evicted++
			continue
		}
		i := (s.id * fibMult) >> d.shift
		for d.tab[i].f != nil {
			i = (i + 1) & mask
		}
		d.tab[i] = s
		n++
	}
	d.n = n
}

// DirectEnqueue inserts p at this leaf under the caller-resolved keys
// (flow id and rank annotation), running the packet-free enqueue
// transaction. The packet pointer is stored, never dereferenced. A leaf
// driven directly must be driven directly for its whole life — never
// mixed with Tree.Enqueue/Dequeue on the same tree — and DirectRanked
// must hold.
//
//eiffel:hotpath
func (c *Class) DirectEnqueue(p *pkt.Packet, flow, rank uint64) {
	d := c.direct()
	f := d.flow(flow)
	f.pushRanked(p, rank)
	if f.n == 1 {
		d.live++
	}
	r := d.pol.OnEnqueueRank(f, rank)
	if f.Node.Queued() {
		if r/d.gran != f.Node.Rank()/d.gran {
			// Re-rank moves the flow to another bucket. Same-bucket
			// re-ranks keep the flow's position (see the file comment).
			d.pq.Remove(&f.Node)
			d.pq.Enqueue(&f.Node, r)
		}
	} else {
		d.pq.Enqueue(&f.Node, r)
	}
	c.backlog++
}

// DirectDequeue serves the next packet under direct ranked service, or
// nil when the leaf is empty. The head flow is peeked, not popped: when
// the on-dequeue transaction leaves the flow in its current bucket — the
// common case for pFabric (the running minimum rarely moves buckets) and
// for coarse-grained LQF — the flow stays in place and the queue is not
// touched at all.
//
//eiffel:hotpath
func (c *Class) DirectDequeue() *pkt.Packet {
	d := c.direct()
	n := d.pq.FrontMin()
	if n == nil {
		return nil
	}
	f := n.Data.(*Flow)
	p, rank := f.popRanked()
	var front uint64
	if f.n > 0 {
		front = f.frontRank()
	}
	r := d.pol.OnDequeueRank(f, rank, front)
	if f.n == 0 {
		d.pq.Remove(&f.Node) // flow object retained until evicted; see the file comment
		d.live--
	} else if r/d.gran != f.Node.Rank()/d.gran {
		d.pq.Remove(&f.Node)
		d.pq.Enqueue(&f.Node, r)
	}
	c.backlog--
	return p
}
