package qdisc

import (
	"math/bits"

	"eiffel/internal/pkt"
	"eiffel/internal/shardq"
)

// This file puts hClock's hierarchical QoS (Use Case 2, §5.1.2) on the
// sharded multi-producer runtime. Each shard owns a PRIVATE hclock.Hier
// engine compiled from the same tenant spec (shardq.NewHierSched), with
// per-tenant reservation and limit rates renormalized by the shard count:
// flow-hash sharding spreads a tenant's flows uniformly across shards, so
// the per-shard slices aggregate back to the configured rates. The
// cross-shard drain merges by each engine's share virtual time — and a
// shard holding a due reservation reports merge rank 0, which lifts
// hClock's reservation-first preference across shards. Per-tenant share
// and reservation accuracy is therefore approximate at shard granularity;
// the hiersharded tests bound the residual share error (±0.10) the way
// the policy tests bound the WFQ gold share.
//
// Packets route to a tenant by their Class annotation (modulo the tenant
// count), and the ring carries (rank annotation, Class | Size<<32 —
// shardq.HierAux) read on the producer: the consumer never loads packet
// memory, on the enqueue side OR at the drain — the policy preset's
// direct-path publication trick taken to its end. The engine charges the
// PUBLISHED length, because a backlogged packet's lines were last written
// by the producer and a ring's worth of them outgrows the cache: reading
// Size at the drain cost more (2.7 s of a 9.8 s hier_qos profile) than
// the engine's six index operations per pop together (1.8 s).

// HierSharded runs per-tenant hierarchical QoS (reservations, limits,
// proportional shares; hClock's three-tag rule) on the sharded front.
//
// Per-flow dequeue order is EXACT (identical to one locked whole-tree
// hClock over the same spec): a flow's backlog is confined to one
// shard's engine, and the in-tenant queue discipline (arrival FIFO, or
// ascending rank with FIFO ties) is position-independent — a flow's
// packets leave in the same relative order no matter which other flows
// interleave. Cross-tenant interleaving is approximate at share-tag
// bucket granularity.
//
// The front pushes each group worker's clock into that group's engines
// before every drain (limit parking and reservation eligibility read it)
// and re-peeks the merge's cached heads when an engine says the advance
// invalidated its answer (shardq.HierSched.SetNow says when, and why).
type HierSharded struct {
	*Front
}

// HierShardedOptions configures a HierSharded qdisc.
type HierShardedOptions struct {
	// Spec is the tenant table plus engine sizing. Required. Spec.RateDiv
	// is overwritten with the effective shard count — the per-shard rate
	// renormalization is this front's job.
	Spec shardq.HierSpec
	// Shards is the shard count, rounded up to a power of two (default 8).
	Shards int
	// Groups is the consumer-group count (default 1); see
	// PolicyShardedOptions.Groups.
	Groups int
	// RingBits sizes each shard's MPSC ring at 1<<RingBits slots
	// (default 10).
	RingBits uint
	// ShardBound caps each shard's occupancy for EnqueueBatchAdmit; 0
	// keeps the unbounded spill.
	ShardBound int
	// Admit selects what EnqueueBatchAdmit does with refused packets
	// (default AdmitDropTail).
	Admit AdmitPolicy
	// Tenants sizes the per-tenant drop buckets (default: the spec's
	// tenant count).
	Tenants int
}

// NewHierSharded compiles opt.Spec once per shard and returns the sharded
// hierarchical qdisc, or the spec's validation error.
func NewHierSharded(opt HierShardedOptions) (*HierSharded, error) {
	if err := opt.Spec.Validate(); err != nil {
		return nil, err
	}
	if opt.Tenants <= 0 {
		opt.Tenants = len(opt.Spec.Tenants)
	}
	// The factory below runs inside shardq.New, before the runtime exists,
	// so the effective shard count (the rate renormalization divisor) is
	// computed the way the runtime's own defaults do: default 8, rounded up
	// to a power of two.
	shards := opt.Shards
	if shards <= 0 {
		shards = 8
	}
	if shards&(shards-1) != 0 {
		shards = 1 << bits.Len(uint(shards))
	}
	var clocked []shardq.ClockedScheduler
	rt := shardq.New(shardq.Options{
		NumShards:  shards,
		NumGroups:  opt.Groups,
		RingBits:   opt.RingBits,
		ShardBound: opt.ShardBound,
		Backend: func(int) shardq.Scheduler {
			spec := opt.Spec
			spec.RateDiv = uint64(shards)
			b, err := shardq.NewHierSched(spec)
			if err != nil {
				panic("qdisc: hier spec validated but did not compile per shard: " + err.Error())
			}
			clocked = append(clocked, b)
			return b
		},
	})
	f := newFront(rt.Core, "Eiffel+hier-shards", pubHier, opt.Admit, opt.Tenants)
	f.clocked = clocked
	return &HierSharded{f}, nil
}

// --- Single-threaded baseline: one locked whole-tree engine ---

// HierTree runs the same tenant spec as ONE engine — the whole-tree
// hClock deployment the sharded front is measured against (wrap it in
// Locked for the kernel-style global-lock deployment). It drives the
// exact same shardq.HierSched code as each shard does, with RateDiv 1, so
// the locked-vs-sharded comparison isolates the runtime, not the engine.
type HierTree struct {
	b    *shardq.HierSched
	name string
}

// NewHierTree compiles spec (RateDiv forced to 1 — a single engine owns
// the full rates) into a single-engine qdisc.
func NewHierTree(spec shardq.HierSpec) (*HierTree, error) {
	spec.RateDiv = 1
	b, err := shardq.NewHierSched(spec)
	if err != nil {
		return nil, err
	}
	return &HierTree{b: b, name: "Eiffel tree(hclock)"}, nil
}

// Name implements Qdisc.
func (q *HierTree) Name() string { return q.name }

// Len implements Qdisc.
func (q *HierTree) Len() int { return q.b.Len() }

// Enqueue implements Qdisc.
func (q *HierTree) Enqueue(p *pkt.Packet, now int64) {
	q.b.SetNow(now)
	q.b.EnqueueAux(&p.SchedNode, p.Rank, shardq.HierAux(uint32(p.Class), p.Size))
}

// Dequeue implements Qdisc.
func (q *HierTree) Dequeue(now int64) *pkt.Packet {
	q.b.SetNow(now)
	var one [1]*shardq.Node
	if q.b.DequeueBatch(^uint64(0), one[:]) == 0 {
		return nil
	}
	return pkt.FromSchedNode(one[0])
}

// NextTimer implements Qdisc: "now" while anything is eligible, else the
// earliest limit-clock release.
func (q *HierTree) NextTimer(now int64) (int64, bool) {
	if q.b.Len() == 0 {
		return 0, false
	}
	q.b.SetNow(now)
	if _, ok := q.b.Min(); ok {
		return now, true
	}
	//eiffel:allow(lockcheck) whole-tree baseline: HierTree has no shard lock — the Locked wrapper's mutex serializes every caller
	if t, ok := q.b.NextEvent(); ok {
		if t < now {
			t = now
		}
		return t, true
	}
	return 0, false
}
