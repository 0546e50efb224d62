package qdisc

import (
	"eiffel/internal/pifo"
	"eiffel/internal/pkt"
	"eiffel/internal/policy"
	"eiffel/internal/queue"
	"eiffel/internal/shardq"
)

// ShapedShardedOptions sizes the shaped front (NewMultiShaped) and its
// single-threaded ShapedTree baseline.
type ShapedShardedOptions struct {
	// Shards is the shard count, rounded up to a power of two (default 8).
	Shards int
	// ShaperBuckets is the per-shard time-indexed shaper's bucket count
	// (default 4096); shaping granularity = HorizonNs/(2*ShaperBuckets).
	ShaperBuckets int
	// HorizonNs is the shaping horizon covered without overflow.
	HorizonNs int64
	// Start anchors the initial shaper window.
	Start int64
	// SchedBuckets is the per-shard priority-indexed cFFS bucket count
	// (default 4096); priority granularity = RankSpan/(2*SchedBuckets).
	SchedBuckets int
	// RankSpan is the priority range covered without overflow
	// (default 1<<20).
	RankSpan uint64
	// RingBits sizes each shard's MPSC ring at 1<<RingBits slots
	// (default 10).
	RingBits uint
	// ShardBound caps each shard's occupancy for EnqueueBatchAdmit; 0
	// keeps the legacy unbounded spill (see shardq.Options.ShardBound).
	ShardBound int
	// Admit selects what EnqueueBatchAdmit does with refused packets
	// (default AdmitDropTail).
	Admit AdmitPolicy
	// Tenants sizes the per-tenant drop buckets (default 1).
	Tenants int
	// SchedBackend names the scheduler-side store. SchedVec, the exact FFS
	// vector store, is its only value; fidelity is set by SchedBuckets and
	// RankSpan instead (see SchedInversionBound).
	SchedBackend SchedBackendKind
}

// SchedBackendKind names the shaped front's per-shard scheduler store. It
// has one value, SchedVec: the store's bucket width RankSpan/(2*SchedBuckets)
// is the runtime's only approximation, and a second store earns a kind only
// with a benchmark row (ROADMAP item 16).
type SchedBackendKind int

// SchedVec is the exact FFS-indexed vector-bucket store: priority order
// exact to the scheduler bucket width.
const SchedVec SchedBackendKind = 0

// schedCfg is the scheduler-side queue geometry the options imply.
func (o ShapedShardedOptions) schedCfg() queue.Config {
	return queue.Config{NumBuckets: o.SchedBuckets, Granularity: o.schedGran()}
}

// SchedInversionBound returns the scheduler store's analytic worst-case
// rank-inversion magnitude, in rank units, for ranks within RankSpan: one
// bucket width minus one, the bound the property tests hold every
// measured magnitude to. It applies the option defaults itself.
func (o ShapedShardedOptions) SchedInversionBound() uint64 {
	return shardq.VecSchedBound(o.withDefaults().schedCfg())
}

// withDefaults fills the queue-geometry defaults shared by the sharded
// qdisc and its single-threaded tree baseline.
func (o ShapedShardedOptions) withDefaults() ShapedShardedOptions {
	if o.ShaperBuckets <= 0 {
		o.ShaperBuckets = 4096
	}
	if o.SchedBuckets <= 0 {
		o.SchedBuckets = 4096
	}
	if o.RankSpan == 0 {
		o.RankSpan = 1 << 20
	}
	return o
}

// schedGran returns the scheduler bucket width the options imply.
func (o ShapedShardedOptions) schedGran() uint64 {
	if g := o.RankSpan / (2 * uint64(o.SchedBuckets)); g > 0 {
		return g
	}
	return 1
}

// MultiShapedOptions sizes the shaped front.
type MultiShapedOptions struct {
	ShapedShardedOptions
	// Groups is the consumer-group count (default 1), as in
	// MultiShardedOptions.
	Groups int
}

// NewMultiShaped returns the shaped front: the multi-producer form of the
// paper's decoupled shaping (§3.2.2, Figure 8). Each packet carries two
// keys — SendAt (when it may leave) and Rank (where it goes once it may) —
// and the two handles pkt.Packet was built with name it in the two stages:
// the TimerNode address is what the per-shard time-indexed shaper store
// (ffsq.ShaperStore) holds, by value beside both keys, and SchedNode is
// what the per-shard priority-indexed scheduler takes (FFS-indexed vector
// buckets over the fixed RankSpan). Producers publish (TimerNode, SendAt,
// Rank) triples over lock-free rings; each group's worker migrates due
// packets shaper→scheduler on its own clock — a copy of (handle, Rank)
// runs with Pair applied, a constant offset; no packet is loaded or stored
// on the way — and drains the schedulers in merged cross-shard priority
// order, exact to the scheduler bucket width RankSpan/(2*SchedBuckets)
// (ranks within one bucket release FIFO).
func NewMultiShaped(opt MultiShapedOptions) *Front {
	base := opt.ShapedShardedOptions.withDefaults()
	if base.SchedBackend != SchedVec {
		panic("qdisc: unknown SchedBackendKind")
	}
	rt := shardq.NewShaped(shardq.ShapedOptions{
		NumShards: base.Shards,
		NumGroups: opt.Groups,
		RingBits:  base.RingBits,
		Shaper:    eiffelCfg(base.ShaperBuckets, base.HorizonNs, base.Start),
		Sched:     base.schedCfg(),
		Pair: func(n *shardq.Node) *shardq.Node {
			return &pkt.FromTimerNode(n).SchedNode
		},
		ShardBound: base.ShardBound,
	})
	return newFront(rt.Core, "Eiffel+shaped-shards", pubShaped, base.Admit, base.Tenants)
}

// --- Single-threaded baseline: pifo.Tree behind the decoupled shaper ---

// ShapedTree is the single-threaded reference for the same semantics: the
// paper's Figure 8 pipeline built from a pifo.Tree. Packets whose SendAt
// is in the future park in a single time-indexed shaper cFFS (TimerNode);
// once due they migrate into the tree, whose leaf ranks them by the Rank
// annotation (SchedNode). Wrapped in Locked, this is the kernel-style
// global-lock deployment the shaped front's fidelity tests hold to the
// same contract.
type ShapedTree struct {
	tree   *pifo.Tree
	leaf   *pifo.Class
	shaper queue.PQ
}

// NewShapedTree returns a ShapedTree whose shaper and scheduler use the
// same geometry as a shaped-front shard, so the comparison isolates the
// runtime, not the queues.
func NewShapedTree(opt ShapedShardedOptions) *ShapedTree {
	opt = opt.withDefaults()
	schedGran := opt.schedGran()
	t := pifo.NewTree(pifo.TreeOptions{
		RootRanker:        policy.StrictChild{},
		RootQueue:         queue.Config{NumBuckets: 64, Granularity: 1},
		ShaperBuckets:     64, // class shaper: unused, packets shape outside
		ShaperGranularity: 1 << 16,
	})
	leaf := t.NewPacketLeaf(nil, policy.RankAnnotation{}, pifo.ClassOptions{
		Name:  "prio",
		Queue: queue.Config{NumBuckets: opt.SchedBuckets, Granularity: schedGran},
	})
	return &ShapedTree{
		tree:   t,
		leaf:   leaf,
		shaper: queue.New(queue.KindCFFS, eiffelCfg(opt.ShaperBuckets, opt.HorizonNs, opt.Start)),
	}
}

// Name implements Qdisc.
func (q *ShapedTree) Name() string { return "Eiffel tree" }

// Len implements Qdisc.
func (q *ShapedTree) Len() int { return q.shaper.Len() + q.tree.Len() }

// Enqueue implements Qdisc: future packets park in the shaper; due packets
// go straight into the tree.
func (q *ShapedTree) Enqueue(p *pkt.Packet, now int64) {
	if p.SendAt > now {
		q.shaper.Enqueue(&p.TimerNode, uint64(p.SendAt))
		return
	}
	q.tree.Enqueue(q.leaf, p, now)
}

// admitDue migrates every shaper packet whose release bucket has arrived
// into the scheduling tree.
func (q *ShapedTree) admitDue(now int64) {
	for {
		r, ok := q.shaper.PeekMin()
		if !ok || int64(r) > now {
			return
		}
		p := pkt.FromTimerNode(q.shaper.DequeueMin())
		q.tree.Enqueue(q.leaf, p, now)
	}
}

// Dequeue implements Qdisc.
func (q *ShapedTree) Dequeue(now int64) *pkt.Packet {
	q.admitDue(now)
	return q.tree.Dequeue(now)
}

// NextTimer implements Qdisc.
func (q *ShapedTree) NextTimer(now int64) (int64, bool) {
	if q.tree.Len() > 0 {
		return now, true
	}
	r, ok := q.shaper.PeekMin()
	if !ok {
		return 0, false
	}
	t := int64(r)
	if t < now {
		t = now
	}
	return t, true
}
