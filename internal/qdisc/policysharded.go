package qdisc

import (
	"fmt"
	"sync/atomic"

	"eiffel/internal/pifo"
	"eiffel/internal/pkt"
	"eiffel/internal/policy"
	"eiffel/internal/shardq"
)

// This file marries the two halves of the paper: the extended-PIFO
// programming model (per-flow ranking, on-dequeue transactions, class
// hierarchies — §3.2) and the sharded multi-producer runtime
// (internal/shardq). Each shard owns a PRIVATE pifo.Tree compiled from the
// same policy program; flow-hash sharding guarantees a flow's whole
// backlog is confined to one shard, so per-flow re-ranking (LQF, pFabric)
// and on-dequeue ranking transactions run lock-free inside that shard's
// tree, and the cross-shard drain merges by each tree's reported head rank
// exactly as the flat-rank runtimes merge. Per-flow dequeue order is
// therefore EXACT (identical to one global locked tree); cross-shard
// order is approximate at head-rank granularity — the shard-local
// approximation Figure 19 and Alcoz et al. show preserves policy outcomes.

// Canonical policy programs, in the Compile grammar — the paper's three
// flexibility showcases. One definition feeds the live benchmark, the
// runnable examples, and the equivalence tests, so the program text and
// what is proven order-exact can never drift apart.
const (
	// PolicySpecPFabric is shortest-remaining-first per-flow ranking
	// (Figure 14): packet Rank annotations carry remaining flow size.
	PolicySpecPFabric = `
root ranker=strict
leaf pf parent=root kind=flow policy=pfabric buckets=4096 gran=64
`
	// PolicySpecLQF is Longest Queue First (Figure 6): both primitives —
	// per-flow ranking and on-dequeue re-ranking — on one leaf.
	PolicySpecLQF = `
root ranker=strict
leaf lqf parent=root kind=flow policy=lqf buckets=4096 gran=256
`
	// PolicySpecHWFQ is a two-class weighted hierarchy (3:1) with flow-
	// FIFO leaves; packets route to a leaf by their Class annotation.
	PolicySpecHWFQ = `
root ranker=wfq buckets=4096 gran=16384
class gold parent=root ranker=wfq weight=3 buckets=4096 gran=16384
class silver parent=root ranker=wfq weight=1 buckets=4096 gran=16384
leaf gold0 parent=gold kind=flow policy=fifo buckets=4096 gran=64
leaf silver0 parent=silver kind=flow policy=fifo buckets=4096 gran=64
`
)

// treeSched adapts one shard-private extended-PIFO tree to the
// shardq.Scheduler backend contract. The published ring rank carries the
// enqueue timestamp (now), which the backend feeds to the tree's
// scheduling transactions; the merge rank reported by Min is the head
// class's queue minimum — the policy-rank domain when the program is a
// single leaf under the root, the root ranker's domain otherwise.
type treeSched struct {
	tree   *pifo.Tree
	leaves []*pifo.Class // program leaves in declaration order
	fixed  *pifo.Class   // non-nil: every packet enqueues here
	head   *pifo.Class   // merge-rank class (sole leaf, or the root)

	// now is the consumer-set clock for dequeue-side transactions.
	// Atomic because the consumer advances it (SetNow) while a
	// producer whose ring filled may be reading it under the shard lock
	// on the fallback flush path — and atomics keep the clock
	// propagation off the shard mutexes entirely (no per-drain lock
	// round-trips when now moves every batch).
	now atomic.Int64

	// direct selects the shard-confined fast path (pifo direct ranked
	// service): the program is a single unshaped flow leaf whose policy
	// is packet-free, so the backend drives the leaf itself — no
	// hierarchy walk, no packet loads on dequeue. Semantically identical
	// per flow; ties at bucket granularity may rotate differently (see
	// pifo/direct.go).
	direct bool

	// stalled marks a backend whose tree refused to serve its own head
	// (a shaper gate inside the program): Min then reports empty so the
	// cross-shard merge's progress contract holds. Cleared by any enqueue
	// or by the consumer advancing the clock; atomic for the same
	// consumer-vs-fallback concurrency as now.
	stalled atomic.Bool
}

//eiffel:hotpath
func (b *treeSched) leafFor(p *pkt.Packet) *pifo.Class {
	if b.fixed != nil {
		return b.fixed
	}
	// Multi-leaf programs route by the packet's Class annotation, modulo
	// the leaf count, in program declaration order.
	return b.leaves[int(uint32(p.Class))%len(b.leaves)]
}

// advanceEpoch bumps the direct leaf's eviction epoch clock. Callers hold
// the shard lock (the synchronization every Direct call runs under).
//
//eiffel:locked(shard)
func (b *treeSched) advanceEpoch() {
	if b.direct {
		b.fixed.DirectAdvanceEpoch()
	}
}

// flowStats reports this shard's flow-table occupancy. On the direct path
// idle flows are retained until evicted, so live and retained diverge; on
// the tree path the flow maps recycle drained flows immediately, so both
// equal the backlogged-flow count. Callers hold the shard lock.
//
//eiffel:locked(shard)
func (b *treeSched) flowStats() (live, retained int, evicted uint64) {
	if b.direct {
		return b.fixed.DirectFlowStats()
	}
	for _, leaf := range b.leaves {
		n := leaf.NumFlows()
		live += n
		retained += n
	}
	return live, retained, 0
}

// Enqueue implements shardq.Scheduler: rank is the enqueue timestamp —
// except in direct mode, where PolicySharded publishes the packet's rank
// annotation instead (the keys are re-derived from the packet here, the
// slow-but-correct form of the aux path below).
//
//eiffel:hotpath
func (b *treeSched) Enqueue(n *shardq.Node, rank uint64) {
	p := pkt.FromSchedNode(n)
	if b.direct {
		b.fixed.DirectEnqueue(p, p.Flow, p.Rank, b.now.Load())
		return
	}
	b.stalled.Store(false)
	b.tree.Enqueue(b.leafFor(p), p, int64(rank))
}

// EnqueueBatch implements shardq.Scheduler.
//
//eiffel:hotpath
func (b *treeSched) EnqueueBatch(ns []*shardq.Node, ranks []uint64) {
	if b.direct {
		leaf, now := b.fixed, b.now.Load()
		for _, n := range ns {
			p := pkt.FromSchedNode(n)
			leaf.DirectEnqueue(p, p.Flow, p.Rank, now)
		}
		return
	}
	b.stalled.Store(false)
	for i, n := range ns {
		p := pkt.FromSchedNode(n)
		b.tree.Enqueue(b.leafFor(p), p, int64(ranks[i]))
	}
}

// EnqueueAux implements shardq.AuxScheduler: in direct mode PolicySharded
// publishes (rank annotation, flow id) over the ring, so the insert runs
// packet-free — the producer resolved both keys while the packet was
// cache-hot, and this side never loads it.
//
//eiffel:hotpath
func (b *treeSched) EnqueueAux(n *shardq.Node, rank, aux uint64) {
	if !b.direct {
		b.Enqueue(n, rank)
		return
	}
	b.fixed.DirectEnqueue(pkt.FromSchedNode(n), aux, rank, b.now.Load())
}

// EnqueueBatchAux implements shardq.AuxScheduler.
//
//eiffel:hotpath
func (b *treeSched) EnqueueBatchAux(ns []*shardq.Node, ranks, auxes []uint64) {
	if !b.direct {
		b.EnqueueBatch(ns, ranks)
		return
	}
	leaf, now := b.fixed, b.now.Load()
	for i, n := range ns {
		leaf.DirectEnqueue(pkt.FromSchedNode(n), auxes[i], ranks[i], now)
	}
}

// DequeueBatch implements shardq.Scheduler: serve the program while its
// head rank stays within maxRank. Each pop runs the program's on-dequeue
// transactions, so the head is re-read every iteration.
//
//eiffel:hotpath
func (b *treeSched) DequeueBatch(maxRank uint64, out []*shardq.Node) int {
	popped := 0
	now := b.now.Load()
	if b.direct {
		leaf := b.fixed
		for popped < len(out) {
			r, ok := leaf.HeadRank()
			if !ok || r > maxRank {
				break
			}
			p := leaf.DirectDequeue(now)
			if p == nil {
				break
			}
			out[popped] = &p.SchedNode
			popped++
		}
		return popped
	}
	for popped < len(out) {
		r, ok := b.head.HeadRank()
		if !ok || r > maxRank {
			break
		}
		p := b.tree.Dequeue(now)
		if p == nil {
			// The head shows demand the tree will not serve at now (a
			// shaper gate). Report empty from Min until new work or a
			// later clock arrives — mergeRuns' progress argument.
			b.stalled.Store(true)
			break
		}
		out[popped] = &p.SchedNode
		popped++
	}
	return popped
}

// Min implements shardq.Scheduler.
//
//eiffel:hotpath
func (b *treeSched) Min() (uint64, bool) {
	if b.stalled.Load() {
		return 0, false
	}
	return b.head.HeadRank()
}

// Len implements shardq.Scheduler.
//
//eiffel:hotpath
func (b *treeSched) Len() int {
	if b.direct {
		return b.fixed.Backlog()
	}
	return b.tree.Len()
}

// SetNow implements shardq.ClockedScheduler: advance the backend's
// dequeue-side clock, waking a stalled tree (and reporting that it did, so
// the owner re-peeks the merge head that had read empty). Safe from the
// consumer without the shard lock (atomics).
//
//eiffel:hotpath
func (b *treeSched) SetNow(now int64) bool {
	if now == b.now.Load() {
		return false
	}
	woke := b.stalled.Load()
	b.now.Store(now)
	b.stalled.Store(false)
	return woke
}

// NextEvent implements shardq.ClockedScheduler: the tree's earliest
// pending shaper release.
//
//eiffel:locked(shard)
func (b *treeSched) NextEvent() (int64, bool) { return b.tree.NextEvent() }

// compiledProgram is one compiled instance of a policy program plus the
// leaf-routing and merge-head resolution PolicySharded needs per shard.
type compiledProgram struct {
	tree   *pifo.Tree
	leaves []*pifo.Class
	fixed  *pifo.Class
	head   *pifo.Class
	direct bool
}

// compileProgram compiles spec through the policy registry and resolves
// leaf routing: leafName pins every packet to one named leaf; otherwise a
// single-leaf program routes everything to its leaf and a multi-leaf
// program routes by the packet Class annotation. The merge head is the
// leaf itself when the program is exactly one leaf directly under the root
// (the merge then compares policy ranks across shards); any deeper
// hierarchy merges by the root ranker's domain.
func compileProgram(spec, leafName string) (*compiledProgram, error) {
	tree, classes, err := pifo.Compile(spec, policy.Registry{})
	if err != nil {
		return nil, err
	}
	cp := &compiledProgram{tree: tree}
	rootChildren := 0
	for _, c := range tree.Classes() {
		if c.IsLeaf() {
			cp.leaves = append(cp.leaves, c)
		}
		if c.Parent() == tree.Root() {
			rootChildren++
		}
	}
	if len(cp.leaves) == 0 {
		return nil, fmt.Errorf("qdisc: policy program has no leaf class")
	}
	if leafName != "" {
		c := classes[leafName]
		if c == nil {
			return nil, fmt.Errorf("qdisc: policy program has no class %q", leafName)
		}
		if !c.IsLeaf() {
			return nil, fmt.Errorf("qdisc: class %q is not a leaf", leafName)
		}
		cp.fixed = c
	} else if len(cp.leaves) == 1 {
		cp.fixed = cp.leaves[0]
	}
	cp.head = tree.Root()
	if len(cp.leaves) == 1 && rootChildren == 1 && cp.leaves[0].Parent() == tree.Root() {
		cp.head = cp.leaves[0]
		// Shard-confined fast path: a single unshaped packet-free flow
		// leaf under the root can be driven directly (pifo direct ranked
		// service), skipping the hierarchy walk per packet.
		cp.direct = cp.leaves[0].DirectRanked() && !tree.Root().Limited() && !cp.leaves[0].Limited()
	}
	return cp, nil
}

// PolicySharded runs an extended-PIFO policy program on the sharded
// front: flows hash to one of N shards, each owning a private compiled
// pifo.Tree behind a lock-free MPSC ring, so pFabric, LQF, and
// hierarchical WFQ programs scale past the global qdisc lock while keeping
// per-flow dequeue order exactly as the locked tree would produce it
// (flows never span shards). Cross-shard order is merged by each tree's
// head rank and is approximate at that granularity; a test bounds the
// residual fairness error. When the program is a single packet-free flow
// leaf the ring carries (rank annotation, flow id) and the consumer side
// never loads the packet; otherwise it carries the enqueue timestamp for
// the tree's transactions.
//
// Rate limits inside the program apply PER SHARD (each shard runs its own
// copy of the tree, shaper included), so a limited class's aggregate rate
// is its configured rate times the number of shards its flows land on.
// Work-conserving programs — the policies above — are unaffected.
//
// Everything but the flow-table surface below is Front's.
type PolicySharded struct {
	*Front
	backends []*treeSched
}

// PolicyShardedOptions configures a PolicySharded qdisc.
type PolicyShardedOptions struct {
	// Policy is the program source, in the pifo.Compile grammar; names
	// resolve through the policy registry (wfq/strict/rr, edf/fifo/
	// strict/lstf/rank, pfabric/lqf/sqf/fifo). Required.
	Policy string
	// Leaf names the class every packet enqueues at. Default: the
	// program's single leaf; multi-leaf programs route each packet by its
	// Class annotation (modulo the leaf count, in declaration order).
	Leaf string
	// Shards is the shard count, rounded up to a power of two (default 8).
	Shards int
	// Groups is the consumer-group count (default 1), as in
	// MultiShardedOptions: each group's GroupDequeueBatch may be driven by
	// its own worker goroutine. Flow-hash confinement keeps every flow's
	// backlog — and so its policy state — on one shard inside one group,
	// so per-flow policy order stays EXACT under parallel egress.
	Groups int
	// RingBits sizes each shard's MPSC ring at 1<<RingBits slots
	// (default 10).
	RingBits uint
	// Batch is the consumer-side batch size (default 64).
	Batch int
	// ShardBound caps each shard's occupancy for EnqueueBatchAdmit; 0
	// keeps the legacy unbounded spill (see shardq.Options.ShardBound).
	ShardBound int
	// Admit selects what EnqueueBatchAdmit does with refused packets
	// (default AdmitDropTail).
	Admit AdmitPolicy
	// Tenants sizes the per-tenant drop buckets (default 1).
	Tenants int
	// EvictAfter arms idle-flow eviction on the direct service path: a
	// drained flow untouched for EvictAfter AdvanceFlowEpoch calls
	// becomes reclaimable (see pifo.Class.SetDirectEviction). 0 keeps
	// the retain-forever default; ignored by non-direct programs, whose
	// flow maps already recycle drained flows.
	EvictAfter int
}

// NewPolicySharded compiles opt.Policy once per shard and returns the
// sharded policy qdisc, or an error when the program does not compile or
// the leaf selection is ambiguous.
func NewPolicySharded(opt PolicyShardedOptions) (*PolicySharded, error) {
	// Validate the program (and the leaf resolution) once up front, so the
	// per-shard factory below cannot fail.
	probe, err := compileProgram(opt.Policy, opt.Leaf)
	if err != nil {
		return nil, err
	}
	s := &PolicySharded{}
	rt := shardq.New(shardq.Options{
		NumShards:  opt.Shards,
		NumGroups:  opt.Groups,
		RingBits:   opt.RingBits,
		ShardBound: opt.ShardBound,
		Backend: func(int) shardq.Scheduler {
			cp, err := compileProgram(opt.Policy, opt.Leaf)
			if err != nil {
				panic("qdisc: policy program compiled at validation but not per shard: " + err.Error())
			}
			b := &treeSched{tree: cp.tree, leaves: cp.leaves, fixed: cp.fixed, head: cp.head, direct: cp.direct}
			if b.direct && opt.EvictAfter > 0 {
				b.fixed.SetDirectEviction(opt.EvictAfter)
			}
			s.backends = append(s.backends, b)
			return b
		},
	})
	pub := pubPolicyTree
	if probe.direct {
		pub = pubPolicyDirect
	}
	s.Front = newFront(rt.Core, "Eiffel+policy-shards", pub, opt.Batch, opt.Admit, opt.Tenants)
	for _, b := range s.backends {
		s.clocked = append(s.clocked, b)
	}
	return s, nil
}

// AdvanceFlowEpoch advances every shard's direct-leaf eviction epoch (a
// no-op for non-direct programs or with EvictAfter unset). Cadence is the
// caller's idleness definition: a drained flow untouched for EvictAfter
// advances becomes reclaimable. Takes each shard's lock; call it off the
// per-packet path — every N batches, or on a timer.
func (s *PolicySharded) AdvanceFlowEpoch() {
	for i, b := range s.backends {
		s.rt.WithShardLocked(i, func(shardq.Scheduler) { b.advanceEpoch() })
	}
}

// FlowStats sums per-shard flow-table occupancy: live backlogged flows,
// retained flow objects (live plus idle-not-yet-reclaimed on the direct
// path), and slots reclaimed by eviction. Takes each shard's lock.
func (s *PolicySharded) FlowStats() (live, retained int, evicted uint64) {
	for i, b := range s.backends {
		s.rt.WithShardLocked(i, func(shardq.Scheduler) {
			l, r, e := b.flowStats()
			live += l
			retained += r
			evicted += e
		})
	}
	return live, retained, evicted
}

// --- Single-threaded baseline: one locked tree, same program ---

// PolicyTree runs the same compiled program as one global pifo.Tree — the
// single-threaded reference PolicySharded is measured against (wrap it in
// Locked for the kernel-style global-lock deployment).
type PolicyTree struct {
	cp   *compiledProgram
	name string
}

// NewPolicyTree compiles spec (leafName as in PolicyShardedOptions.Leaf)
// into a single-tree qdisc.
func NewPolicyTree(spec, leafName string) (*PolicyTree, error) {
	cp, err := compileProgram(spec, leafName)
	if err != nil {
		return nil, err
	}
	return &PolicyTree{cp: cp, name: "Eiffel tree(policy)"}, nil
}

// Name implements Qdisc.
func (q *PolicyTree) Name() string { return q.name }

// Len implements Qdisc.
func (q *PolicyTree) Len() int { return q.cp.tree.Len() }

// Enqueue implements Qdisc.
func (q *PolicyTree) Enqueue(p *pkt.Packet, now int64) {
	leaf := q.cp.fixed
	if leaf == nil {
		leaf = q.cp.leaves[int(uint32(p.Class))%len(q.cp.leaves)]
	}
	q.cp.tree.Enqueue(leaf, p, now)
}

// Dequeue implements Qdisc.
func (q *PolicyTree) Dequeue(now int64) *pkt.Packet { return q.cp.tree.Dequeue(now) }

// NextTimer implements Qdisc: "now" while backlogged (the programs this
// baseline replays are work-conserving; a shaper-gated tree would answer
// through NextEvent-driven hosts instead).
func (q *PolicyTree) NextTimer(now int64) (int64, bool) {
	if q.cp.tree.Len() == 0 {
		return 0, false
	}
	return now, true
}
