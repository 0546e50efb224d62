package qdisc

import (
	"fmt"

	"eiffel/internal/pifo"
	"eiffel/internal/pkt"
	"eiffel/internal/policy"
	"eiffel/internal/shardq"
)

// This file marries the paper's per-flow ranking primitive (the extended
// PIFO's flow leaves and on-dequeue transactions, §3.2) to the sharded
// multi-producer runtime (internal/shardq). Each shard owns a PRIVATE flow
// leaf compiled from the same program; flow-hash sharding confines a
// flow's whole backlog to one shard, so per-flow re-ranking (LQF, pFabric)
// runs lock-free inside that shard's leaf, and the cross-shard drain
// merges by each leaf's head rank exactly as the flat-rank runtimes merge.
// Per-flow dequeue order is therefore EXACT (identical to one global
// locked tree); cross-shard order is approximate at head-rank granularity
// — the shard-local approximation Figure 19 and Alcoz et al. show
// preserves policy outcomes.

// Canonical policy programs, in the Compile grammar — the paper's three
// flexibility showcases. One definition feeds the live benchmark, the
// runnable examples, and the equivalence tests, so the program text and
// what is proven order-exact can never drift apart. The first two run on
// PolicySharded; the hierarchy runs on PolicyTree.
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
	// FIFO leaves; packets route to a leaf by their Class annotation. It
	// runs on NewPolicyTree (HierSharded is its sharded form).
	PolicySpecHWFQ = `
root ranker=wfq buckets=4096 gran=16384
class gold parent=root ranker=wfq weight=3 buckets=4096 gran=16384
class silver parent=root ranker=wfq weight=1 buckets=4096 gran=16384
leaf gold0 parent=gold kind=flow policy=fifo buckets=4096 gran=64
leaf silver0 parent=silver kind=flow policy=fifo buckets=4096 gran=64
`
)

// flowSched drives one shard-private flow leaf directly (pifo's direct
// ranked service): the ring carries (rank annotation, flow id), the
// leaf's packet-free transactions rank flows, and neither side of the
// backend loads a packet. The merge rank reported by Min is the leaf's
// queue minimum, so the cross-shard drain compares policy ranks.
type flowSched struct {
	leaf *pifo.Class
}

// Enqueue implements shardq.Scheduler: rank is the published rank
// annotation; the flow id is re-read from the packet (the slow-but-correct
// form of the aux path below).
//
//eiffel:hotpath
func (b *flowSched) Enqueue(n *shardq.Node, rank uint64) {
	p := pkt.FromSchedNode(n)
	b.leaf.DirectEnqueue(p, p.Flow, rank)
}

// EnqueueBatch implements shardq.Scheduler.
//
//eiffel:hotpath
func (b *flowSched) EnqueueBatch(ns []*shardq.Node, ranks []uint64) {
	for i, n := range ns {
		p := pkt.FromSchedNode(n)
		b.leaf.DirectEnqueue(p, p.Flow, ranks[i])
	}
}

// EnqueueAux implements shardq.AuxScheduler: the producer resolved both
// keys while the packet was cache-hot, and this side never loads it.
//
//eiffel:hotpath
func (b *flowSched) EnqueueAux(n *shardq.Node, rank, aux uint64) {
	b.leaf.DirectEnqueue(pkt.FromSchedNode(n), aux, rank)
}

// EnqueueBatchAux implements shardq.AuxScheduler.
//
//eiffel:hotpath
func (b *flowSched) EnqueueBatchAux(ns []*shardq.Node, ranks, auxes []uint64) {
	leaf := b.leaf
	for i, n := range ns {
		leaf.DirectEnqueue(pkt.FromSchedNode(n), auxes[i], ranks[i])
	}
}

// DequeueBatch implements shardq.Scheduler: serve the leaf while its head
// rank stays within maxRank. Each pop runs the on-dequeue transaction, so
// the head is re-read every iteration.
//
//eiffel:hotpath
func (b *flowSched) DequeueBatch(maxRank uint64, out []*shardq.Node) int {
	leaf := b.leaf
	popped := 0
	for popped < len(out) {
		r, ok := leaf.HeadRank()
		if !ok || r > maxRank {
			break
		}
		p := leaf.DirectDequeue()
		// Never nil after a head, but the explicit check is what keeps the
		// packet's line cold: without it, taking &p.SchedNode makes the
		// compiler probe p with a load, a miss on memory the producer
		// wrote last.
		if p == nil {
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
func (b *flowSched) Min() (uint64, bool) { return b.leaf.HeadRank() }

// Len implements shardq.Scheduler.
//
//eiffel:hotpath
func (b *flowSched) Len() int { return b.leaf.Backlog() }

// compiledProgram is one compiled instance of a policy program plus its
// leaf routing.
type compiledProgram struct {
	tree   *pifo.Tree
	leaves []*pifo.Class
	fixed  *pifo.Class // non-nil: every packet enqueues here
}

// compileProgram compiles spec through the policy registry and resolves
// leaf routing: leafName pins every packet to one named leaf; otherwise a
// single-leaf program routes everything to its leaf and a multi-leaf
// program routes by the packet Class annotation.
func compileProgram(spec, leafName string) (*compiledProgram, error) {
	tree, classes, err := pifo.Compile(spec, policy.Registry{})
	if err != nil {
		return nil, err
	}
	cp := &compiledProgram{tree: tree}
	for _, c := range tree.Classes() {
		if c.IsLeaf() {
			cp.leaves = append(cp.leaves, c)
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
	return cp, nil
}

// flowLeaf returns the program's one leaf when PolicySharded can drive it
// directly: a sole, unshaped flow leaf under the root whose policy is
// packet-free and whose queue is the default cFFS. Anything else is
// refused, naming where it runs instead.
func (cp *compiledProgram) flowLeaf() (*pifo.Class, error) {
	var why string
	// Root plus one class: that class is the program's one leaf.
	switch leaf := cp.leaves[0]; {
	case len(cp.tree.Classes()) != 2:
		why = "the program is a class hierarchy"
	case cp.tree.Root().Limited() || leaf.Limited():
		why = "the program is rate-limited"
	case !leaf.DirectRanked():
		why = fmt.Sprintf("leaf %q is not a packet-free flow leaf on a cffs queue", leaf.Name)
	default:
		return leaf, nil
	}
	return nil, fmt.Errorf("qdisc: PolicySharded runs one unshaped packet-free flow leaf "+
		"(kind=flow policy=pfabric|lqf|sqf|fifo) under the root, and %s: "+
		"run class hierarchies on HierSharded, or the program single-threaded on PolicyTree", why)
}

// PolicySharded runs a per-flow ranking program on the sharded front: one
// flow leaf (pFabric, LQF, SQF, flow FIFO) per shard, flows hashed to one
// of N shards behind lock-free MPSC rings, so the paper's per-flow
// primitives scale past the global qdisc lock while keeping per-flow
// dequeue order exactly as the locked tree would produce it (flows never
// span shards). Cross-shard order is merged by each leaf's head rank and
// is approximate at that granularity. The ring carries (rank annotation,
// flow id), so the consumer never loads a packet. Class hierarchies run on
// HierSharded; any other program runs single-threaded on PolicyTree.
//
// Everything but the flow-table surface below is Front's.
type PolicySharded struct {
	*Front
	backends []*flowSched
}

// PolicyShardedOptions configures a PolicySharded qdisc.
type PolicyShardedOptions struct {
	// Policy is the program source, in the pifo.Compile grammar: a root
	// and one flow leaf under it whose policy resolves through the policy
	// registry to a packet-free one (pfabric/lqf/sqf/fifo). Required.
	Policy string
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
	// ShardBound caps each shard's occupancy for EnqueueBatchAdmit; 0
	// keeps the legacy unbounded spill (see shardq.Options.ShardBound).
	ShardBound int
	// Admit selects what EnqueueBatchAdmit does with refused packets
	// (default AdmitDropTail).
	Admit AdmitPolicy
	// Tenants sizes the per-tenant drop buckets (default 1).
	Tenants int
	// EvictAfter arms idle-flow eviction: a drained flow untouched for
	// EvictAfter AdvanceFlowEpoch calls becomes reclaimable (see
	// pifo.Class.SetDirectEviction). 0 keeps the retain-forever default.
	EvictAfter int
}

// NewPolicySharded compiles opt.Policy once per shard and returns the
// sharded policy qdisc, or an error when the program does not compile or
// is not one packet-free flow leaf under the root.
func NewPolicySharded(opt PolicyShardedOptions) (*PolicySharded, error) {
	// Validate the program once up front, so the per-shard factory below
	// cannot fail.
	probe, err := compileProgram(opt.Policy, "")
	if err != nil {
		return nil, err
	}
	if _, err := probe.flowLeaf(); err != nil {
		return nil, err
	}
	s := &PolicySharded{}
	rt := shardq.New(shardq.Options{
		NumShards:  opt.Shards,
		NumGroups:  opt.Groups,
		RingBits:   opt.RingBits,
		ShardBound: opt.ShardBound,
		Backend: func(int) shardq.Scheduler {
			// The same text the probe compiled and accepted: no error.
			cp, _ := compileProgram(opt.Policy, "")
			leaf, _ := cp.flowLeaf()
			if opt.EvictAfter > 0 {
				leaf.SetDirectEviction(opt.EvictAfter)
			}
			b := &flowSched{leaf: leaf}
			s.backends = append(s.backends, b)
			return b
		},
	})
	s.Front = newFront(rt.Core, "Eiffel+policy-shards", pubPolicy, opt.Admit, opt.Tenants)
	return s, nil
}

// AdvanceFlowEpoch advances every shard's eviction epoch (a no-op with
// EvictAfter unset). Cadence is the caller's idleness definition: a
// drained flow untouched for EvictAfter advances becomes reclaimable.
// Takes each shard's lock; call it off the per-packet path — every N
// batches, or on a timer.
func (s *PolicySharded) AdvanceFlowEpoch() {
	for i, b := range s.backends {
		s.rt.WithShardLocked(i, func(shardq.Scheduler) { b.leaf.DirectAdvanceEpoch() })
	}
}

// FlowStats sums per-shard flow-table occupancy: live backlogged flows,
// retained flow objects (live plus idle-not-yet-reclaimed), and slots
// reclaimed by eviction. Takes each shard's lock.
func (s *PolicySharded) FlowStats() (live, retained int, evicted uint64) {
	for i, b := range s.backends {
		s.rt.WithShardLocked(i, func(shardq.Scheduler) {
			l, r, e := b.leaf.DirectFlowStats()
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

// NewPolicyTree compiles spec into a single-tree qdisc. leafName pins
// every packet to that leaf; empty, a single-leaf program routes everything
// to its leaf and a multi-leaf program routes each packet by its Class
// annotation (modulo the leaf count, in declaration order).
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
