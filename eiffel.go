// Package eiffel is a from-scratch Go implementation of "Eiffel: Efficient
// and Flexible Software Packet Scheduling" (Saeed et al., NSDI 2019): O(1)
// bucketed integer priority queues built on Find-First-Set (the circular
// hierarchical FFS queue, cFFS) and on algebraic curvature estimates (the
// exact and approximate gradient queues), plus an extended PIFO programming
// model with per-flow ranking, on-dequeue re-ranking, and decoupled
// arbitrary shaping through a single time-indexed shaper.
//
// # Quick start
//
//	pool := eiffel.NewPool(1024)
//	tree := eiffel.NewTree(eiffel.TreeOptions{
//		RootRanker: eiffel.WFQ{},
//		RootQueue:  eiffel.QueueConfig{NumBuckets: 1 << 14, Granularity: 1},
//	})
//	leaf := tree.NewPacketLeaf(nil, eiffel.EDF{}, eiffel.ClassOptions{Name: "edf"})
//
//	p := pool.Get()
//	p.Deadline = 1000
//	tree.Enqueue(leaf, p, now)
//	out := tree.Dequeue(now)
//
// # Picking a queue
//
// Choose implements the paper's Figure 20 decision tree:
//
//	kind := eiffel.Choose(eiffel.Characteristics{
//		MovingRange:    true,
//		PriorityLevels: 20000,
//	}) // -> KindCFFS
//	q := eiffel.NewQueue(kind, eiffel.QueueConfig{NumBuckets: 1 << 14})
//
// Lower-level building blocks (the standalone queues, the hClock scheduler,
// the kernel-style qdiscs, the mini-BESS pipeline, and the datacenter
// simulator used to reproduce the paper's figures) live under internal/;
// this package re-exports the stable, user-facing surface.
package eiffel

import (
	"eiffel/internal/bucket"
	"eiffel/internal/hclock"
	"eiffel/internal/pifo"
	"eiffel/internal/pkt"
	"eiffel/internal/policy"
	"eiffel/internal/qdisc"
	"eiffel/internal/queue"
	"eiffel/internal/shardq"
	"eiffel/internal/stats"
)

// Core re-exported types. Node is the intrusive queue handle; embed or own
// one per schedulable item and point Data back at the item.
type (
	// Node is the intrusive handle stored in every queue backend.
	Node = bucket.Node
	// PQ is the common min-priority-queue contract.
	PQ = queue.PQ
	// QueueKind names a queue backend.
	QueueKind = queue.Kind
	// QueueConfig sizes a queue backend.
	QueueConfig = queue.Config
	// Characteristics feeds the Figure 20 decision tree.
	Characteristics = queue.Characteristics

	// Packet is the schedulable unit.
	Packet = pkt.Packet
	// Pool recycles packets for allocation-free hot paths.
	Pool = pkt.Pool

	// Tree is the extended-PIFO hierarchical scheduler.
	Tree = pifo.Tree
	// Class is one node of a scheduler tree.
	Class = pifo.Class
	// Flow is the per-flow ranking unit inside flow leaves.
	Flow = pifo.Flow
	// TreeOptions configures a scheduler tree.
	TreeOptions = pifo.TreeOptions
	// ClassOptions configures a class.
	ClassOptions = pifo.ClassOptions
	// ChildRanker ranks child classes (scheduling transactions).
	ChildRanker = pifo.ChildRanker
	// PacketRanker ranks packets at leaves.
	PacketRanker = pifo.PacketRanker
	// FlowPolicy is the per-flow ranking + on-dequeue ranking primitive.
	FlowPolicy = pifo.FlowPolicy
)

// Queue backend kinds for NewQueue: the four Choose picks from (Figure 20)
// plus the fixed-range approximate queue and the bucketed binary heap of
// the §5.2 microbenchmarks. QueueKind.String gives their table names.
const (
	// KindCFFS is the circular hierarchical FFS queue — the default.
	KindCFFS = queue.KindCFFS
	// KindFFS is a fixed-range hierarchical FFS queue.
	KindFFS = queue.KindFFS
	// KindApprox is the approximate gradient queue.
	KindApprox = queue.KindApprox
	// KindCApprox is the circular approximate gradient queue.
	KindCApprox = queue.KindCApprox
	// KindBH is the bucketed queue with a binary-heap index.
	KindBH = queue.KindBH
	// KindBinaryHeap is a comparison-based binary heap.
	KindBinaryHeap = queue.KindBinaryHeap
)

// Scheduling transactions and policies.
type (
	// WFQ is weighted fair queueing over child classes.
	WFQ = policy.WFQ
	// StrictChild ranks child classes by static priority.
	StrictChild = policy.StrictChild
	// RRChild round-robins child classes.
	RRChild = policy.RRChild
	// EDF ranks packets by deadline.
	EDF = policy.EDF
	// StrictPacket ranks packets by class annotation.
	StrictPacket = policy.StrictPacket
	// FIFO ranks packets by arrival.
	FIFO = policy.FIFO
	// LSTF ranks packets by slack (least slack time first).
	LSTF = policy.LSTF
	// RankAnnotation ranks packets by their Rank field.
	RankAnnotation = policy.RankAnnotation
	// LQF is Longest Queue First (Figure 6).
	LQF = policy.LQF
	// SQF is Shortest Queue First.
	SQF = policy.SQF
	// PFabric is shortest-remaining-first per-flow ranking (Figure 14).
	PFabric = policy.PFabric
	// FlowFIFO serves flows in arrival order.
	FlowFIFO = policy.FlowFIFO
)

// NewQueue constructs a priority-queue backend.
func NewQueue(k QueueKind, cfg QueueConfig) PQ { return queue.New(k, cfg) }

// NewTree constructs a hierarchical scheduler.
func NewTree(opt TreeOptions) *Tree { return pifo.NewTree(opt) }

// NewPool constructs a packet pool.
func NewPool(capacity int) *Pool { return pkt.NewPool(capacity) }

// Choose implements the Figure 20 decision tree for selecting a queue
// backend from scheduling-policy characteristics.
func Choose(c Characteristics) QueueKind { return queue.Choose(c) }

// ChooseThreshold is the priority-level count below which the backend
// choice is immaterial (§5.2).
const ChooseThreshold = queue.ChooseThreshold

// Compile builds a scheduler tree from a textual policy description — the
// role the PIFO reference implementation fills with DOT translation (§4).
// See pifo.Compile for the grammar. Transactions resolve to the policies
// in this package (wfq/strict/rr, edf/fifo/strict/lstf/rank,
// pfabric/lqf/sqf/fifo).
func Compile(spec string) (*Tree, map[string]*Class, error) {
	return pifo.Compile(spec, policy.Registry{})
}

// Sharded multi-producer runtime (one core, shardq.Core; ShardedQueue and
// ShapedShardedQueue are its two typed views — without and with a shaper
// stage): N shards, each owning its own bucketed queue behind a lock-free
// MPSC ring, replacing the kernel's global qdisc
// lock (§4) with flow-hashed partitioning and batched drains. Enqueue is
// safe from any number of goroutines; the consuming side partitions into
// consumer GROUPS (ShardedOptions.NumGroups, default 1), each drained by
// its own worker goroutine through GroupDequeueBatch — the one way
// elements leave — with per-flow order identical to a single global
// consumer's. Len is lock-free and may transiently overcount by up to one
// in-flight batch while producers and workers run concurrently; it is
// exact at quiescence. See ARCHITECTURE.md for the design.
//
// The enqueue side batches too: a per-goroutine Producer handle stages
// elements per shard and publishes each shard's run as ONE multi-slot
// ring claim (one CAS for the whole run), and EnqueueBatch does the same
// for one-shot callers. Both are allocation-free in steady state — see
// ExampleShardedQueue_producer.
type (
	// ShardedQueue is the sharded multi-producer priority-queue runtime.
	ShardedQueue = shardq.Q
	// ShardedOptions sizes a ShardedQueue.
	ShardedOptions = shardq.Options
	// ShardedStats is a snapshot of a ShardedQueue's counters.
	ShardedStats = shardq.Snapshot
	// Producer is a per-goroutine batched enqueue handle for a
	// ShardedQueue or ShapedShardedQueue (NewProducer), staging the same
	// (node, k1, k2) triples their Enqueue publishes. Staged elements
	// publish on Flush.
	Producer = shardq.Producer
)

// NewShardedQueue constructs a sharded multi-producer runtime.
func NewShardedQueue(opt ShardedOptions) *ShardedQueue { return shardq.New(opt) }

// Shaped-and-scheduled sharded runtime: the multi-producer form of the
// paper's decoupled shaping (§3.2.2, Figure 8). Every element carries two
// keys — a release time and a priority — through the packet's paired
// TimerNode/SchedNode handles; producers publish lock-free, and each
// group's drain migrates due elements from per-shard time-indexed shapers
// into per-shard priority-indexed schedulers before draining the
// schedulers in merged cross-shard priority order.
type (
	// ShapedShardedQueue is the shaped+scheduled sharded runtime.
	ShapedShardedQueue = shardq.Shaped
	// ShapedShardedQueueOptions sizes a ShapedShardedQueue.
	ShapedShardedQueueOptions = shardq.ShapedOptions
	// PairFunc maps a published shaper handle to its scheduler twin.
	PairFunc = shardq.PairFunc
)

// The sharded qdisc front: one type over the sharded runtime, owning
// admission, the group drain, and the Serve/Close/Drain/CloseForce
// lifecycle exactly once; the constructors below are option presets that
// pick a runtime and a publication rule. The shards partition into
// consumer groups, each drained by a dedicated worker into its own egress
// sink — the multi-queue-NIC topology. GroupDequeueBatch and
// GroupNextTimer are the only way packets leave, so a Front is not a
// Qdisc. Flow-hash confinement pins every flow to one shard, hence one
// group, so per-flow dequeue order is identical to the single-consumer
// qdisc with zero new hot-path synchronization; only the interleaving
// across groups (across TX queues) is relaxed.
type (
	// Front is the sharded qdisc every preset returns (PolicySharded and
	// HierSharded embed it).
	Front = qdisc.Front
	// MultiShardedOptions sizes the timer preset.
	MultiShardedOptions = qdisc.MultiShardedOptions
	// ShapedShardedOptions is the shaped preset's queue geometry (embedded
	// in MultiShapedOptions).
	ShapedShardedOptions = qdisc.ShapedShardedOptions
	// MultiShapedOptions sizes the shaped preset.
	MultiShapedOptions = qdisc.MultiShapedOptions
	// EgressSink models one egress transmit queue (a NIC TX ring); each
	// group worker owns one.
	EgressSink = qdisc.EgressSink
	// CountingSink is the trivial EgressSink: an atomic packet counter.
	CountingSink = qdisc.CountingSink
)

// NewMultiSharded constructs the timer preset: per-shard timer queues on
// the cFFS window, packets released at their SendAt. A queue holds each
// packet's handle and SendAt by value, so its worker never writes packet
// memory. A packet that is overdue when the consumer first sees it is
// released straight off its ring, behind everything already queued and in
// per-flow order, without touching the queue (ShardedStats.Direct counts
// them); see ARCHITECTURE.md, Due-bypass.
func NewMultiSharded(opt MultiShardedOptions) *Front {
	return qdisc.NewMultiSharded(opt)
}

// NewMultiShaped constructs the shaped preset (Figure 8 on the sharded
// runtime): packets gate on SendAt in per-shard shapers and release in
// Rank order from per-shard schedulers.
func NewMultiShaped(opt MultiShapedOptions) *Front {
	return qdisc.NewMultiShaped(opt)
}

// Per-flow ranking on the sharded runtime: every shard of a ShardedQueue
// can own any Scheduler backend (Options.Backend), and PolicySharded uses
// that hook to run one compiled flow leaf per shard — pFabric, LQF, SQF or
// flow FIFO — behind the lock-free multi-producer admission path.
// Flow-hash sharding keeps each flow's backlog on one shard, so per-flow
// ranking and on-dequeue transactions stay exact (flow-local dequeue order
// is identical to one global locked Tree), while cross-shard order merges
// approximately by each shard's head rank. Class hierarchies run sharded on
// HierSharded; any other program runs single-threaded on PolicyTree.
type (
	// Scheduler is the per-shard queue backend contract of the sharded
	// runtime (EnqueueBatch/DequeueBatch/Min).
	Scheduler = shardq.Scheduler
	// PolicySharded runs a compiled flow-leaf program on the sharded runtime.
	PolicySharded = qdisc.PolicySharded
	// PolicyShardedOptions configures a PolicySharded qdisc.
	PolicyShardedOptions = qdisc.PolicyShardedOptions
	// PolicyTree runs any compiled program as one single-threaded tree.
	PolicyTree = qdisc.PolicyTree
)

// Canonical policy programs in the Compile grammar — the same definitions
// the benchmark and examples run, so external callers can run the
// paper's showcases without re-typing the program text.
const (
	// PolicySpecPFabric is shortest-remaining-first per-flow ranking.
	PolicySpecPFabric = qdisc.PolicySpecPFabric
	// PolicySpecLQF is Longest Queue First.
	PolicySpecLQF = qdisc.PolicySpecLQF
	// PolicySpecHWFQ is a two-class 3:1 weighted hierarchy, for NewPolicyTree.
	PolicySpecHWFQ = qdisc.PolicySpecHWFQ
)

// NewPolicySharded compiles a program of one packet-free flow leaf under
// the root (one private leaf per shard) onto the sharded multi-producer
// runtime, and refuses any other program.
func NewPolicySharded(opt PolicyShardedOptions) (*PolicySharded, error) {
	return qdisc.NewPolicySharded(opt)
}

// NewPolicyTree compiles any program, hierarchies included, into a
// single-tree qdisc — the locked baseline PolicySharded is measured against.
func NewPolicyTree(spec, leaf string) (*PolicyTree, error) {
	return qdisc.NewPolicyTree(spec, leaf)
}

// Hierarchical QoS (hClock) on the sharded runtime: a HierSpec describes a
// tenant tree — reservations (minimum rates), limits (rate caps), and
// proportional-share weights, with a FIFO or ranked in-tenant order — and
// NewHierSharded compiles it once per shard, renormalizing every tenant's
// rates by the shard count so the tree still aggregates to its configured
// rates. Flow-hash sharding keeps each tenant's per-flow backlog
// shard-confined (per-flow order is exact), the cross-shard merge runs on
// quantized share virtual time, and a shard holding a due reservation
// preempts every share tag — hClock's two-phase preference lifted across
// shards.
type (
	// HierSpec is the tenant table plus engine sizing for a hierarchical
	// QoS qdisc.
	HierSpec = shardq.HierSpec
	// HierTenant is one traffic class of a HierSpec: reservation, limit,
	// weight, and in-tenant policy.
	HierTenant = shardq.HierTenant
	// HierSharded runs one hClock engine per shard of the multi-producer
	// runtime.
	HierSharded = qdisc.HierSharded
	// HierShardedOptions configures a HierSharded qdisc.
	HierShardedOptions = qdisc.HierShardedOptions
	// HierTree is the single-engine whole-tree baseline for the same
	// spec; wrap it in NewLocked for the kernel-style deployment.
	HierTree = qdisc.HierTree
	// Locked serializes a Qdisc behind one mutex — the kernel's global
	// qdisc lock, the baseline deployment sharded qdiscs are measured
	// against.
	Locked = qdisc.Locked
	// HClockBackend selects the tag-index implementation of a HierSpec
	// (Eiffel FFS queues or binary heaps).
	HClockBackend = hclock.Backend
)

// Tag-index backends for HierSpec.Backend.
const (
	// HClockEiffel indexes tags with circular hierarchical FFS queues —
	// the paper's O(1) configuration.
	HClockEiffel = hclock.BackendEiffel
	// HClockHeap indexes tags with binary min-heaps — the original
	// hClock baseline.
	HClockHeap = hclock.BackendHeap
)

// NewHierSharded compiles the spec once per shard (rates renormalized by
// the shard count) onto the sharded multi-producer runtime.
func NewHierSharded(opt HierShardedOptions) (*HierSharded, error) {
	return qdisc.NewHierSharded(opt)
}

// NewHierTree compiles the spec into one whole-tree engine — the locked
// baseline HierSharded is measured against (wrap in NewLocked).
func NewHierTree(spec HierSpec) (*HierTree, error) {
	return qdisc.NewHierTree(spec)
}

// NewLocked wraps any Qdisc behind one mutex (the kernel-style global
// qdisc lock deployment).
func NewLocked(q Qdisc) *Locked { return qdisc.NewLocked(q) }

// NewShapedShardedQueue constructs a shaped+scheduled sharded runtime.
func NewShapedShardedQueue(opt ShapedShardedQueueOptions) *ShapedShardedQueue {
	return shardq.NewShaped(opt)
}

// Qdisc is the kernel queuing-discipline contract (Enqueue, Dequeue,
// NextTimer, Len) of the single-consumer qdiscs: the paper's FQ, Carousel
// and Eiffel, the locked whole-tree PolicyTree and HierTree, and the
// Locked wrapper. The sharded presets drain by group instead.
type Qdisc = qdisc.Qdisc

// NewVecSched constructs the exact vectorized Scheduler backend. Its
// bucket width, cfg's Granularity, is the runtime's one approximation:
// VecSchedBound grows with it.
func NewVecSched(cfg QueueConfig) Scheduler { return shardq.NewVecSched(cfg) }

// VecSchedBound returns NewVecSched's worst-case rank-inversion magnitude
// over cfg: bucket quantization only.
func VecSchedBound(cfg QueueConfig) uint64 { return shardq.VecSchedBound(cfg) }

// Flow lifecycle under open-world churn: bounded admission (per-shard
// occupancy caps with per-packet pushback instead of the legacy unbounded
// spill) and idle-flow eviction on the direct policy path, the pair that
// keeps a qdisc's memory proportional to its LIVE flow window while
// millions of short-lived flows come and go — the regime the paper
// indicts kernel FQ's flow garbage collection for (§5.1).
type (
	// AdmitPolicy selects what a qdisc does with packets its shard bound
	// refuses: drop-tail (count and discard) or backpressure (hand back).
	AdmitPolicy = qdisc.AdmitPolicy
	// Admit is the runtime-level outcome of one bounded flush.
	Admit = shardq.Admit
	// PushReason classifies why bounded admission refused elements.
	PushReason = shardq.PushReason
)

// Admission policies and refusal reasons.
const (
	// AdmitDropTail discards refused packets, counting them aggregate and
	// per-tenant.
	AdmitDropTail = qdisc.AdmitDropTail
	// AdmitBackpressure hands refused packets back to the caller uncounted.
	AdmitBackpressure = qdisc.AdmitBackpressure
	// PushNone reports nothing refused.
	PushNone = shardq.PushNone
	// PushShardFull reports refusals from a shard at its occupancy bound.
	PushShardFull = shardq.PushShardFull
	// PushClosed reports refusals from a closed (draining) runtime.
	PushClosed = shardq.PushClosed
)

// Fault-tolerant egress and graceful lifecycle: sinks that can refuse
// work (FallibleSink) are driven with bounded retries, capped
// exponential backoff, and a per-packet deadline (RetryPolicy), with
// every disposal accounted by reason; the front closes
// through a running → draining → closed state machine whose quiescence
// obeys admitted == tx'd + dropped + released exactly; and Serve worker
// fleets are supervised — panic recovery with a bounded restart budget,
// a stall watchdog, and per-group health. See ARCHITECTURE.md ("Egress
// fault tolerance and lifecycle"); internal/qdisc's TestChaosEveryPreset
// asserts the exactly-once contract under injected sink faults.
type (
	// FallibleSink is an egress transmit queue that can refuse work:
	// TryTx accepts a prefix of the batch and says why it stopped.
	FallibleSink = qdisc.FallibleSink
	// RetryPolicy bounds how hard egress fights a refusing sink.
	RetryPolicy = qdisc.RetryPolicy
	// DropReason classifies why resilient egress dropped a packet.
	DropReason = qdisc.DropReason
	// ResilientSink adapts a FallibleSink to the infallible EgressSink
	// contract by retrying under a RetryPolicy.
	ResilientSink = qdisc.ResilientSink
	// ServeOptions tunes a supervised Serve fleet and the lifecycle
	// drain.
	ServeOptions = qdisc.ServeOptions
	// Server is a running supervised egress fleet (ServeWith).
	Server = qdisc.Server
	// GroupHealth is one consumer group's supervision snapshot.
	GroupHealth = qdisc.GroupHealth
	// DrainReport is the conservation accounting a Drain/CloseForce
	// returns at quiescence.
	DrainReport = qdisc.DrainReport
	// LifecycleState is a front's position in the close protocol.
	LifecycleState = qdisc.LifecycleState
	// EgressStats aggregates resilient-egress disposal accounting.
	EgressStats = stats.Egress
	// EgressStatsSnapshot is a point-in-time copy of an EgressStats.
	EgressStatsSnapshot = stats.EgressSnapshot
)

// Drop reasons and lifecycle states.
const (
	// DropDeadline: the packet's retry deadline expired.
	DropDeadline = qdisc.DropDeadline
	// DropRetryBudget: the packet's retry budget was exhausted.
	DropRetryBudget = qdisc.DropRetryBudget
	// DropSinkFailed: the group's sink exhausted its panic budget.
	DropSinkFailed = qdisc.DropSinkFailed
	// StateRunning: admission open.
	StateRunning = qdisc.StateRunning
	// StateDraining: Close called; refusable admission refuses.
	StateDraining = qdisc.StateDraining
	// StateClosed: exact quiescence reached.
	StateClosed = qdisc.StateClosed
)

// NewResilientSink wraps a FallibleSink with retry/backoff/deadline
// handling; onDrop (optional) observes every packet given up on.
func NewResilientSink(sink FallibleSink, pol RetryPolicy, onDrop func(*Packet, DropReason)) *ResilientSink {
	return qdisc.NewResilientSink(sink, pol, onDrop)
}
