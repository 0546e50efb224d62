package shardq

import (
	"eiffel/internal/bucket"
	"eiffel/internal/ffsq"
	"eiffel/internal/queue"
)

// Options sizes a sharded runtime with no shaper stage.
type Options struct {
	// NumShards is the shard count, rounded up to a power of two
	// (default 8). Each shard owns an independent queue backend.
	NumShards int
	// RingBits sizes each shard's MPSC ring at 1<<RingBits slots
	// (default 10, i.e. 1024).
	RingBits uint
	// Kind selects the per-shard queue backend (default KindCFFS — the
	// Eiffel configuration). The kind's queue must itself be a Scheduler,
	// as cFFS is; New panics on one that is not, and any other structure
	// comes in through Backend.
	Kind queue.Kind
	// Queue sizes each shard's backend; see queue.Config.
	Queue queue.Config
	// NumGroups partitions the shards into independent consumer groups,
	// rounded up to a power of two and clamped to NumShards (default 1).
	// Group g owns the contiguous shard range [g*NumShards/NumGroups,
	// (g+1)*NumShards/NumGroups); each group's drain surface
	// (GroupDequeueBatch, GroupMinRank, GroupFlush) may be driven by its
	// own goroutine concurrently with every other group's — the parallel-
	// egress topology, one drain worker per NIC TX queue. Flow-hash
	// confinement means no flow ever spans shards, hence never spans
	// groups, so per-flow dequeue order is exactly the single-consumer
	// order; only the cross-group interleaving is relaxed.
	NumGroups int
	// Backend, when non-nil, supplies shard i's Scheduler backend directly
	// and overrides Kind/Queue. This is the programmable-policy hook: the
	// factory runs once per shard at construction, so each shard owns a
	// private backend instance (e.g. an extended-PIFO tree plus its policy
	// program) and the flow-hash sharding keeps every flow's backlog
	// confined to that instance.
	Backend func(shard int) Scheduler
	// ShardBound caps each shard's published occupancy (ring plus
	// bucketed queue) for the bounded-admission paths (TryEnqueue,
	// Producer.FlushAdmit): elements that would push a shard past the
	// bound are refused and reported back instead of spilling into the
	// locked fallback queue. 0 (the default) keeps the legacy unbounded
	// spill behavior. See admit.go for the exactness contract.
	ShardBound int
}

// Q is the typed view of a Core with no shaper stage: every element
// carries one rank (plus the aux word an AuxScheduler backend receives),
// and nothing on the drain side depends on a clock, so its methods drop
// the uniform surface's now argument. Concurrency contract as Core's.
type Q struct{ *Core }

// New returns a sharded runtime whose shards each own a backend built from
// opt.Kind and opt.Queue (or opt.Backend).
func New(opt Options) *Q { return newQ(opt, false) }

// NewTimer is New for a runtime whose ranks are release times and whose
// drain bound is the consumer's clock — a sharded timer queue. What that
// tells the runtime is that an element at or below the drain bound is
// simply overdue, and overdue elements have no order among themselves
// beyond each flow's own: drains release them straight off the rings
// (Core.drainTimer) instead of cycling them through a backend; the rest park
// by value in a timer store sized by opt.Queue, unless opt.Backend is set.
func NewTimer(opt Options) *Q { return newQ(opt, true) }

func newQ(opt Options, timer bool) *Q {
	sched := opt.Backend
	if sched == nil {
		cfg := opt.Queue.WithDefaults()
		sched = func(int) Scheduler {
			if timer {
				return timerSched{ffsq.NewTimerStore(cfg.NumBuckets, cfg.Granularity, cfg.Start)}
			}
			s, ok := queue.New(opt.Kind, opt.Queue).(Scheduler)
			if !ok {
				panic("shardq: Options.Kind's queue is not a Scheduler; supply the backend through Options.Backend")
			}
			return s
		}
	}
	return &Q{newCore(config{
		shards: opt.NumShards, groups: opt.NumGroups, ringBits: opt.RingBits,
		bound: opt.ShardBound, timer: timer, sched: sched,
	})}
}

// timerSched is a timer store under the Scheduler contract; drains skip ranks.
type timerSched struct{ *ffsq.TimerStore }

func (t timerSched) Enqueue(n *bucket.Node, rank uint64) {
	t.EnqueueBatch([]*bucket.Node{n}, []uint64{rank})
}

//eiffel:hotpath
func (t timerSched) EnqueueBatch(ns []*bucket.Node, ranks []uint64) {
	t.TimerStore.EnqueueBatch(ns, ranks, ranks)
}

//eiffel:hotpath
func (t timerSched) DequeueBatch(maxRank uint64, out []*bucket.Node) int {
	return t.TimerStore.DequeueBatch(maxRank, out, nil)
}

// Enqueue publishes n with the given rank on flow's shard; see
// Core.Enqueue.
//
//eiffel:hotpath
func (q *Q) Enqueue(flow uint64, n *bucket.Node, rank uint64) { q.Core.Enqueue(flow, n, rank, 0) }

// EnqueueAux is Enqueue carrying the ring's second payload word: aux is
// delivered to AuxScheduler backends (and dropped by plain ones).
//
//eiffel:hotpath
func (q *Q) EnqueueAux(flow uint64, n *bucket.Node, rank, aux uint64) {
	q.Core.Enqueue(flow, n, rank, aux)
}

// TryEnqueue is Enqueue under the configured shard bound; see
// Core.TryEnqueue.
//
//eiffel:hotpath
func (q *Q) TryEnqueue(flow uint64, n *bucket.Node, rank uint64) bool {
	return q.Core.TryEnqueue(flow, n, rank, 0)
}

// EnqueueBatch publishes ns[i] with ranks[i] on flows[i]'s shard; see
// Core.EnqueueBatch.
//
//eiffel:hotpath
func (q *Q) EnqueueBatch(flows []uint64, ns []*Node, ranks []uint64) {
	q.Core.EnqueueBatch(flows, ns, ranks, nil)
}

// GroupFlush drains every ring in group g into its bucketed queue and
// re-peeks the group's cached head ranks. Group-worker-side.
//
//eiffel:hotpath
func (q *Q) GroupFlush(g int) { q.Core.GroupFlush(g, 0) }

// GroupMinRank flushes group g's pending rings and returns the minimum
// bucket-quantized head rank across the group's shards, or ok=false if
// nothing is queued in its bucketed queues. Group-worker-side.
//
//eiffel:hotpath
func (q *Q) GroupMinRank(g int) (uint64, bool) {
	r, _, ok := q.GroupPeek(g, 0)
	return r, ok
}

// GroupDequeueBatch pops up to len(out) elements whose bucket-quantized
// rank is <= maxRank from consumer group g's shards; see
// Core.GroupDequeueBatch.
//
//eiffel:hotpath
func (q *Q) GroupDequeueBatch(g int, maxRank uint64, out []*bucket.Node) int {
	return q.Core.GroupDequeueBatch(g, 0, maxRank, out)
}
