package shardq

import "eiffel/internal/bucket"

// Scheduler is the per-shard queue backend contract: everything the
// runtime's drain and merge machinery needs from the structure behind a
// shard's ring, and nothing more. The runtime only ever moves elements in
// runs — flushes hand the backend whole EnqueueBatch runs, merged drains
// pop whole DequeueBatch runs bounded by the runner-up shard's Min — so
// the contract is batch-first; the single-element Enqueue exists for the
// producer ring-full fallback and spill paths.
//
// Semantics every backend must honor:
//
//   - Ranks are uint64 priorities, smaller first. Bucketed backends may
//     quantize: Min and the DequeueBatch bound then operate on quantized
//     ranks, and FIFO order holds within a bucket.
//   - DequeueBatch pops up to len(out) elements whose (quantized) rank is
//     at most maxRank, in nondecreasing (quantized) rank order, and
//     returns how many it wrote. A call that returns 0 MUST leave Min
//     either empty or above maxRank — the cross-shard merge's progress
//     argument (mergeRuns) depends on it.
//   - Calls are externally synchronized by the shard lock; backends need
//     no internal locking and are free to keep per-call scratch.
//
// Backends that re-rank elements internally between calls (the extended-
// PIFO policy backend: per-flow ranking, on-dequeue transactions) are
// fully supported: the runtime re-reads Min after every run it serves, so
// a backend may report a different head each time.
type Scheduler interface {
	// Enqueue inserts one element with the given rank.
	Enqueue(n *bucket.Node, rank uint64)
	// EnqueueBatch inserts ns[i] with ranks[i] for every i — equivalent to
	// that sequence of Enqueue calls.
	EnqueueBatch(ns []*bucket.Node, ranks []uint64)
	// DequeueBatch pops up to len(out) elements with (quantized) rank at
	// most maxRank and returns how many it wrote.
	DequeueBatch(maxRank uint64, out []*bucket.Node) int
	// Min returns the (quantized) minimum rank, or ok=false when empty.
	Min() (uint64, bool)
	// Len returns the number of queued elements.
	Len() int
}

// AuxScheduler is the optional two-key backend extension: the publication
// ring carries a (rank, aux) pair per element (the same wire format the
// shaped runtime uses for (sendAt, rank)), and a backend that implements
// AuxScheduler receives both words. This is how a policy backend gets the
// producer-resolved keys — (rank annotation, flow id), or the hier
// backend's (in-tenant rank, tenant | size<<32) — without ever loading
// packet memory on the consumer: the producer reads the packet once, when
// it is cache-hot, and the keys ride the ring. Elements published without
// an aux (plain Enqueue/EnqueueBatch surfaces) deliver aux = 0.
type AuxScheduler interface {
	Scheduler
	// EnqueueAux inserts one element with the full ring payload.
	EnqueueAux(n *bucket.Node, rank, aux uint64)
	// EnqueueBatchAux inserts ns[i] with (ranks[i], auxes[i]) for every i.
	EnqueueBatchAux(ns []*bucket.Node, ranks, auxes []uint64)
}

// ClockedScheduler is the optional virtual-time extension for backends
// whose eligibility depends on a consumer clock (the hierarchical QoS
// backend: limit clocks park tenants until a future time, reservation
// clocks come due at a time). The runtime itself never calls these — the
// OWNER of the backend (the qdisc front) propagates each consumer
// group's clock into the group's backends before draining:
//
//   - SetNow advances the backend's clock and wakes a backend that had
//     reported itself empty because nothing was eligible at the old
//     clock (the stall contract: a backend with backlog but no eligible
//     element must answer Min() with ok=false so the cross-shard merge's
//     progress argument holds, and must start answering again once the
//     clock moves). It returns whether the advance changed what Min would
//     answer — the owner then re-peeks the group's cached heads
//     (Core.GroupFlush). SetNow is safe WITHOUT the shard lock — it must
//     be implemented with atomics, because producers whose rings filled
//     read the clock under the lock on their fallback flush paths.
//   - NextEvent reports the earliest time an ineligible element becomes
//     eligible (ok=false when empty or when work is ready now), for the
//     front's NextTimer. Callers hold the shard lock.
type ClockedScheduler interface {
	Scheduler
	// SetNow advances the consumer clock; see above for the contract.
	SetNow(now int64) (repeek bool)
	// NextEvent returns the earliest pending eligibility time.
	NextEvent() (int64, bool)
}
