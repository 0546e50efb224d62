package qdisc

import "eiffel/internal/shardq"

// ShardedOptions sizes the timer front (NewMultiSharded): per-shard timer
// queues on the cFFS window, packets released at their SendAt.
type ShardedOptions struct {
	// Shards is the shard count, rounded up to a power of two (default 8).
	Shards int
	// Buckets is the per-shard timer queue's bucket count per half (as
	// NewEiffel's; default 4096).
	Buckets int
	// HorizonNs is the shaping horizon covered without overflow.
	HorizonNs int64
	// Start anchors the initial window.
	Start int64
	// RingBits sizes each shard's MPSC ring at 1<<RingBits slots
	// (default 10).
	RingBits uint
	// ShardBound caps each shard's occupancy for the bounded-admission
	// surface (TryEnqueue, EnqueueBatchAdmit); 0 keeps the legacy unbounded spill.
	// See shardq.Options.ShardBound.
	ShardBound int
	// Admit selects what EnqueueBatchAdmit does with refused packets
	// (default AdmitDropTail); irrelevant with ShardBound 0.
	Admit AdmitPolicy
	// Tenants sizes the per-tenant drop buckets (packets map to buckets
	// by Class; default 1).
	Tenants int
}

// MultiShardedOptions sizes the timer front.
type MultiShardedOptions struct {
	ShardedOptions
	// Groups is the consumer-group count, rounded up to a power of two and
	// clamped to the shard count (default 1 — the single-consumer
	// topology).
	Groups int
}

// NewMultiSharded returns the timer front: the scaling answer to Locked —
// flows hash to one of N shards, each owning its own timer queue with the
// given geometry behind a lock-free MPSC ring, partitioned into opt.Groups
// consumer groups; no serialization of senders behind one mutex. A timer
// queue holds a packet's handle and SendAt by value (ffsq.TimerStore).
func NewMultiSharded(opt MultiShardedOptions) *Front {
	if opt.Buckets <= 0 {
		opt.Buckets = 4096
	}
	rt := shardq.NewTimer(shardq.Options{
		NumShards:  opt.Shards,
		NumGroups:  opt.Groups,
		RingBits:   opt.RingBits,
		Queue:      eiffelCfg(opt.Buckets, opt.HorizonNs, opt.Start),
		ShardBound: opt.ShardBound,
	})
	return newFront(rt.Core, "Eiffel+shards", pubTimer, opt.Admit, opt.Tenants)
}
