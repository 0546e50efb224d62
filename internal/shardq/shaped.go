package shardq

import "eiffel/internal/queue"

// ShapedOptions sizes a shaped-and-scheduled sharded runtime.
type ShapedOptions struct {
	// NumShards is the shard count, rounded up to a power of two
	// (default 8).
	NumShards int
	// RingBits sizes each shard's MPSC ring at 1<<RingBits slots
	// (default 10).
	RingBits uint
	// Shaper sizes each shard's time-indexed store, an ffsq.ShaperStore
	// (ranks are release timestamps; granularity is the shaping precision).
	Shaper queue.Config
	// Sched sizes each shard's priority-indexed scheduler (ranks are
	// scheduling priorities; granularity is the priority resolution). The
	// config spans 2*NumBuckets*Granularity of rank space from Start, the
	// cFFS convention.
	Sched queue.Config
	// NumGroups partitions the shards into independent consumer groups
	// (default 1), exactly as Options.NumGroups does for the plain
	// runtime: each group's drain surface may be driven by its own worker
	// goroutine, and flows never span groups.
	NumGroups int
	// ShardBound caps each shard's published occupancy for the bounded-
	// admission paths (TryEnqueue, Producer.FlushAdmit); 0 keeps the
	// legacy unbounded spill. See Options.ShardBound and admit.go.
	ShardBound int
	// SchedBackend overrides the scheduler-side backend, called once per
	// shard — the shaped twin of Options.Backend. The default (nil) is the
	// fixed-range FFS-indexed vector-bucket store over Sched's span (ranks
	// outside it clamp to the edge buckets); a priority domain that moves
	// forward without bound (virtual finish times) passes a circular queue
	// (ffsq.NewCFFS is a Scheduler as it stands: Min is a pure peek and
	// DequeueBatch moves the window only as far as its bound has reached,
	// so a call that pops nothing leaves Min above the bound — the progress
	// rule). The merge machinery only needs that progress rule, which
	// every backend honors.
	SchedBackend func(shard int) Scheduler
	// Pair maps the published handle to the handle the scheduler takes.
	// Required; see PairFunc.
	Pair PairFunc
}

// Shaped is the typed view of a Core WITH a shaper stage — the shaped-and-
// scheduled runtime. Each element carries two keys: producers publish
// (shaper handle, sendAt, rank), every drain call takes the worker's clock
// and first migrates what that clock made due, and drains return the
// element's paired scheduler handle. Core's uniform surface is exactly
// this view's, so it adds no methods.
type Shaped struct{ *Core }

// NewShaped returns a shaped-and-scheduled runtime whose shards each own a
// shaper and a scheduler built from opt.
func NewShaped(opt ShapedOptions) *Shaped {
	if opt.Pair == nil {
		panic("shardq: NewShaped needs a Pair function")
	}
	sched := opt.SchedBackend
	if sched == nil {
		sched = func(int) Scheduler { return newVecSched(opt.Sched) }
	}
	return &Shaped{newCore(config{
		shards: opt.NumShards, groups: opt.NumGroups, ringBits: opt.RingBits,
		bound: opt.ShardBound, sched: sched, shaper: opt.Shaper.WithDefaults(), pair: opt.Pair,
	})}
}
