package shardq

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"eiffel/internal/bucket"
	"eiffel/internal/ffsq"
	"eiffel/internal/queue"
	"eiffel/internal/stats"
)

// flushChunk is how many ring elements a locked flush moves per backend
// call: big enough to amortize the interface dispatch away, small enough
// to stay cache-resident.
const flushChunk = 256

// Node is the intrusive handle the runtime moves around — the same
// bucket.Node every queue in this repository shares, so callers can point
// an existing packet or flow handle at a sharded runtime unchanged.
type Node = bucket.Node

// PairFunc maps the handle a producer published with a release time to the
// handle the element's scheduler takes — pkt.Packet's TimerNode/SchedNode
// pair (Figure 8's decoupling). The shaper stage stores the published
// handle by value and never dereferences it; the runtime applies the
// mapping once, on the way into the scheduler, so it must be a pure
// function of the handle's address (for an embedded pair, a constant
// offset) if the consumer is to stay off packet memory.
type PairFunc func(*bucket.Node) *bucket.Node

// config is everything the runtime core is parameterised by; Options and
// ShapedOptions both reduce to it.
type config struct {
	shards, groups int
	ringBits       uint
	bound          int
	timer          bool // ranks are release times (NewTimer): see drainTimer
	// sched builds shard i's scheduler. A non-nil pair puts a shaper stage
	// sized by shaper in front of it, and maps published handles to
	// scheduler handles.
	sched  func(shard int) Scheduler
	shaper queue.Config
	pair   PairFunc
}

// shard is one partition: a lock-free publication ring in front of a
// mutex-protected Scheduler backend, with an optional time-indexed shaper
// stage between the two (Figure 8: one decoupled shaper feeding any
// scheduler). The mutex is uncontended in steady state — producers only
// take it when their ring fills, and the consumer amortizes it over whole
// batches. Producers only ever feed the FRONT stage (the shaper when there
// is one, else the scheduler); with a shaper, only the consumer moves
// elements into the scheduler.
type shard struct {
	ring   *ring
	mu     sync.Mutex
	shaper *ffsq.ShaperStore // nil: no shaper stage
	q      Scheduler         // the scheduler the merged drain pops
	qa     AuxScheduler      // q, if it consumes the ring's second key (no shaper stage only)

	// qlen mirrors shaper.Len()+q.Len() so Len readers need no lock:
	// updated under mu (fallback path) or by the consumer, amortized per
	// batch. Migration moves elements between the stages without changing
	// it.
	qlen atomic.Int64

	// fallbackGen counts producer-side fallback flushes (bumped under
	// mu). The consumer caches each shard's heads between batches and
	// only re-peeks when this generation moves or its ring is non-empty.
	fallbackGen atomic.Uint32

	// Flush staging: ring pops land in runs so a locked flush hands a
	// backend whole EnqueueBatch calls instead of one interface dispatch
	// per element. park* is the front-stage-bound run; due* is the
	// scheduler-bound run of a shaped consumer flush (elements already
	// due skip the shaper). Like the ring, the staging retains its last
	// run of node pointers until overwritten — bounded, and the nodes live
	// on in the queues anyway.
	//
	//eiffel:guarded(mu)
	parkNs []*bucket.Node
	//eiffel:guarded(mu)
	parkK1 []uint64
	//eiffel:guarded(mu)
	parkK2 []uint64
	//eiffel:guarded(mu)
	dueNs []*bucket.Node
	//eiffel:guarded(mu)
	dueRanks []uint64

	_ [64]byte // one shard's lock traffic must not false-share the next's
}

// parkRunLocked hands the first k staged elements to the front stage in
// one backend call. A shaper takes the whole triple (node, k1 = release
// time, k2 = scheduler priority) by value; without a shaper the scheduler
// takes (k1, k2) if it is aux-aware, else k1 alone. Callers hold mu.
//
//eiffel:locked(mu)
//eiffel:hotpath
func (s *shard) parkRunLocked(k int) {
	switch {
	case s.shaper != nil:
		s.shaper.EnqueueBatch(s.parkNs[:k], s.parkK1[:k], s.parkK2[:k])
	case s.qa != nil:
		s.qa.EnqueueBatchAux(s.parkNs[:k], s.parkK1[:k], s.parkK2[:k])
	default:
		s.q.EnqueueBatch(s.parkNs[:k], s.parkK1[:k])
	}
}

// flushLocked drains the ring into the front stage in staged runs. This
// is the producer-side fallback flush — producers know no drain bound and
// must never touch a scheduler behind a shaper (the consumer's merge
// caches scheduler heads) — and the consumer's flush when there is no
// shaper stage. Callers hold mu.
//
//eiffel:locked(mu)
//eiffel:hotpath
func (s *shard) flushLocked() (drained int) {
	for {
		k := 0
		for k < len(s.parkNs) {
			n, k1, k2, ok := s.ring.pop()
			if !ok {
				break
			}
			s.parkNs[k], s.parkK1[k], s.parkK2[k] = n, k1, k2
			k++
		}
		if k == 0 {
			break
		}
		s.parkRunLocked(k)
		drained += k
		if k < len(s.parkNs) {
			break
		}
	}
	if drained > 0 {
		s.qlen.Add(int64(drained))
		s.ring.publish()
	}
	return drained
}

// flushFallbackLocked is a producer's ring-full drain: flushLocked carried
// through to the tail as of the refusal. pop refuses at a slot another
// producer has claimed and not yet published; this producer's own earlier
// entries can sit behind that slot, and what it parks next must not
// overtake them. The claimant is one store from publishing — or preempted
// there, hence the yield after a short spin. Callers hold mu.
//
//eiffel:locked(mu)
//eiffel:hotpath
func (s *shard) flushFallbackLocked() (drained int) {
	tail := s.ring.tail.Load()
	for spins := 0; ; spins++ {
		drained += s.flushLocked()
		if s.ring.head >= tail {
			return drained
		}
		if spins >= 64 {
			runtime.Gosched()
		}
	}
}

// flushDueLocked is the consumer's ring drain wherever k1 is a release
// time: elements already due at the drain bound skip the time-indexed
// queue, the rest park in it in whole staged runs exactly as flushLocked
// parks them. Behind a shaper stage (out nil) the due ones land in the
// scheduler — they would migrate in this same pass anyway, and nothing is
// reordered: the scheduler still merges by priority — converted to their
// PAIRED scheduler handle on the way (for the qdisc pairing pure pointer
// arithmetic), so every element a scheduler ever holds, and every node a
// drain returns, is its scheduler handle. On a timer runtime they go
// straight into the caller's out, in ring order, and the pass stops when
// out is full: the rest waits in the ring for the next batch. queued is how
// many elements entered a queue of this shard, direct how many were due.
// Callers hold mu, consumer-side only, and must FIRST have served or moved
// everything due the time-indexed queue already holds (settle, drainTimer).
//
//eiffel:locked(mu)
//eiffel:hotpath
func (s *shard) flushDueLocked(pair PairFunc, due uint64, out []*bucket.Node) (queued, direct int) {
	dst := out
	if out == nil {
		dst = s.dueNs
	}
	for len(dst) > 0 {
		dd, pp := 0, 0
		for dd < len(dst) && pp < len(s.parkNs) {
			n, k1, k2, ok := s.ring.pop()
			if !ok {
				break
			}
			if k1 > due {
				s.parkNs[pp], s.parkK1[pp], s.parkK2[pp] = n, k1, k2
				pp++
				continue
			}
			if out == nil {
				n, s.dueRanks[dd] = pair(n), k2
			}
			dst[dd] = n
			dd++
		}
		if pp > 0 {
			s.parkRunLocked(pp)
		}
		queued += pp
		direct += dd
		ringEmpty := dd < len(dst) && pp < len(s.parkNs)
		if out != nil {
			dst = dst[dd:]
		} else if dd > 0 {
			s.q.EnqueueBatch(dst[:dd], s.dueRanks[:dd])
			queued += dd
		}
		if ringEmpty {
			break
		}
	}
	if queued+direct > 0 {
		// qlen is credited before the ring consumption is published, so
		// concurrent Len readers only ever overcount.
		s.qlen.Add(int64(queued))
		s.ring.publish()
	}
	return queued, direct
}

// enqueuePubsLocked moves a staged run that never made it into the ring
// (a Producer's ring-full fallback) into the front stage, converting
// through the flush scratch so the backend still sees whole runs. Callers
// hold mu and settle qlen themselves.
//
//eiffel:locked(mu)
//eiffel:hotpath
func (s *shard) enqueuePubsLocked(pubs []pub) {
	for len(pubs) > 0 {
		k := len(s.parkNs)
		if k > len(pubs) {
			k = len(pubs)
		}
		for j := 0; j < k; j++ {
			s.parkNs[j], s.parkK1[j], s.parkK2[j] = pubs[j].n, pubs[j].rank, pubs[j].aux
		}
		s.parkRunLocked(k)
		pubs = pubs[k:]
	}
}

// Snapshot is a point-in-time copy of the runtime's operational counters.
type Snapshot struct {
	// RingPushes counts enqueues that took the lock-free fast path
	// (slots claimed, whether one at a time or in bulk).
	RingPushes uint64
	// RingFull counts enqueues that found their ring full and flushed it
	// into the bucketed queue themselves, under the shard lock.
	RingFull uint64
	// BulkClaims counts pushN calls that claimed at least one slot — the
	// number of tail CASes the batched producer path performed.
	BulkClaims uint64
	// BulkClaimed counts slots claimed through pushN. BulkClaimed /
	// BulkClaims is the producer-side amortization factor: how many
	// enqueues each CAS carried.
	BulkClaimed uint64
	// Flushes counts ring drains that moved at least one element into a
	// bucketed queue (producer fallback and consumer side).
	Flushes uint64
	// Flushed counts elements moved from rings into bucketed queues.
	Flushed uint64
	// Direct counts elements released straight from a ring by the timer
	// rule's due-bypass, never touching a bucketed queue.
	Direct uint64
	// Migrated counts elements that entered a scheduler behind a shaper
	// stage when their release time arrived (zero with no shaper stage).
	Migrated uint64
	// Batches counts GroupDequeueBatch calls that returned at least one
	// node.
	Batches uint64
	// Batched counts nodes returned by GroupDequeueBatch.
	Batched uint64
	// Rejected counts elements refused by the bounded-admission paths
	// (zero unless a shard bound is set or the runtime is closed).
	Rejected uint64
}

// String renders the counters compactly for experiment tables.
func (s Snapshot) String() string {
	avg := 0.0
	if s.Batches > 0 {
		avg = float64(s.Batched) / float64(s.Batches)
	}
	out := fmt.Sprintf("pushes=%d ringfull=%d flushes=%d flushed=%d direct=%d batches=%d avg-batch=%.1f",
		s.RingPushes, s.RingFull, s.Flushes, s.Flushed, s.Direct, s.Batches, avg)
	if s.BulkClaims > 0 {
		out += fmt.Sprintf(" bulk-claims=%d avg-claim=%.1f",
			s.BulkClaims, float64(s.BulkClaimed)/float64(s.BulkClaims))
	}
	if s.Migrated > 0 {
		out += fmt.Sprintf(" migrated=%d", s.Migrated)
	}
	if s.Rejected > 0 {
		out += fmt.Sprintf(" rejected=%d", s.Rejected)
	}
	return out
}

// Core is the sharded multi-producer runtime: flows hash to one of N
// shards, each a lock-free publication ring in front of an optional
// time-indexed shaper stage and a pluggable Scheduler. Every element
// travels as (node, k1, k2): without a shaper stage k1 is the scheduler
// rank and k2 the aux word an AuxScheduler receives; with one, k1 is the
// release time the shaper gates on and k2 the scheduler priority — the
// multi-producer scaling of the paper's decoupled shaping (§3.2.2,
// Figure 8). An element is never released before its release bucket, and
// among released elements the cross-shard merge preserves scheduler
// priority order to bucket granularity. Q and Shaped are the two typed
// views of it.
//
// Enqueue is safe from any number of goroutines concurrently. The
// consuming side is partitioned into consumer groups (default 1): each
// group owns a disjoint contiguous slice of the shards, and each group's
// drain surface (GroupDequeueBatch, GroupPeek, GroupFlush) must be driven
// by a single goroutine at a time — one drain worker per group, exactly
// like one NIC TX queue's softirq. Distinct groups may be driven
// concurrently, each on its own clock value, with no synchronization
// between their workers beyond the per-shard state they never share; flows
// never span groups, so per-flow release gating and priority order are
// exactly the single-consumer order regardless of clock skew. The group
// drain is the only way elements leave.
type Core struct {
	shards    []shard
	shardBits uint
	pair      PairFunc // non-nil iff the shards carry a shaper stage
	timer     bool     // ranks are release times: drains take the due-bypass

	// bound is the per-shard occupancy cap (0 = unbounded); rejected counts
	// refusals runtime-wide. Both are dead weight unless a bound is set.
	bound    int64
	rejected stats.Counter

	// closed quiesces the refusable admission paths (see Close): once set,
	// TryEnqueue and FlushAdmit refuse everything with PushClosed.
	closed atomic.Bool

	// admitting counts refusable admissions in flight between their closed
	// check and their publication (or refusal). A closing drain waits for
	// it to reach zero (AdmitIdle) before trusting Len: a producer that
	// passed the closed check pre-Close may publish arbitrarily late, and
	// a drain that exited on Len()==0 alone would strand that packet in a
	// closed front.
	admitting atomic.Int64

	// groups holds each consumer group's private drain state; groupShift
	// maps a shard index to its owning group (shard >> groupShift).
	groups     []groupState
	groupShift uint

	// prodPool recycles staging Producers for the one-shot EnqueueBatch
	// surface, so batch admission stays allocation-free in steady state
	// without a per-goroutine handle.
	prodPool sync.Pool

	// Consumer-side and amortized batch counters; the per-element
	// producer fast path is kept free of bookkeeping atomics (pushes are
	// derived from the ring cursors), and the batched path bumps the bulk
	// counters once per claim, not per element.
	ringFull    stats.Counter
	flushes     stats.Counter
	flushed     stats.Counter
	direct      stats.Counter
	migrated    stats.Counter
	batches     stats.Counter
	batched     stats.Counter
	bulkClaims  stats.Counter
	bulkClaimed stats.Counter
}

type headState struct {
	rank  uint64
	ok    bool
	gen   uint32
	valid bool
}

// groupState is one consumer group's private drain state: the cached head
// ranks for the shards it owns and — with a shaper stage — the group's own
// migration scratch (group workers migrate concurrently, so the scratch
// cannot be shared). Each group is driven by (at most) one worker
// goroutine, and workers for distinct groups run concurrently, so the
// struct is padded to keep one worker's cache traffic off its neighbors'.
type groupState struct {
	lo, hi int // the half-open shard index range this group owns

	// heads[i-lo] caches shard i's scheduler head — the merge input, plus
	// the staleness stamp (gen, valid) for the whole shard. release[i-lo]
	// caches shard i's soonest shaper release time (rank and ok only); nil
	// without a shaper stage.
	heads   []headState
	release []headState

	migNs    []*bucket.Node // migration staging: a due run's handles and
	migRanks []uint64       // scheduler ranks, as the shaper copied them out

	_ [64]byte
}

// newCore builds the runtime; shard, group and ring sizes round up to
// powers of two (defaults 8 shards, 1 group, 1<<10 slots).
func newCore(cfg config) *Core {
	if cfg.shards <= 0 {
		cfg.shards = 8
	}
	if cfg.shards&(cfg.shards-1) != 0 {
		cfg.shards = 1 << bits.Len(uint(cfg.shards))
	}
	if cfg.ringBits == 0 {
		cfg.ringBits = 10
	}
	if cfg.groups <= 0 {
		cfg.groups = 1
	}
	if cfg.groups&(cfg.groups-1) != 0 {
		cfg.groups = 1 << bits.Len(uint(cfg.groups))
	}
	if cfg.groups > cfg.shards {
		cfg.groups = cfg.shards
	}
	c := &Core{
		shards:    make([]shard, cfg.shards),
		shardBits: uint(bits.TrailingZeros(uint(cfg.shards))),
		pair:      cfg.pair,
		timer:     cfg.timer,
		bound:     int64(cfg.bound),
	}
	per := cfg.shards / cfg.groups
	c.groupShift = uint(bits.TrailingZeros(uint(per)))
	c.groups = make([]groupState, cfg.groups)
	for g := range c.groups {
		gr := &c.groups[g]
		gr.lo, gr.hi, gr.heads = g*per, (g+1)*per, make([]headState, per)
		if cfg.pair != nil {
			gr.release = make([]headState, per)
			gr.migNs = make([]*bucket.Node, flushChunk)
			gr.migRanks = make([]uint64, flushChunk)
		}
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.ring = newRing(cfg.ringBits)
		s.q = cfg.sched(i)
		//eiffel:allow(lockcheck) construction: the shard is not shared until newCore returns
		s.parkNs = make([]*bucket.Node, flushChunk)
		//eiffel:allow(lockcheck) construction: the shard is not shared until newCore returns
		s.parkK1 = make([]uint64, flushChunk)
		//eiffel:allow(lockcheck) construction: the shard is not shared until newCore returns
		s.parkK2 = make([]uint64, flushChunk)
		if cfg.pair == nil {
			s.qa, _ = s.q.(AuxScheduler)
			continue
		}
		s.shaper = ffsq.NewShaperStore(cfg.shaper.NumBuckets, cfg.shaper.Granularity, cfg.shaper.Start)
		//eiffel:allow(lockcheck) construction: the shard is not shared until newCore returns
		s.dueNs = make([]*bucket.Node, flushChunk)
		//eiffel:allow(lockcheck) construction: the shard is not shared until newCore returns
		s.dueRanks = make([]uint64, flushChunk)
	}
	c.prodPool.New = func() any { return c.NewProducer(0) }
	return c
}

// NumShards returns the shard count.
func (c *Core) NumShards() int { return len(c.shards) }

// NumGroups returns the consumer-group count.
func (c *Core) NumGroups() int { return len(c.groups) }

// GroupShards returns the half-open shard index range consumer group g
// owns. Groups partition the shards contiguously and evenly.
//
//eiffel:hotpath
func (c *Core) GroupShards(g int) (lo, hi int) { return c.groups[g].lo, c.groups[g].hi }

// GroupFor returns the consumer group that drains flow's shard. Flows
// never span shards, so a flow's packets are only ever drained by this
// one group's worker.
func (c *Core) GroupFor(flow uint64) int { return c.ShardFor(flow) >> c.groupShift }

// WithShardLocked runs fn on shard i's scheduler under that shard's lock —
// the synchronization context every backend method normally runs in.
// Backend owners (the qdisc front) use it to touch backend state outside
// the runtime's own locked paths (eviction epochs, timer peeks), which
// would otherwise race a producer's ring-full fallback flush into the
// same backend. fn must not call back into c.
//
//eiffel:acquires(shard)
func (c *Core) WithShardLocked(i int, fn func(Scheduler)) {
	s := &c.shards[i]
	s.mu.Lock()
	fn(s.q)
	s.mu.Unlock()
}

// Len returns the number of queued elements (published but not yet
// dequeued), wherever they sit: ring, shaper, or scheduler. Safe from any
// goroutine; while producers and the consumer are running it may
// transiently overcount by up to one in-flight batch, and it is exact
// whenever the runtime is quiescent.
//
//eiffel:hotpath
func (c *Core) Len() int { return c.occupancy(0, len(c.shards)) }

// GroupLen is Len restricted to consumer group g's shards. Safe from any
// goroutine, same transient-overcount contract as Len; the stall watchdog
// reads it as the group's backlog.
//
//eiffel:hotpath
func (c *Core) GroupLen(g int) int { return c.occupancy(c.groups[g].lo, c.groups[g].hi) }

//eiffel:hotpath
func (c *Core) occupancy(lo, hi int) int {
	var n int64
	for i := lo; i < hi; i++ {
		s := &c.shards[i]
		n += s.ring.occupancy() + s.qlen.Load()
	}
	return int(n)
}

// Stats returns a snapshot of the operational counters.
func (c *Core) Stats() Snapshot {
	var pushes uint64
	for i := range c.shards {
		pushes += c.shards[i].ring.pushes()
	}
	return Snapshot{
		RingPushes:  pushes,
		RingFull:    c.ringFull.Load(),
		BulkClaims:  c.bulkClaims.Load(),
		BulkClaimed: c.bulkClaimed.Load(),
		Flushes:     c.flushes.Load(),
		Flushed:     c.flushed.Load(),
		Direct:      c.direct.Load(),
		Migrated:    c.migrated.Load(),
		Batches:     c.batches.Load(),
		Batched:     c.batched.Load(),
		Rejected:    c.rejected.Load(),
	}
}

// ShardFor returns the shard index flow hashes to.
//
//eiffel:hotpath
func (c *Core) ShardFor(flow uint64) int {
	// Fibonacci hashing spreads clustered flow ids (sequential allocation
	// is the common case) uniformly over the shard bits.
	return int((flow * 0x9E3779B97F4A7C15) >> (64 - c.shardBits))
}

// Enqueue publishes (n, k1, k2) on flow's shard. The fast path is one
// lock-free ring push and no other shared-memory writes — the producer
// resolves both keys while the element is cache-hot and the consumer never
// has to. When the shard's ring is full the producer drains it into the
// front stage itself — backpressure that keeps the ring bounded without
// dropping or blocking.
//
//eiffel:hotpath
func (c *Core) Enqueue(flow uint64, n *bucket.Node, k1, k2 uint64) {
	c.enqueueShard(&c.shards[c.ShardFor(flow)], n, k1, k2)
}

// enqueueShard is the shard-resolved body of Enqueue, shared with the
// bounded TryEnqueue path so the bound check does not hash twice.
//
//eiffel:hotpath
func (c *Core) enqueueShard(s *shard, n *bucket.Node, k1, k2 uint64) {
	if s.ring.push(n, k1, k2) {
		return
	}
	s.mu.Lock()
	drained := s.flushFallbackLocked()
	s.parkNs[0], s.parkK1[0], s.parkK2[0] = n, k1, k2
	s.parkRunLocked(1)
	s.qlen.Add(1)
	s.fallbackGen.Add(1) // tell the consumer its cached heads are stale
	s.mu.Unlock()
	c.ringFull.Inc()
	c.noteFlush(drained)
}

//eiffel:hotpath
func (c *Core) noteFlush(drained int) {
	if drained > 0 {
		c.flushes.Inc()
		c.flushed.Add(uint64(drained))
	}
}

// EnqueueBatch publishes (ns[i], k1s[i], k2s[i]) on flows[i]'s shard, for
// every i, through a pooled staging Producer: elements are grouped per
// shard and each group lands as one multi-slot ring claim (a single CAS)
// instead of len(ns) independent pushes. A nil k2s publishes zeros. Safe
// from any number of goroutines concurrently, and allocation-free in
// steady state. Everything is published by the time it returns — the
// post-condition matches a loop of Enqueue calls. Producers with a batch
// stream of their own should hold a NewProducer handle instead and flush
// on their own schedule.
//
//eiffel:hotpath
func (c *Core) EnqueueBatch(flows []uint64, ns []*Node, k1s, k2s []uint64) {
	p := c.prodPool.Get().(*Producer)
	for i, n := range ns {
		k2 := uint64(0)
		if k2s != nil {
			k2 = k2s[i]
		}
		p.Enqueue(flows[i], n, k1s[i], k2)
	}
	p.Flush()
	c.prodPool.Put(p)
}

// settle brings shard i (owned by gr) up to date at the consumer clock
// now and refreshes its cached heads: the ring flushes, and behind a
// shaper stage every element whose release time is at or below now moves
// into the scheduler. The shaper's own due elements move FIRST, and only
// then do already-due ring entries go straight to the scheduler: the ring
// is younger than everything parked, so the other order lets a packet
// whose ring wait straddled its release time overtake its parked
// predecessor of the same flow. The whole pass runs under one lock
// acquisition with whole-bucket batch pops on the shaper side. It is
// skipped when nothing could have changed since the cached heads were
// taken: an empty ring, no producer fallback, no invalidation by the
// consumer's own spills, and a shaper head not yet due.
// Group-worker-side.
//
//eiffel:hotpath
func (c *Core) settle(gr *groupState, i int, now uint64) {
	s := &c.shards[i]
	h := &gr.heads[i-gr.lo]
	var rel *headState
	if s.shaper != nil {
		rel = &gr.release[i-gr.lo]
	}
	if h.valid && s.ring.empty() && h.gen == s.fallbackGen.Load() &&
		(rel == nil || !rel.ok || rel.rank > now) {
		return
	}
	s.mu.Lock()
	drained, moved := 0, 0
	if rel == nil {
		drained = s.flushLocked()
	} else {
		for {
			k := s.shaper.DequeueBatch(now, gr.migNs, gr.migRanks)
			if k == 0 {
				break
			}
			// The run is already (handle, rank) by value: re-address each
			// handle to its scheduler twin and hand it over in one call.
			for j, n := range gr.migNs[:k] {
				gr.migNs[j] = c.pair(n)
			}
			s.q.EnqueueBatch(gr.migNs[:k], gr.migRanks[:k])
			moved += k
		}
		var direct int
		drained, direct = s.flushDueLocked(c.pair, now, nil)
		moved += direct
		rel.rank, rel.ok = s.shaper.Min()
	}
	h.rank, h.ok = s.q.Min()
	h.gen = s.fallbackGen.Load() // exact: fallbacks also hold mu
	h.valid = true
	s.mu.Unlock()
	if moved > 0 {
		c.migrated.Add(uint64(moved))
	}
	c.noteFlush(drained)
}

// drainTimer is a timer runtime's drain, the ordered due-bypass: serve
// everything due that is already settled in the group's queues (the
// cross-shard merge, heads refreshed, rings untouched), and only then pop
// the rings — entries already due go straight into out and never touch a
// queue, the rest park in staged runs. Settled-first is the whole ordering
// argument: a flow's release times never decrease and a shard's queue is
// older than its ring, so once the queue holds nothing due, no due ring
// entry has a queued predecessor — per-flow order is exact, and a settled
// element is never starved by ring traffic. That rests on the queue's Min
// never answering late: the store clamps a release time that arrives behind
// its window into a bucket already due (ffsq.Window, W2). Across flows,
// elements first seen overdue come out in arrival order behind every
// settled one: Carousel's "now slot", which among release times already
// past carries no policy meaning. They are gated on the exact release time,
// stricter than a queue's bucket start. A ring its neighbours starve fills,
// its producers settle it into the queue, and settled-first serves it: the
// wait is bounded by the ring size. Group-worker-side.
//
//eiffel:hotpath
func (c *Core) drainTimer(gr *groupState, due uint64, out []*bucket.Node) int {
	total := 0
	for again := true; again && total < len(out); {
		for i := gr.lo; i < gr.hi; i++ {
			if s, h := &c.shards[i], &gr.heads[i-gr.lo]; !h.valid || h.gen != s.fallbackGen.Load() {
				s.mu.Lock()
				h.rank, h.ok = s.q.Min()
				h.gen, h.valid = s.fallbackGen.Load(), true // exact: fallbacks also hold mu
				s.mu.Unlock()
			}
		}
		total += c.mergeRuns(gr, due, out[total:])
		again = false
		for i := gr.lo; i < gr.hi && total < len(out); i++ {
			s, h := &c.shards[i], &gr.heads[i-gr.lo]
			if s.ring.empty() {
				continue
			}
			s.mu.Lock()
			queued, direct := 0, 0
			if h.gen != s.fallbackGen.Load() {
				// A producer's fallback settled elements since the merge
				// looked: they are older than the ring's and come first.
				again = true
			} else {
				queued, direct = s.flushDueLocked(nil, due, out[total:])
			}
			if queued > 0 {
				h.rank, h.ok = s.q.Min()
			}
			s.mu.Unlock()
			total += direct
			c.direct.Add(uint64(direct))
			c.noteFlush(queued)
		}
	}
	return total
}

// GroupFlush drains every ring in group g into its front stage, migrates
// everything due at now, and re-peeks the group's cached heads
// unconditionally — backend owners call it after changing what a backend's
// Min would answer (a clock advance waking a stalled engine).
// Group-worker-side: safe concurrently with other groups' workers.
//
//eiffel:hotpath
func (c *Core) GroupFlush(g int, now uint64) {
	gr := &c.groups[g]
	for i := gr.lo; i < gr.hi; i++ {
		gr.heads[i-gr.lo].valid = false
		c.settle(gr, i, now)
	}
}

// GroupPeek settles group g at now and reports what its worker should
// wait for — the group's aggregate NextTimer. When any of the group's
// schedulers holds an element, rank is the minimum bucket-quantized
// scheduler head and inSched is true: nothing gates that element but the
// caller's own drain bound. Otherwise rank is the soonest release time
// across the group's shapers. ok=false means neither stage holds
// anything. Group-worker-side.
//
//eiffel:hotpath
func (c *Core) GroupPeek(g int, now uint64) (rank uint64, inSched, ok bool) {
	gr := &c.groups[g]
	for i := gr.lo; i < gr.hi; i++ {
		c.settle(gr, i, now)
	}
	if rank, ok = minHead(gr.heads); ok {
		return rank, true, true
	}
	rank, ok = minHead(gr.release)
	return rank, false, ok
}

//eiffel:hotpath
func minHead(heads []headState) (min uint64, ok bool) {
	for i := range heads {
		if h := &heads[i]; h.ok && (!ok || h.rank < min) {
			min, ok = h.rank, true
		}
	}
	return min, ok
}

// GroupDequeueBatch settles consumer group g at now (rings flush, due
// elements migrate shaper→scheduler), then pops up to len(out) elements
// whose bucket-quantized scheduler rank is <= maxRank from the group's
// shards and returns how many it wrote. It repeatedly serves a run from
// the group shard with the minimum head rank — the run ends when that
// shard's head climbs past the runner-up shard's head, so the merged
// sequence preserves the group's priority order to bucket granularity. A
// timer runtime merges what its queues hold the same way and then releases
// ring entries at or below maxRank directly (drainTimer). Behind a shaper
// stage a returned node is always the element's PAIRED scheduler handle
// (elements reach a scheduler only through the pairing); recover the
// element through Data, which both handles share, or by the handle's owner
// offset when the pairing is an embedded field.
//
// Group-worker-side: distinct groups may call this concurrently, each
// with its own clock value. Because a flow's shard belongs to exactly one
// group, the per-flow dequeue order each worker observes is identical to
// the single-consumer runtime's; only the interleaving ACROSS groups is
// scheduling-dependent.
//
//eiffel:hotpath
func (c *Core) GroupDequeueBatch(g int, now, maxRank uint64, out []*bucket.Node) int {
	if len(out) == 0 {
		return 0
	}
	gr := &c.groups[g]
	var total int
	if c.timer {
		total = c.drainTimer(gr, maxRank, out)
	} else {
		for i := gr.lo; i < gr.hi; i++ {
			c.settle(gr, i, now)
		}
		total = c.mergeRuns(gr, maxRank, out)
	}
	if total > 0 {
		c.batches.Inc()
		c.batched.Add(uint64(total))
	}
	return total
}

// mergeRuns is the cross-shard priority merge: it repeatedly serves a run
// from the group shard whose cached scheduler head is the minimum, bounded
// by the runner-up shard's head (up to there no other shard can hold a
// smaller element) and by maxRank, until out fills or nothing at or below
// maxRank remains. The best shard and the runner-up bound come out of ONE
// pass over the heads, tracking the minimum and second-minimum together.
// Every run re-reads the served shard's head before the next pass — the
// loop's progress argument: a run that pops nothing still raises the
// shard's cached head past the limit (the Scheduler progress rule), and a
// backend that re-ranks between calls may report a different head each
// time. Producers cannot disturb the merge — they only ever publish into
// rings and front stages, and this batch's settle pass is done — so the
// cached heads are exact for the whole drain.
//
//eiffel:hotpath
func (c *Core) mergeRuns(gr *groupState, maxRank uint64, out []*bucket.Node) int {
	heads := gr.heads
	total := 0
	for total < len(out) {
		best, second := -1, ^uint64(0)
		for i := range heads {
			if !heads[i].ok {
				continue
			}
			if best < 0 || heads[i].rank < heads[best].rank {
				if best >= 0 {
					second = heads[best].rank // displaced minimum becomes runner-up
				}
				best = i
			} else if heads[i].rank < second {
				second = heads[i].rank
			}
		}
		if best < 0 || heads[best].rank > maxRank {
			break
		}
		limit := maxRank
		if second < limit {
			limit = second
		}
		s := &c.shards[gr.lo+best]
		s.mu.Lock()
		popped := s.q.DequeueBatch(limit, out[total:])
		s.qlen.Add(int64(-popped))
		heads[best].rank, heads[best].ok = s.q.Min()
		s.mu.Unlock()
		total += popped
	}
	return total
}
