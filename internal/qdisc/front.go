package qdisc

import (
	"math/bits"
	"sync"

	"eiffel/internal/pkt"
	"eiffel/internal/shardq"
)

// This file is the one qdisc front over the sharded runtime
// (shardq.Core): flows hash to one of N shards, each a lock-free MPSC ring
// in front of an optional shaper stage and a per-shard Scheduler, and the
// shards partition into G consumer groups — one drain worker per NIC TX
// queue. Flow-hash confinement means a flow's shard — and therefore the
// flow itself — belongs to exactly one group, so per-flow dequeue order is
// identical to the single-consumer qdisc with ZERO cross-worker
// synchronization on the hot path; only the interleaving across groups
// (across TX queues, where ordering never held on the wire anyway) is
// relaxed. Everything a configuration does NOT decide lives here exactly
// once: batch admission through pooled producers, bounded-admission
// accounting, the node→packet drain, and the Serve/Close/Drain/CloseForce
// lifecycle. What a configuration DOES decide is its pubRule — which
// packet handle and which two key words ride the ring — plus, for
// schedulers whose eligibility depends on a clock, the ClockedScheduler
// list the front pushes its workers' clocks into. The presets
// (NewMultiSharded, NewMultiShaped, NewPolicySharded, NewHierSharded) pick
// a runtime, a rule, and nothing else.

// pubRule is a configuration's publication rule: the (handle, k1, k2)
// triple Enqueue publishes for a packet. It also fixes the drain bound —
// the timer rule's scheduler ranks ARE release times, so its drains are
// bounded by the worker's clock; every other rule drains unbounded and
// leaves gating to a shaper stage or a clocked backend — and which handle
// a drain hands back (the timer rule's TimerNode; everything else reaches
// its scheduler on the SchedNode).
type pubRule uint8

const (
	pubTimer  pubRule = iota // TimerNode, SendAt, 0 — per-shard timer queue
	pubShaped                // TimerNode, SendAt, Rank — shaper stage, then scheduler
	pubPolicy                // SchedNode, Rank, Flow — packet-free flow leaf
	pubHier                  // SchedNode, Rank, tenant(Class)|Size<<32 — hClock engine (shardq.HierAux)
)

// drainChunk sizes the node→packet conversion scratch: GroupDequeueBatch
// drains in chunks that stay cache-resident, so the conversion reads each
// node's line right after the runtime's drain touched it, instead of
// revisiting a large batch after its head has been evicted.
const drainChunk = 256

// frontGroup is one consumer group's qdisc-side drain state: the group's
// last-propagated clock and its node→packet conversion scratch. Padded so
// concurrent group workers never false-share.
type frontGroup struct {
	lastNow int64
	scratch []*shardq.Node
	_       [64]byte
}

// Front is the sharded qdisc. Enqueue, TryEnqueue, EnqueueBatch and
// EnqueueBatchAdmit are safe from any number of producer goroutines and
// lock-free in the common case. Packets leave through one surface, the
// group drain (GroupDequeueBatch, GroupNextTimer; what ServeWith's workers,
// Drain and CloseForce drive): safe concurrently across DISTINCT groups,
// one goroutine per group at a time, each passing its own clock.
type Front struct {
	rt   *shardq.Core
	name string
	pub  pubRule

	// clocked lists shard i's backend when eligibility depends on the
	// consumer clock (hClock engines); nil otherwise. The front pushes
	// each group worker's clock into that group's backends before every
	// drain and peeks their next event when a backlogged group has
	// nothing servable.
	clocked []shardq.ClockedScheduler

	groups []frontGroup

	// bells is one doorbell per consumer group, rung by every admission
	// path after publishing (serve.go). shard>>bellShift is the shard's
	// group: Core.GroupFor's mapping, on the allocation-checked hot path.
	bells     []doorbell
	bellShift uint

	// prodPool recycles runtime staging handles for EnqueueBatch, so batch
	// admission is concurrent-producer-safe and allocation-free in steady
	// state without threading per-goroutine handles through the enqueue
	// surface.
	prodPool sync.Pool

	admitState

	// Lifecycle and conservation accounting (State/Egress/Admitted/
	// Released promote from here); see lifecycle.go.
	egressState

	// Pads Front to whole cache lines (five): its allocation is then
	// line-aligned, so no other object shares its lines and the
	// producers' admitted counter never shares one with the workers'
	// egress counters. TestFrontCacheLines holds both.
	_ [56]byte
}

// newFront wraps rt; dropTenants sizes the per-tenant drop buckets.
func newFront(rt *shardq.Core, name string, pub pubRule, pol AdmitPolicy, dropTenants int) *Front {
	f := &Front{
		rt: rt, name: name, pub: pub,
		groups:     make([]frontGroup, rt.NumGroups()),
		bells:      make([]doorbell, rt.NumGroups()),
		bellShift:  uint(bits.TrailingZeros(uint(rt.NumShards() / rt.NumGroups()))),
		admitState: newAdmitState(pol, dropTenants),
	}
	for g := range f.groups {
		f.groups[g].scratch = make([]*shardq.Node, drainChunk)
		f.bells[g].ch = make(chan struct{}, 1)
	}
	f.prodPool.New = func() any { return rt.NewProducer(0) }
	return f
}

// Name returns the configuration's name.
func (f *Front) Name() string { return f.name }

// Len returns the packets published but not yet drained, wherever they
// sit — ring, shaper, or scheduler. While producers and group workers run
// concurrently Len may transiently overcount by up to one in-flight batch
// (ring occupancy is published per drain, not per element); it is exact
// whenever the qdisc is quiescent. Callers that need an exact count must
// therefore read it with producers and workers stopped — the contract the
// concurrent tests and the lifecycle drain rely on.
//
//eiffel:hotpath
func (f *Front) Len() int { return f.rt.Len() }

// Stats returns the runtime's shard/migration/batch counters.
func (f *Front) Stats() shardq.Snapshot { return f.rt.Stats() }

// NumShards returns the shard count.
func (f *Front) NumShards() int { return f.rt.NumShards() }

// NumGroups returns the consumer-group count.
func (f *Front) NumGroups() int { return f.rt.NumGroups() }

// GroupFor returns the consumer group that drains flow's shard — the only
// group whose worker ever releases that flow's packets.
func (f *Front) GroupFor(flow uint64) int { return f.rt.GroupFor(flow) }

// GroupLen returns consumer group g's queued-but-undrained packet count
// (the watchdog's backlog signal). Safe from any goroutine, same
// transient-overcount contract as Len.
func (f *Front) GroupLen(g int) int { return f.rt.GroupLen(g) }

// key applies the publication rule: every word the consumer will need is
// read here, while the packet is the producer's hot cache line, so the
// consumer loads no packet memory to enqueue — nor, under pubHier, to drain.
//
//eiffel:hotpath
func (f *Front) key(p *pkt.Packet) (n *shardq.Node, k1, k2 uint64) {
	switch f.pub {
	case pubTimer:
		return &p.TimerNode, uint64(p.SendAt), 0
	case pubShaped:
		return &p.TimerNode, uint64(p.SendAt), p.Rank
	case pubPolicy:
		return &p.SchedNode, p.Rank, p.Flow
	default: // pubHier
		return &p.SchedNode, p.Rank, shardq.HierAux(uint32(p.Class), p.Size)
	}
}

// Enqueue admits one packet: it publishes on its flow's shard (one
// lock-free ring push); the shard's stages see it when the element is
// flushed ring→backend by the consumer, or by a producer whose ring
// filled. Safe for concurrent producers. now must be non-negative.
// Infallible — it cannot refuse, so it must not be called after Close (use
// TryEnqueue for producers that race the lifecycle).
//
//eiffel:hotpath
func (f *Front) Enqueue(p *pkt.Packet, now int64) {
	flow := p.Flow // read before publishing: a published packet is the consumer's
	n, k1, k2 := f.key(p)
	f.rt.Enqueue(flow, n, k1, k2)
	f.admit(1)
	f.ring(f.rt.ShardFor(flow) >> f.bellShift)
}

// TryEnqueue admits one packet unless the front is closed (or its shard
// is at a configured occupancy bound) and reports the outcome. Safe for
// concurrent producers; the refusal path is how producers observe Close.
//
//eiffel:hotpath
func (f *Front) TryEnqueue(p *pkt.Packet, now int64) bool {
	flow := p.Flow
	n, k1, k2 := f.key(p)
	if !f.rt.TryEnqueue(flow, n, k1, k2) {
		return false
	}
	f.admit(1)
	f.ring(f.rt.ShardFor(flow) >> f.bellShift)
	return true
}

// stage stages ps on a pooled producer under the publication rule.
//
//eiffel:hotpath
func (f *Front) stage(ps []*pkt.Packet) *shardq.Producer {
	b := f.prodPool.Get().(*shardq.Producer)
	for _, p := range ps {
		n, k1, k2 := f.key(p)
		b.Enqueue(p.Flow, n, k1, k2)
	}
	return b
}

// EnqueueBatch admits a whole run of packets at once: packets stage into
// per-shard buffers and each shard's run is published as one multi-slot
// ring claim, amortizing the CAS, the publication barrier, and the flow
// hash dispatch over the run. Safe for concurrent producers (each call
// borrows its own staging handle from an internal pool) and equivalent to
// enqueueing the packets one by one — everything is published on return.
// Infallible, like Enqueue: not for use after Close.
//
//eiffel:hotpath
func (f *Front) EnqueueBatch(ps []*pkt.Packet, now int64) {
	b := f.stage(ps)
	// FlushAdmit instead of Flush for the admitted count alone: with no
	// bound and the front open nothing is ever refused, and a post-Close
	// misuse at least keeps the conservation identity honest.
	f.admit(b.FlushAdmit().Admitted)
	f.prodPool.Put(b)
	f.ringAll()
}

// EnqueueBatchAdmit is EnqueueBatch under the configured shard bound. It
// returns how many packets were admitted and appends the refused packets,
// in offer order, to rej (pass a reusable buffer to keep the path
// allocation-free). With no bound configured everything is admitted.
//
//eiffel:hotpath
func (f *Front) EnqueueBatchAdmit(ps []*pkt.Packet, now int64, rej []*pkt.Packet) (int, []*pkt.Packet) {
	b := f.stage(ps)
	res := b.FlushAdmit()
	// Refused nodes are the handle the rule PUBLISHED, not the one a drain
	// returns.
	fromNode := pkt.FromSchedNode
	if f.pub == pubTimer || f.pub == pubShaped {
		fromNode = pkt.FromTimerNode
	}
	admitted, rej := f.settle(res, len(ps), fromNode, rej)
	f.admit(admitted)
	f.prodPool.Put(b)
	f.ringAll()
	return admitted, rej
}

// advanceGroupClock propagates group g's worker clock into that group's
// clocked backends so dequeue-side eligibility (hClock limit and
// reservation clocks) sees it. A backend
// whose answer to Min the advance invalidated — it had stalled with
// backlog parked behind a gate, or a reservation came due — says so, and
// the group's cached merge heads are re-peeked. The backends' clocks are
// atomics, so this costs a load-compare (and, when the clock moved, a
// store pair) per shard — no shard locks, even though producers whose
// rings filled read the same fields on their fallback flush paths.
// Group-worker-side: each group's clock advances independently, and a
// backend only ever belongs to one group.
//
//eiffel:hotpath
func (f *Front) advanceGroupClock(g int, now int64) {
	gs := &f.groups[g]
	if f.clocked == nil || now == gs.lastNow {
		return
	}
	gs.lastNow = now
	lo, hi := f.rt.GroupShards(g)
	repeek := false
	for _, b := range f.clocked[lo:hi] {
		if b.SetNow(now) {
			repeek = true
		}
	}
	if repeek {
		f.rt.GroupFlush(g, uint64(now))
	}
}

// GroupDequeueBatch pops up to len(out) release-eligible packets from
// consumer group g's shards in the group's merged scheduler order and
// returns how many it wrote: rings flush, due packets migrate
// shaper→scheduler at now, and the group's schedulers merge by head rank.
// Per-flow order (release gating, policy ranking, in-tenant order) is
// EXACT — identical to the single-consumer qdisc — because a flow's whole
// backlog lives in one shard of one group. Group-worker-side: distinct
// groups concurrently, one goroutine per group at a time, each passing
// its own clock.
//
//eiffel:hotpath
func (f *Front) GroupDequeueBatch(g int, now int64, out []*pkt.Packet) int {
	f.advanceGroupClock(g, now)
	bound := ^uint64(0)
	if f.pub == pubTimer {
		bound = uint64(now)
	}
	scratch := f.groups[g].scratch
	k := 0
	for k < len(out) {
		nodes := scratch[:min(len(out)-k, drainChunk)]
		m := f.rt.GroupDequeueBatch(g, uint64(now), bound, nodes)
		if f.pub == pubTimer {
			for i := 0; i < m; i++ {
				out[k+i] = pkt.FromTimerNode(nodes[i])
			}
		} else {
			for i := 0; i < m; i++ {
				out[k+i] = pkt.FromSchedNode(nodes[i])
			}
		}
		k += m
		clear(nodes[:m]) // drop the handles: scratch must not pin released packets
		if m < len(nodes) {
			break
		}
	}
	return k
}

// GroupNextTimer returns when consumer group g next needs service: "now"
// whenever a release-eligible packet already sits in one of the group's
// schedulers — INCLUDING packets this very call's settle pass just made
// eligible (a due packet parked in the shaper, or still in a ring, must
// not wait behind a far-future "next release" answer) — otherwise the
// group's soonest deadline (shaper release, timer-queue head, or a gated
// backend's next event), clamped to now when it has already passed.
// ok=false means the group holds nothing. Group-worker-side.
func (f *Front) GroupNextTimer(g int, now int64) (int64, bool) {
	f.advanceGroupClock(g, now)
	r, inSched, ok := f.rt.GroupPeek(g, uint64(now))
	switch {
	case ok && inSched && f.pub != pubTimer:
		return now, true
	case ok:
		// A release time: a shaper head, or a timer-queue head.
		return max(int64(r), now), true
	case f.clocked == nil || f.rt.GroupLen(g) == 0:
		return 0, false
	}
	// Backlogged but nothing servable: every backend is gated. Peek each
	// one's next event under its shard lock — a producer fallback may be
	// enqueueing into the same backend concurrently.
	t, ok := int64(0), false
	lo, hi := f.rt.GroupShards(g)
	for i := lo; i < hi; i++ {
		b := f.clocked[i]
		f.rt.WithShardLocked(i, func(shardq.Scheduler) {
			if e, eok := b.NextEvent(); eok && (!ok || e < t) {
				t, ok = e, true
			}
		})
	}
	if !ok {
		return 0, false
	}
	return max(t, now), true
}

// ServeWith starts one supervised drain worker per consumer group: worker
// g loops GroupDequeueBatch at clock()'s current value and disposes every
// non-empty batch through sinks[g] (len(sinks) must equal NumGroups).
// clock must return monotonic nanoseconds, the unit SendAt is in. Sinks
// that implement FallibleSink get the full retry/backoff/deadline
// treatment. The returned Server reports per-group health (panic
// restarts, stall flags, backlog, sleeps) and owns the stop protocol:
// Stop halts the workers, waits for them to exit, and then DRAINS the
// remaining backlog to the same sinks through the graceful lifecycle — a
// stopped fleet leaves the front closed and exactly conserved, never with
// abandoned packets; StopForce releases the backlog instead of
// transmitting it. See ServeOptions for the retry, restart, and watchdog
// knobs.
//
// A worker with nothing to drain sleeps until its group's GroupNextTimer,
// clamped to [200 µs, 1 ms]; one whose group is empty parks a 200 µs floor
// that only a batch publication ends early, then until any publication to
// the group rings its doorbell. An idle group costs no CPU, and a paced
// packet leaves within a sleep's timer slack of its release time, not a
// polling interval after.
func (f *Front) ServeWith(clock func() int64, sinks []EgressSink, opt ServeOptions) *Server {
	if len(sinks) != f.NumGroups() {
		panic("qdisc: Serve needs one sink per consumer group")
	}
	s := &Server{
		f: f, clock: clock,
		sinks: append([]EgressSink(nil), sinks...), opt: opt.withDefaults(),
		stop:   make(chan struct{}),
		groups: make([]serverGroup, f.NumGroups()),
	}
	for g := range s.groups {
		s.wg.Add(1)
		go s.worker(g, s.sinks[g])
	}
	if s.opt.StallWindow > 0 {
		s.wg.Add(1)
		go s.watchdog()
	}
	return s
}

// Close quiesces admission: running → draining, and every subsequent
// TryEnqueue and EnqueueBatchAdmit (and runtime-level FlushAdmit) refuses
// with shardq.PushClosed, so producers drain to a stop while the queued
// backlog stays intact for Drain or CloseForce. The infallible
// Enqueue/EnqueueBatch paths are not gated. Idempotent; safe from any
// goroutine.
func (f *Front) Close() {
	// The runtime closes regardless of the CAS outcome: Close must quiesce
	// admission even when a concurrent closer won the transition.
	f.state.CompareAndSwap(int32(StateRunning), int32(StateDraining))
	f.rt.Close()
}
