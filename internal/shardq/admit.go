package shardq

// This file is the bounded-admission surface of the runtime. The default
// overload behavior of the sharded pipeline is to ADMIT EVERYTHING: a full
// ring spills into the bucketed queue under the shard lock, and the
// backend grows without bound. That is the right default for a closed
// replay, and exactly the wrong one for open-world traffic — the paper's
// indictment of kernel FQ is precisely that unbounded per-flow state
// (and the GC that tries to claw it back) falls over past a few tens of
// thousands of flows. Options.ShardBound arms the alternative: each
// shard's published occupancy (ring + bucketed queue) is capped, and the
// admission paths report refused elements back to the caller instead of
// spilling, so the layer above can choose drop-tail or backpressure.
//
// The bound is enforced against the shard's published occupancy and is
// exact for a single admitting goroutine; concurrent admitters can
// overshoot by their in-flight claims (each checks the bound before
// claiming, without reserving), which is the usual drop-tail tolerance —
// the cap bounds state to within one in-flight batch per producer, and
// accounting (admitted + refused == offered) is exact regardless.

// PushReason classifies why bounded admission refused elements.
type PushReason uint8

const (
	// PushNone: nothing was refused.
	PushNone PushReason = iota
	// PushShardFull: the element's shard was at its occupancy bound.
	PushShardFull
	// PushClosed: the runtime was closed (Close); admission is quiesced
	// for the drain and nothing is accepted regardless of occupancy.
	PushClosed
)

// String renders the reason for logs and tables.
func (r PushReason) String() string {
	switch r {
	case PushShardFull:
		return "shard-full"
	case PushClosed:
		return "closed"
	}
	return "none"
}

// Admit is the outcome of one bounded-admission flush: how many staged
// elements were published and, in refusal order, the ones that were not.
// Rejected aliases the producer's reusable refusal buffer — it stays
// valid until the next flush (explicit or automatic) on the same handle,
// so callers must consume or copy it before reusing the producer.
type Admit struct {
	// Admitted counts elements published since the last FlushAdmit.
	Admitted int
	// Rejected holds the refused elements in refusal order: grouped by the
	// shard that refused them (flush order), oldest first within a shard —
	// NOT the caller's offer order.
	Rejected []*Node
	// Reason classifies the refusals (PushNone when Rejected is empty).
	Reason PushReason
}

// admitState is a Producer's refusal bookkeeping. The rej buffer is reused
// across flush cycles: it is reset lazily on the first refusal after a
// FlushAdmit handed it out, so the returned Admit stays readable until the
// handle is used again.
type admitState struct {
	adm      int
	rej      []*Node
	reason   PushReason
	rejTaken bool
}

//eiffel:hotpath
func (a *admitState) refuse(pubs []pub, reason PushReason) {
	if a.rejTaken {
		a.rej = a.rej[:0]
		a.reason = PushNone
		a.rejTaken = false
	}
	// PushClosed dominates: a cycle that saw both a full shard and a
	// closed runtime reports closed — the terminal condition the producer
	// must react to (a full shard might drain; a closed runtime will not
	// reopen).
	if a.reason != PushClosed {
		a.reason = reason
	}
	for i := range pubs {
		a.rej = append(a.rej, pubs[i].n)
	}
}

//eiffel:hotpath
func (a *admitState) take() Admit {
	res := Admit{Admitted: a.adm}
	// A cycle with no refusals leaves rej untouched since the last take —
	// still holding the PREVIOUS cycle's refusals. Hand out the buffer only
	// when this cycle's refuse() actually rebuilt it.
	if !a.rejTaken && len(a.rej) > 0 {
		res.Rejected = a.rej
		res.Reason = a.reason
	}
	a.adm = 0
	a.rejTaken = true
	return res
}

// TryEnqueue is Enqueue under the configured shard bound: it publishes
// (n, k1, k2) unless flow's shard is at its occupancy cap — or the runtime
// is closed (see Close) — and reports whether the element was admitted.
// With no bound configured and the runtime open it never refuses.
//
//eiffel:hotpath
func (c *Core) TryEnqueue(flow uint64, n *Node, k1, k2 uint64) bool {
	// The admitting increment must precede the closed load (both are
	// sequentially consistent): either this producer observes Close, or
	// the closing drain observes the in-flight admission and waits for
	// the publication (AdmitIdle) — never neither.
	c.admitting.Add(1)
	s := &c.shards[c.ShardFor(flow)]
	if c.closed.Load() || (c.bound > 0 && s.qlen.Load()+s.ring.occupancy() >= c.bound) {
		c.admitting.Add(-1)
		c.rejected.Inc()
		return false
	}
	c.enqueueShard(s, n, k1, k2)
	c.admitting.Add(-1)
	return true
}

// Bound returns the per-shard occupancy bound (0 = unbounded).
func (c *Core) Bound() int { return int(c.bound) }

// Close quiesces admission: every subsequent refusable enqueue
// (TryEnqueue, Producer.FlushAdmit) refuses with PushClosed, so producers
// driving those paths drain to a stop and the consumer side can run the
// backlog down to exact quiescence. Close does NOT gate the infallible
// paths (Enqueue, EnqueueBatch, Flush) — they have no refusal channel;
// callers that keep using them after Close are outside the lifecycle
// contract and own the consequences. Idempotent; safe from any goroutine.
// A producer that raced Close may still publish the claim it had already
// passed the closed check for — drains absorb that window by re-passing
// until AdmitIdle reports the stragglers done.
func (c *Core) Close() { c.closed.Store(true) }

// Closed reports whether Close has been called.
//
//eiffel:hotpath
func (c *Core) Closed() bool { return c.closed.Load() }

// AdmitIdle reports that no refusable admission is in flight between its
// closed check and its publication. After Close, once AdmitIdle returns
// true no straggler can still publish (new attempts refuse), so a drain
// that THEN sees an empty runtime has reached true quiescence — checking
// in the other order readmits the race this exists to close.
func (c *Core) AdmitIdle() bool { return c.admitting.Load() == 0 }
