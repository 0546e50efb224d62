package shardq

// This file is the producer side of the batched enqueue pipeline: a
// per-goroutine staging handle that amortizes the per-element costs of
// Enqueue — the flow hash, the ring CAS, and the publication barrier —
// over whole runs. Elements stage into per-shard buffers; a flush routes
// each shard's run as ONE multi-slot ring claim (ring.pushN), so k
// same-shard elements cost one CAS and one atomic store instead of k of
// each. When a ring fills mid-flush the remainder of the run moves
// straight into the shard's front stage under the shard lock through one
// backend EnqueueBatch call — the batched form of Enqueue's ring-full
// fallback, with the same backpressure semantics.

// Producer is a per-goroutine batched enqueue handle for a Core. Enqueue
// stages an element on its shard's buffer and flushes that shard
// automatically when the buffer fills; Flush publishes every pending
// element. A staged element is NOT yet published: it is invisible to Len
// and the consumer until its shard flushes. Each Producer must be driven
// by a single goroutine at a time; any number of Producers (and plain
// Enqueue callers) may feed one runtime concurrently.
type Producer struct {
	c *Core

	// Shard i's pending run occupies pubs[i*per : i*per+cnt[i]]. Like the
	// ring, consumed segments retain their node pointers until overwritten
	// — a bounded retention of elements that are live in the runtime
	// anyway.
	per    int
	staged int
	cnt    []int32
	pubs   []pub

	ad admitState
}

// NewProducer returns a staging handle whose per-shard buffers hold batch
// elements each (default 64). Larger batches amortize the ring claim
// further but delay publication until Flush.
func (c *Core) NewProducer(batch int) *Producer {
	if batch <= 0 {
		batch = 64
	}
	return &Producer{
		c: c, per: batch,
		cnt:  make([]int32, len(c.shards)),
		pubs: make([]pub, len(c.shards)*batch),
	}
}

// Staged returns how many elements are staged but not yet published.
func (p *Producer) Staged() int { return p.staged }

// Enqueue stages (n, k1, k2) on flow's shard — the same triple
// Core.Enqueue publishes — flushing the shard if its staging buffer is
// full. The hot path is a hash and a handful of plain stores — no
// shared-memory traffic at all until the flush.
//
//eiffel:hotpath
func (p *Producer) Enqueue(flow uint64, n *Node, k1, k2 uint64) {
	i := p.c.ShardFor(flow)
	c := p.cnt[i]
	p.pubs[i*p.per+int(c)] = pub{n: n, rank: k1, aux: k2}
	p.cnt[i] = c + 1
	p.staged++
	if int(c)+1 == p.per {
		p.flushShard(i)
	}
}

// EnqueueAux is Enqueue under the name it carries on a runtime with no
// shaper stage, where the triple reads (n, rank, aux); see Q.EnqueueAux.
//
//eiffel:hotpath
func (p *Producer) EnqueueAux(flow uint64, n *Node, rank, aux uint64) {
	p.Enqueue(flow, n, rank, aux)
}

// Flush publishes every staged element. Call it when the producer's burst
// ends — after it, everything previously enqueued is visible to the
// consumer, exactly as if published through Core.Enqueue. Under a shard
// bound, elements a full shard refuses are counted in Snapshot.Rejected
// and dropped; callers that want them back use FlushAdmit.
//
//eiffel:hotpath
func (p *Producer) Flush() {
	if p.staged == 0 && p.ad.adm == 0 {
		return
	}
	p.FlushAdmit()
}

// FlushAdmit publishes every staged element under the configured shard
// bound and reports the outcome: how many elements were admitted since
// the last FlushAdmit (automatic shard flushes included) and, in order,
// the ones whose shard was at its occupancy cap. Admit.Rejected aliases
// the producer's reusable refusal buffer — consume it before the next
// operation on this handle. With no bound configured nothing is ever
// refused and this is Flush with accounting.
//
//eiffel:hotpath
func (p *Producer) FlushAdmit() Admit {
	for i, c := range p.cnt {
		if c > 0 {
			p.flushShard(i)
		}
	}
	return p.ad.take()
}

// flushShard publishes shard i's staged run: multi-slot ring claims while
// the ring has room, then the locked front-stage fallback for any
// remainder — bounded by the shard occupancy cap when one is configured.
//
//eiffel:hotpath
func (p *Producer) flushShard(i int) {
	q := p.c
	c := int(p.cnt[i])
	pubs := p.pubs[i*p.per : i*p.per+c]
	s := &q.shards[i]
	q.admitting.Add(1) // before the closed load; see Core.TryEnqueue
	if q.closed.Load() {
		// Closed runtime: the whole staged run refuses, independent of the
		// occupancy bound — admission is quiesced for the drain.
		q.admitting.Add(-1)
		p.ad.refuse(pubs, PushClosed)
		q.rejected.Add(uint64(c))
		p.cnt[i] = 0
		p.staged -= c
		return
	}
	done, refused := 0, 0
	for done < c {
		lim := c
		if q.bound > 0 {
			// Budget against published occupancy; refused elements are
			// recorded for FlushAdmit and counted runtime-wide.
			budget := q.bound - (s.qlen.Load() + s.ring.occupancy())
			if budget <= 0 {
				break
			}
			if int64(c-done) > budget {
				lim = done + int(budget)
			}
		}
		k := s.ring.pushN(pubs[done:lim])
		if k > 0 {
			q.bulkClaims.Inc()
			q.bulkClaimed.Add(uint64(k))
			done += k
			continue
		}
		// Ring full: drain it and move the rest of the run straight into
		// the front stage, all under one lock acquisition. Under a bound,
		// admit only up to the remaining budget (re-checked under the lock,
		// after the drain settled qlen).
		s.mu.Lock()
		drained := s.flushFallbackLocked()
		take := c - done
		if q.bound > 0 {
			budget := q.bound - (s.qlen.Load() + s.ring.occupancy())
			if budget < int64(take) {
				take = int(max(budget, 0))
			}
		}
		if take > 0 {
			s.enqueuePubsLocked(pubs[done : done+take])
			s.qlen.Add(int64(take))
		}
		s.fallbackGen.Add(1) // tell the consumer its cached heads are stale
		s.mu.Unlock()
		q.ringFull.Inc()
		q.noteFlush(drained)
		done += take
		if done < c {
			break
		}
	}
	if done < c {
		p.ad.refuse(pubs[done:], PushShardFull)
		q.rejected.Add(uint64(c - done))
		refused = c - done
	}
	q.admitting.Add(-1)
	p.ad.adm += c - refused
	p.cnt[i] = 0
	p.staged -= c
}
