package shardq

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eiffel/internal/bucket"
	"eiffel/internal/queue"
)

func TestProducerStagesUntilFlush(t *testing.T) {
	forEachView(t, func(t *testing.T, v view) {
		c := v.mk(viewOpts{shards: 4, ringBits: 10})
		p := c.NewProducer(16)
		for i, e := range mkElems(10) {
			v.stage(p, uint64(i), e, uint64(i))
		}
		if got := p.Staged(); got != 10 {
			t.Fatalf("Staged = %d, want 10", got)
		}
		if got := c.Len(); got != 0 {
			t.Fatalf("Len = %d before Flush, want 0 (staged elements are unpublished)", got)
		}
		p.Flush()
		if got := p.Staged(); got != 0 {
			t.Fatalf("Staged = %d after Flush, want 0", got)
		}
		if got := c.Len(); got != 10 {
			t.Fatalf("Len = %d after Flush, want 10", got)
		}
		st := c.Stats()
		if st.BulkClaims == 0 || st.BulkClaimed != 10 {
			t.Fatalf("bulk counters = %d claims / %d claimed, want >0 / 10", st.BulkClaims, st.BulkClaimed)
		}
		if got := len(drainIDs(c, 16)); got != 10 {
			t.Fatalf("drained %d, want 10", got)
		}
	})
}

// TestProducerAutoFlushAtCapacity checks that a shard's staging buffer
// publishes itself when it fills, without an explicit Flush.
func TestProducerAutoFlushAtCapacity(t *testing.T) {
	forEachView(t, func(t *testing.T, v view) {
		c := v.mk(viewOpts{shards: 1, ringBits: 10}) // one shard: every element stages on the same buffer
		p := c.NewProducer(8)
		for i, e := range mkElems(8) {
			v.stage(p, 0, e, uint64(i))
		}
		if got := p.Staged(); got != 0 {
			t.Fatalf("Staged = %d after filling the buffer, want 0 (auto-flush)", got)
		}
		if got := c.Len(); got != 8 {
			t.Fatalf("Len = %d after auto-flush, want 8", got)
		}
	})
}

// TestProducerRingFullFallback forces staged runs through the locked
// fallback: a ring much smaller than the staged batch must spill the
// remainder straight into the front stage, losing nothing and keeping
// per-shard FIFO order.
func TestProducerRingFullFallback(t *testing.T) {
	forEachView(t, func(t *testing.T, v view) {
		c := v.mk(viewOpts{shards: 1, ringBits: 2}) // 4-slot ring
		p := c.NewProducer(64)
		const n = 40
		for _, e := range mkElems(n) {
			v.stage(p, 0, e, 7) // same rank: drain order is pure FIFO
		}
		p.Flush()
		if got := c.Len(); got != n {
			t.Fatalf("Len = %d, want %d", got, n)
		}
		if st := c.Stats(); st.RingFull == 0 {
			t.Fatalf("RingFull = 0, want >0 (ring has 4 slots, %d staged)", n)
		}
		got := drainIDs(c, n)
		if len(got) != n {
			t.Fatalf("drained %d, want %d", len(got), n)
		}
		for i, id := range got {
			if id != i {
				t.Fatalf("position %d: element %d — fallback broke FIFO order", i, id)
			}
		}
	})
}

func TestSnapshotStringBulkCounters(t *testing.T) {
	s := Snapshot{RingPushes: 10, BulkClaims: 2, BulkClaimed: 9}
	if got := s.String(); !strings.Contains(got, "bulk-claims=2") || !strings.Contains(got, "avg-claim=4.5") {
		t.Fatalf("String() = %q, want bulk-claims=2 and avg-claim=4.5", got)
	}
	if got := (Snapshot{RingPushes: 3}).String(); strings.Contains(got, "bulk") {
		t.Fatalf("String() = %q: bulk counters rendered despite no bulk claims", got)
	}
}

// TestBatchVsPerElementEquivalence is the batching correctness property:
// the SAME randomized (flow, rank) workload admitted per element, through
// a staging Producer (random flush points), and through EnqueueBatch
// (random run lengths) must produce byte-identical exact-mode GroupDequeueBatch
// sequences — batching is a transport optimization, never a reordering.
func TestBatchVsPerElementEquivalence(t *testing.T) {
	seeds := []int64{1, 7, 42}
	size := 2000
	if !testing.Short() {
		seeds = append(seeds, 1001, 90210)
		size = 20000
	}
	forEachView(t, func(t *testing.T, v view) {
		for _, seed := range seeds {
			rng := rand.New(rand.NewSource(seed))
			flows := make([]uint64, size)
			ranks := make([]uint64, size)
			for i := range flows {
				flows[i] = uint64(rng.Intn(97))
				ranks[i] = uint64(rng.Intn(1 << 11))
			}
			opts := viewOpts{shards: 4, ringBits: 8}

			// Per-element reference.
			ref := v.mk(opts)
			for i, e := range mkElems(size) {
				v.enq(ref, flows[i], e, ranks[i])
			}
			want := drainIDs(ref, 37)
			if len(want) != size {
				t.Fatalf("seed %d: reference drained %d of %d", seed, len(want), size)
			}

			// Staging Producer with random flush points and a small ring, so
			// partial claims and fallbacks interleave with clean bulk claims.
			pq := v.mk(opts)
			prod := pq.NewProducer(1 + rng.Intn(100))
			for i, e := range mkElems(size) {
				v.stage(prod, flows[i], e, ranks[i])
				if rng.Intn(200) == 0 {
					prod.Flush()
				}
			}
			prod.Flush()
			if got := drainIDs(pq, 37); !equalInts(got, want) {
				t.Fatalf("seed %d: Producer admission reordered the drain", seed)
			}

			// EnqueueBatch in random run lengths.
			bq := v.mk(opts)
			ns, k1s, k2s := make([]*Node, size), make([]uint64, size), make([]uint64, size)
			for i, e := range mkElems(size) {
				ns[i], k1s[i], k2s[i] = v.keys(e, ranks[i])
			}
			for i := 0; i < size; {
				j := i + 1 + rng.Intn(500)
				if j > size {
					j = size
				}
				bq.EnqueueBatch(flows[i:j], ns[i:j], k1s[i:j], k2s[i:j])
				i = j
			}
			if got := drainIDs(bq, 37); !equalInts(got, want) {
				t.Fatalf("seed %d: EnqueueBatch admission reordered the drain", seed)
			}
		}
	})
}

// TestShapedBatchVsPerElementEquivalence is the shaped variant: random
// (flow, sendAt, rank) workloads admitted per element and through a
// Producer must release identically across a rising now sweep —
// batching must disturb neither the release gating nor the priority
// merge. Rings are sized to absorb the whole burst (asserted below):
// a ring-full fallback detours elements through the shaper, whose
// sendAt-bucket order legitimately re-orders equal-rank arrivals relative
// to the ring path — identically possible under per-element admission,
// but dependent on WHERE the fallback strikes, so exact sequence equality
// is only defined on the fallback-free path.
func TestShapedBatchVsPerElementEquivalence(t *testing.T) {
	seeds := []int64{3, 19}
	size := 2000
	if !testing.Short() {
		seeds = append(seeds, 4242)
		size = 20000
	}
	const horizon = 1 << 12
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		flows := make([]uint64, size)
		sendAts := make([]uint64, size)
		ranks := make([]uint64, size)
		for i := range flows {
			flows[i] = uint64(rng.Intn(97))
			sendAts[i] = uint64(rng.Intn(horizon))
			ranks[i] = uint64(rng.Intn(1 << 11))
		}
		mkElems := func() []*elem {
			es := make([]*elem, size)
			for i := range es {
				es[i] = newElem(sendAts[i], ranks[i])
				es[i].timer.Data = es[i] // already set, but keep explicit
			}
			return es
		}
		drain := func(q *Shaped) []*elem {
			out := make([]*bucket.Node, 53)
			var got []*elem
			// Rising now sweep: partial eligibility at every step, full
			// drain at the horizon.
			for _, now := range []uint64{horizon / 7, horizon / 3, horizon / 2, horizon} {
				for {
					k := q.GroupDequeueBatch(0, now, ^uint64(0), out)
					if k == 0 {
						break
					}
					for _, n := range out[:k] {
						got = append(got, n.Data.(*elem))
					}
				}
			}
			return got
		}

		ref := newShapedQ(4, 14)
		refEs := mkElems()
		for i, e := range refEs {
			ref.Enqueue(flows[i], &e.timer, sendAts[i], ranks[i])
		}
		want := drain(ref)
		if len(want) != size {
			t.Fatalf("seed %d: reference drained %d of %d", seed, len(want), size)
		}

		pq := newShapedQ(4, 14)
		pqEs := mkElems()
		prod := pq.NewProducer(1 + rng.Intn(100))
		for i, e := range pqEs {
			prod.Enqueue(flows[i], &e.timer, sendAts[i], ranks[i])
			if rng.Intn(200) == 0 {
				prod.Flush()
			}
		}
		prod.Flush()
		if st := pq.Stats(); st.RingFull != 0 {
			t.Fatalf("seed %d: %d ring-full fallbacks — ring must absorb the burst for exact equivalence", seed, st.RingFull)
		}
		got := drain(pq)
		if len(got) != size {
			t.Fatalf("seed %d: batched drained %d of %d", seed, len(got), size)
		}
		refIdx := make(map[*elem]int, size)
		for i, e := range refEs {
			refIdx[e] = i
		}
		gotIdx := make(map[*elem]int, size)
		for i, e := range pqEs {
			gotIdx[e] = i
		}
		for i := range want {
			if refIdx[want[i]] != gotIdx[got[i]] {
				t.Fatalf("seed %d: position %d diverged (want workload index %d, got %d)",
					seed, i, refIdx[want[i]], gotIdx[got[i]])
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFallbackWaitsOutUnpublishedSlot pins the ring-full fallback's order:
// a producer is parked between its tail CAS and its seq store (done here by
// hand: slot 0 is claimed and not published), the flow's next packets fill
// the ring behind that slot, and one more overruns it. The fallback drain
// stops where pop refuses — at slot 0 — and a fallback that parked the new
// packet then would put it ahead of seven earlier packets of its own flow.
// It has to wait for the slot instead, through both fallback sites.
func TestFallbackWaitsOutUnpublishedSlot(t *testing.T) {
	sites := map[string]func(q *Q, flow uint64, n *bucket.Node){
		"Core.enqueueShard": func(q *Q, flow uint64, n *bucket.Node) { q.Enqueue(flow, n, 5) },
		"Producer.flushShard": func(q *Q, flow uint64, n *bucket.Node) {
			p := q.NewProducer(4)
			p.Enqueue(flow, n, 5, 0)
			p.Flush()
		},
	}
	for name, overrun := range sites {
		t.Run(name, func(t *testing.T) {
			q := New(Options{NumShards: 1, RingBits: 3, Queue: queue.Config{NumBuckets: 16}})
			r := q.shards[0].ring
			const flow = 7
			nodes := make([]bucket.Node, 9)
			if !r.tail.CompareAndSwap(0, 1) {
				t.Fatal("could not claim slot 0")
			}
			for i := 1; i < 8; i++ { // same rank: one bucket, so parking order is release order
				q.Enqueue(flow, &nodes[i], 5)
			}
			done := make(chan struct{})
			go func() {
				overrun(q, flow, &nodes[8])
				close(done)
			}()
			select {
			case <-done:
				t.Fatal("the fallback parked its packet while an earlier slot was still unpublished")
			case <-time.After(50 * time.Millisecond):
			}
			if n := q.shards[0].qlen.Load(); n != 0 {
				t.Fatalf("%d elements parked behind an unpublished slot", n)
			}
			e := &r.entries[0]
			e.n, e.rank, e.aux = &nodes[0], 5, 0
			atomic.StoreUint64(&e.seq, 1)
			<-done
			out := make([]*bucket.Node, 16)
			if k := q.GroupDequeueBatch(0, ^uint64(0), out); k != len(nodes) {
				t.Fatalf("drained %d of %d", k, len(nodes))
			}
			for i := range nodes {
				if out[i] != &nodes[i] {
					t.Fatalf("position %d is not the flow's packet %d: the fallback reordered the flow", i, i)
				}
			}
		})
	}
}
