package shardq

import (
	"math/rand"
	"testing"

	"eiffel/internal/bucket"
)

// TestTryEnqueueBound checks the bounded paths at the cap: TryEnqueue
// admits up to the bound and refuses past it, a producer's FlushAdmit at
// the cap admits nothing and hands the whole run back, refusals are
// counted, and admission resumes after a drain.
func TestTryEnqueueBound(t *testing.T) {
	forEachView(t, func(t *testing.T, v view) {
		const bound = 8
		c := v.mk(viewOpts{shards: 1, ringBits: 10, bound: bound})
		es := mkElems(3 * bound)
		for i := 0; i < bound; i++ {
			if !v.try(c, 0, es[i], uint64(i)) {
				t.Fatalf("TryEnqueue %d refused below the bound", i)
			}
		}
		for i := bound; i < 2*bound; i++ {
			if v.try(c, 0, es[i], uint64(i)) {
				t.Fatalf("TryEnqueue %d admitted past the bound", i)
			}
		}
		p := c.NewProducer(0)
		for i := 2 * bound; i < 3*bound; i++ {
			v.stage(p, 0, es[i], uint64(i))
		}
		if res := p.FlushAdmit(); res.Admitted != 0 || len(res.Rejected) != bound {
			t.Fatalf("FlushAdmit at cap: admitted %d rejected %d, want 0/%d", res.Admitted, len(res.Rejected), bound)
		}
		if got := c.Stats().Rejected; got != 2*bound {
			t.Fatalf("Snapshot.Rejected = %d, want %d", got, 2*bound)
		}
		if got := c.Len(); got != bound {
			t.Fatalf("Len = %d, want %d", got, bound)
		}
		if got := len(drainIDs(c, bound)); got != bound {
			t.Fatalf("drained %d, want %d", got, bound)
		}
		if !v.try(c, 0, es[bound], 0) {
			t.Fatal("TryEnqueue refused after the shard drained")
		}
	})
}

// TestTryEnqueueUnbounded checks that without a bound TryEnqueue never
// refuses, even far past any ring capacity.
func TestTryEnqueueUnbounded(t *testing.T) {
	forEachView(t, func(t *testing.T, v view) {
		c := v.mk(viewOpts{shards: 1, ringBits: 4}) // 16-slot ring, no bound: spills via fallback
		for i, e := range mkElems(256) {
			if !v.try(c, 0, e, uint64(i)) {
				t.Fatalf("unbounded TryEnqueue refused element %d", i)
			}
		}
		if got := c.Stats().Rejected; got != 0 {
			t.Fatalf("Snapshot.Rejected = %d without a bound, want 0", got)
		}
	})
}

// TestFlushAdmitAccounting drives randomized skewed bursts through a
// bounded producer and checks, per flush cycle: admitted + rejected ==
// offered, no duplicate nodes among the rejects, and every reject staged
// in THIS cycle — the regression case being a refusal-free cycle handing
// back the previous cycle's refusal buffer.
func TestFlushAdmitAccounting(t *testing.T) {
	forEachView(t, func(t *testing.T, v view) {
		const bound = 48
		c := v.mk(viewOpts{shards: 8, ringBits: 4, bound: bound})
		p := c.NewProducer(0)
		rng := rand.New(rand.NewSource(7))
		out := make([]*bucket.Node, 64)
		var totalRej uint64
		for round := 0; round < 300; round++ {
			batch := 1 + rng.Intn(256)
			staged := make(map[*Node]bool, batch)
			for i, e := range mkElems(batch) {
				n, k1, k2 := v.keys(e, uint64(i))
				staged[n] = true
				// Heavy skew: a few hot flows so single shards hit their bound.
				p.Enqueue(uint64(rng.Intn(5)), n, k1, k2)
			}
			res := p.FlushAdmit()
			if res.Admitted+len(res.Rejected) != batch {
				t.Fatalf("round %d: admitted %d + rejected %d != offered %d",
					round, res.Admitted, len(res.Rejected), batch)
			}
			if (len(res.Rejected) > 0) != (res.Reason == PushShardFull) {
				t.Fatalf("round %d: %d rejects with reason %v", round, len(res.Rejected), res.Reason)
			}
			seen := make(map[*Node]bool, len(res.Rejected))
			for _, n := range res.Rejected {
				if seen[n] {
					t.Fatalf("round %d: node rejected twice", round)
				}
				seen[n] = true
				if !staged[n] {
					t.Fatalf("round %d: rejected node was not staged this cycle", round)
				}
			}
			totalRej += uint64(len(res.Rejected))
			// Partial drain so later rounds admit again.
			for j := 0; j < 2; j++ {
				drainAll(c, 0, ^uint64(0), out)
			}
		}
		if totalRej == 0 {
			t.Fatal("bound never triggered; test exercised nothing")
		}
		if got := c.Stats().Rejected; got != totalRej {
			t.Fatalf("Snapshot.Rejected = %d, want %d", got, totalRej)
		}
	})
}

// TestFlushAdmitStaleBufferRegression pins the exact bug class: a flush
// cycle with refusals followed by one without must return an EMPTY
// Rejected slice the second time, not the previous cycle's buffer.
func TestFlushAdmitStaleBufferRegression(t *testing.T) {
	forEachView(t, func(t *testing.T, v view) {
		const bound = 4
		c := v.mk(viewOpts{shards: 1, ringBits: 10, bound: bound})
		p := c.NewProducer(0)
		es := mkElems(2*bound + 2)
		for i := 0; i < 2*bound; i++ {
			v.stage(p, 0, es[i], uint64(i))
		}
		res := p.FlushAdmit()
		if res.Admitted != bound || len(res.Rejected) != bound {
			t.Fatalf("first flush: admitted %d rejected %d, want %d/%d",
				res.Admitted, len(res.Rejected), bound, bound)
		}
		// Drain fully, then a refusal-free cycle.
		drainIDs(c, 2*bound)
		v.stage(p, 0, es[2*bound], 0)
		v.stage(p, 0, es[2*bound+1], 1)
		res = p.FlushAdmit()
		if res.Admitted != 2 || len(res.Rejected) != 0 || res.Reason != PushNone {
			t.Fatalf("refusal-free flush returned admitted %d rejected %d reason %v, want 2/0/none (stale buffer?)",
				res.Admitted, len(res.Rejected), res.Reason)
		}
	})
}
