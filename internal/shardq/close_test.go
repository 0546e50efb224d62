package shardq

import "testing"

// TestCloseRefusesAdmission pins the quiesce contract: after Close every
// refusable path refuses with PushClosed — TryEnqueue regardless of
// occupancy (even with no bound configured), and FlushAdmit reporting the
// whole staged batch rejected with the closed reason, which dominates
// shard-full.
func TestCloseRefusesAdmission(t *testing.T) {
	forEachView(t, func(t *testing.T, v view) {
		c := v.mk(viewOpts{shards: 2, ringBits: 10}) // unbounded: only Close can refuse
		es := mkElems(8)
		if !v.try(c, 0, es[0], 0) {
			t.Fatal("TryEnqueue refused while open and unbounded")
		}
		if c.Closed() {
			t.Fatal("Closed before Close")
		}
		c.Close()
		c.Close() // idempotent
		if !c.Closed() {
			t.Fatal("Closed false after Close")
		}
		if v.try(c, 0, es[1], 0) {
			t.Fatal("TryEnqueue admitted after Close")
		}
		if c.TryEnqueue(1, &es[2].sched, 0, 7) {
			t.Fatal("TryEnqueue with a second key word admitted after Close")
		}

		p := c.NewProducer(0)
		for i := 3; i < 6; i++ {
			v.stage(p, uint64(i), es[i], 0)
		}
		res := p.FlushAdmit()
		if res.Admitted != 0 || len(res.Rejected) != 3 || res.Reason != PushClosed {
			t.Fatalf("post-close FlushAdmit: admitted %d rejected %d reason %v, want 0/3/closed",
				res.Admitted, len(res.Rejected), res.Reason)
		}
		if got := c.Stats().Rejected; got != 5 {
			t.Fatalf("Snapshot.Rejected = %d, want 5", got)
		}

		// The element admitted before Close still drains: Close quiesces
		// admission, never the consumer side.
		if got := len(drainIDs(c, 4)); got != 1 {
			t.Fatalf("post-close drain popped %d, want the 1 pre-close element", got)
		}
		if c.Len() != 0 {
			t.Fatalf("Len = %d after drain", c.Len())
		}
	})
}

// TestCloseDominatesShardFull pins the reason precedence: a flush cycle
// that saw both refusal causes reports PushClosed, the terminal one.
func TestCloseDominatesShardFull(t *testing.T) {
	forEachView(t, func(t *testing.T, v view) {
		const bound = 2
		c := v.mk(viewOpts{shards: 1, ringBits: 10, bound: bound})
		p := c.NewProducer(0)
		es := mkElems(8)
		// Stage past the bound, flush: shard-full refusals.
		for i := 0; i < 4; i++ {
			v.stage(p, 0, es[i], uint64(i))
		}
		if res := p.FlushAdmit(); res.Reason != PushShardFull {
			t.Fatalf("pre-close reason = %v, want shard-full", res.Reason)
		}
		// Refuse once at the bound, then close before the flush completes the
		// cycle: the cycle's verdict must be closed.
		v.stage(p, 0, es[4], 0)
		c.Close()
		if res := p.FlushAdmit(); res.Reason != PushClosed || len(res.Rejected) != 1 {
			t.Fatalf("post-close cycle: rejected %d reason %v, want 1/closed", len(res.Rejected), res.Reason)
		}
	})
}
