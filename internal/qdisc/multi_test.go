package qdisc

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eiffel/internal/pkt"
)

// TestMultiShardedGroupFidelity takes the contract's group surface to
// G=4 on the timer preset (TestFrontContract runs G=1 and G=2):
// concurrent producers, per-packet and batched, then one worker per group
// draining concurrently. Every flow must be released by exactly its owning
// group and in exactly its publish order.
func TestMultiShardedGroupFidelity(t *testing.T) {
	c := frontCases[0] // timer
	for _, mode := range []string{modePerPacket, modeBatched} {
		f := c.mk(t, frontOpts{groups: 4})
		admitted := publish(t, f, contractPackets(c), mode)
		if got := drainGroups(t, c, f).check(t, false); got != admitted {
			t.Fatalf("%s: group workers released %d of %d", mode, got, admitted)
		}
		if f.Len() != 0 {
			t.Fatalf("%s: Len = %d after full drain", mode, f.Len())
		}
	}
}

// waitUntil polls cond until it holds, yielding between polls and
// bounding the wait by wall clock — never by iteration count, which a
// single-CPU machine can exhaust inside one scheduler quantum. On
// timeout it fails the test with diag's dump, so a wedged drain reports
// its sink and group counters instead of a bare deadline.
func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, diag func() string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %v\n%s", timeout, diag())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// serveDiag renders the drain-side state waitUntil dumps on timeout.
func serveDiag(m *Front, sinks []*CountingSink) func() string {
	return func() string {
		var b strings.Builder
		fmt.Fprintf(&b, "front: len=%d admitted=%d egress=[%s]",
			m.Len(), m.Admitted(), m.Egress().Snapshot())
		for g := 0; g < m.NumGroups(); g++ {
			fmt.Fprintf(&b, "\ngroup %d: backlog=%d sink=%d", g, m.GroupLen(g), sinks[g].Count())
		}
		return b.String()
	}
}

// TestMultiShardedServe exercises the worker-spawning front: ServeWith
// drains every group into its sink until stopped.
func TestMultiShardedServe(t *testing.T) {
	m := NewMultiSharded(MultiShardedOptions{
		ShardedOptions: ShardedOptions{Shards: 8, Buckets: 2048, HorizonNs: horizon, RingBits: 10},
		Groups:         2,
	})
	packets := contractPackets(frontCases[0])
	sinks := []*CountingSink{{}, {}}
	srv := m.ServeWith(func() int64 { return horizon }, []EgressSink{sinks[0], sinks[1]}, ServeOptions{})
	m.EnqueueBatch(packets[0], 0)
	waitUntil(t, 20*time.Second, func() bool {
		return sinks[0].Count()+sinks[1].Count() >= int64(len(packets[0]))
	}, serveDiag(m, sinks))
	srv.Stop()
	if m.Len() != 0 {
		t.Fatalf("Len = %d after serving everything", m.Len())
	}
	if sinks[0].Count() == 0 || sinks[1].Count() == 0 {
		t.Fatalf("a group's sink saw no traffic: %d/%d", sinks[0].Count(), sinks[1].Count())
	}
}

// TestMultiShardedServeStopMidTraffic is the stop-semantics regression
// test: stopping a Serve fleet in the middle of a replay must not
// abandon the backlog (the pre-lifecycle Serve simply killed its
// workers, leaving queued packets stranded). stop() now routes through
// the graceful drain, so at quiescence every admitted packet is
// accounted: admitted == tx'd + dropped + released, with nothing
// dropped on the infallible sinks used here.
func TestMultiShardedServeStopMidTraffic(t *testing.T) {
	m := NewMultiSharded(MultiShardedOptions{
		ShardedOptions: ShardedOptions{Shards: 8, Buckets: 2048, HorizonNs: horizon, RingBits: 10},
		Groups:         2,
	})
	var packets [][]*pkt.Packet // eight producers over four copies of the contract's flows
	for range 4 {
		packets = append(packets, contractPackets(frontCases[0])...)
	}
	sinks := []*CountingSink{{}, {}}
	srv := m.ServeWith(func() int64 { return horizon }, []EgressSink{sinks[0], sinks[1]}, ServeOptions{})

	var admitted atomic.Int64
	var wg sync.WaitGroup
	for w := range packets {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, p := range packets[w] {
				if m.TryEnqueue(p, 0) {
					admitted.Add(1)
				}
			}
		}(w)
	}
	// Stop mid-traffic: the producers are still pushing. Their remaining
	// TryEnqueues must refuse (the front is closed), and everything
	// admitted before the close must still reach the sinks.
	waitUntil(t, 20*time.Second, func() bool {
		return sinks[0].Count()+sinks[1].Count() >= 100
	}, serveDiag(m, sinks))
	rep := srv.Stop()
	wg.Wait()

	if m.State() != StateClosed {
		t.Fatalf("state = %v after Stop", m.State())
	}
	if !rep.Conserved() {
		t.Fatalf("mid-traffic stop broke conservation: %s", rep)
	}
	if rep.Admitted != uint64(admitted.Load()) {
		t.Fatalf("front admitted %d, producers counted %d", rep.Admitted, admitted.Load())
	}
	if rep.Dropped != 0 || rep.Released != 0 {
		t.Fatalf("infallible stop must not drop or release: %s", rep)
	}
	// The sinks' own ledgers close the loop: tx'd per the report is what
	// the sinks actually saw, and post-close producers were refused, so a
	// late retry of one refused packet must also refuse.
	if got := uint64(sinks[0].Count() + sinks[1].Count()); got != rep.Txd {
		t.Fatalf("sinks saw %d, report says txd=%d", got, rep.Txd)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d at quiescence", m.Len())
	}
	if rep2 := srv.Stop(); rep2 != rep {
		t.Fatalf("Stop not idempotent: %s vs %s", rep2, rep)
	}
}

// TestTimerNextTimerWhileDueRemain pins what survives of the direct-due
// delivery-window regression on the timer front: after a batch leaves due
// packets both settled in the bucketed queue (the producer's ring-full
// fallback) AND in the rings, GroupNextTimer must answer "now" — not the
// far-future answer a stale head cache would give — the settled packets
// come out before the ring's (one flow: exact order), and everything
// drains.
func TestTimerNextTimerWhileDueRemain(t *testing.T) {
	q := NewMultiSharded(MultiShardedOptions{ShardedOptions: ShardedOptions{
		Shards: 1, Buckets: 1024, HorizonNs: 1 << 20,
		RingBits: 3,
	}})
	pool := pkt.NewPool(32)
	now := int64(1 << 16)
	seq := uint32(0)
	enq := func(sendAt int64) {
		p := pool.Get()
		seq++
		p.Flow, p.Seq, p.SendAt = 1, seq, sendAt
		q.Enqueue(p, 0)
	}
	// Nine due packets: the ninth finds the 8-slot ring full and settles
	// everything into the cFFS via the producer fallback...
	for i := 0; i < 9; i++ {
		enq(int64(i))
	}
	// ...then refill the ring with eight more due packets, so a batch
	// could fill from ring traffic alone.
	for i := 100; i < 108; i++ {
		enq(int64(i))
	}
	out := make([]*pkt.Packet, 17)
	next := uint32(1)
	deq := func(n int) {
		t.Helper()
		k := q.GroupDequeueBatch(0, now, out[:n])
		for _, p := range out[:k] {
			if p.Seq != next {
				t.Fatalf("released seq %d, want seq %d of the one flow", p.Seq, next)
			}
			next++
		}
		if k != n {
			t.Fatalf("drained %d, want %d", k, n)
		}
	}
	deq(4)
	// 13 due packets remain, split between ring and bucketed queue. The
	// very next service moment is NOW.
	if at, ok := q.GroupNextTimer(0, now); !ok || at != now {
		t.Fatalf("GroupNextTimer = (%d,%v) with %d due packets queued, want (%d,true)",
			at, ok, q.Len(), now)
	}
	// And the remaining backlog must drain completely at now, in order.
	deq(13)
	if k := q.GroupDequeueBatch(0, now, out); k != 0 || q.Len() != 0 {
		t.Fatalf("drained %d more, Len = %d after the whole backlog drained", k, q.Len())
	}
}

// TestShapedShardedNextTimerAfterDueDelivery pins the shaped analogue of
// the timer front's delivery-window edge (the class of bug PR 2's
// NextRelease fix covered): packets that were still in the RINGS when they became due
// are routed straight into the schedulers by the delivery pass
// (flushDueLocked), and GroupNextTimer must answer "now" while any of them
// remain undelivered — including right after a batch was handed out.
func TestShapedShardedNextTimerAfterDueDelivery(t *testing.T) {
	q := mkShapedFront(ShapedShardedOptions{
		Shards: 2, ShaperBuckets: 1000, HorizonNs: 2000,
		SchedBuckets: 512, RankSpan: 1024,
	})
	pool := pkt.NewPool(32)
	now := int64(500)
	for i := 0; i < 20; i++ {
		q.Enqueue(mkShaped(pool, uint64(i), int64(i%100), uint64(i)), 0)
	}
	// Everything is due at now but still sitting in rings: the first
	// GroupNextTimer's migration pass delivers ring packets straight into
	// the schedulers, and the answer must be "now".
	if next, ok := q.GroupNextTimer(0, now); !ok || next != now {
		t.Fatalf("GroupNextTimer(%d) = (%d,%v) with 20 due ring packets, want now", now, next, ok)
	}
	// Drain one batch of four; scheduler backlog remains, so the next
	// service moment is still NOW.
	out := make([]*pkt.Packet, 32)
	if k := q.GroupDequeueBatch(0, now, out[:4]); k != 4 {
		t.Fatalf("drained %d of a due backlog, want 4", k)
	}
	if next, ok := q.GroupNextTimer(0, now); !ok || next != now {
		t.Fatalf("GroupNextTimer after the delivery window = (%d,%v), want now", next, ok)
	}
	if got := 4 + q.GroupDequeueBatch(0, now, out); got != 20 {
		t.Fatalf("drained %d, want 20", got)
	}
	if _, ok := q.GroupNextTimer(0, now); ok {
		t.Fatal("GroupNextTimer ok on a fully drained qdisc")
	}
}

// TestMultiShapedGroupNextTimer pins the same delivery-window contract on
// the parallel front: each group's GroupNextTimer must answer "now"
// whenever ITS migration pass just made packets eligible, and groups must
// answer independently (a due backlog in one group must not surface in
// another's timer).
func TestMultiShapedGroupNextTimer(t *testing.T) {
	m := NewMultiShaped(MultiShapedOptions{
		ShapedShardedOptions: ShapedShardedOptions{
			Shards: 4, ShaperBuckets: 1000, HorizonNs: 2000,
			SchedBuckets: 512, RankSpan: 1024,
		},
		Groups: 2,
	})
	pool := pkt.NewPool(64)
	// Find one flow per group.
	flowIn := func(g int) uint64 {
		for f := uint64(0); ; f++ {
			if m.GroupFor(f) == g {
				return f
			}
		}
	}
	f0, f1 := flowIn(0), flowIn(1)

	// Group 0: a due packet still in its ring. Group 1: a future packet.
	m.Enqueue(mkShaped(pool, f0, 100, 3), 0)
	m.Enqueue(mkShaped(pool, f1, 900, 5), 0)
	now := int64(200)
	if next, ok := m.GroupNextTimer(0, now); !ok || next != now {
		t.Fatalf("group 0 NextTimer = (%d,%v) with a due ring packet, want now", next, ok)
	}
	if next, ok := m.GroupNextTimer(1, now); !ok || next != 900 {
		t.Fatalf("group 1 NextTimer = (%d,%v), want its own shaper deadline 900", next, ok)
	}

	out := make([]*pkt.Packet, 8)
	if k := m.GroupDequeueBatch(0, now, out); k != 1 {
		t.Fatalf("group 0 drained %d, want its 1 due packet", k)
	}
	if _, ok := m.GroupNextTimer(0, now); ok {
		t.Fatal("group 0 NextTimer ok after draining its only packet")
	}
	if k := m.GroupDequeueBatch(1, 900, out); k != 1 {
		t.Fatalf("group 1 drained %d at its deadline, want 1", k)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after both groups drained", m.Len())
	}
}

// TestMultiShapedGroupFidelity drains a shaped workload with concurrent
// group workers and checks the parallel contract: the flow→group
// partition holds and priority order within each group's output is exact
// to scheduler-bucket granularity.
func TestMultiShapedGroupFidelity(t *testing.T) {
	const rankSpan = uint64(1) << 20
	opt := ShapedShardedOptions{
		Shards: 8, ShaperBuckets: 2048, HorizonNs: horizon,
		SchedBuckets: 256, RankSpan: rankSpan, RingBits: 10,
	}
	m := NewMultiShaped(MultiShapedOptions{ShapedShardedOptions: opt, Groups: 4})
	publish(t, m, shapedPackets(4, 3000, rankSpan), modeBatched)

	gran := opt.schedGran()
	G := m.NumGroups()
	released := make([]int, G)
	var cwg sync.WaitGroup
	for g := 0; g < G; g++ {
		cwg.Add(1)
		go func(g int) {
			defer cwg.Done()
			out := make([]*pkt.Packet, 256)
			var last uint64
			for {
				k := m.GroupDequeueBatch(g, horizon, out)
				if k == 0 {
					return
				}
				for _, p := range out[:k] {
					if m.GroupFor(p.Flow) != g {
						panic("packet released by a group that does not own its flow")
					}
					qr := p.Rank / gran
					if released[g] > 0 && qr < last {
						panic("priority inversion beyond bucket granularity inside a group")
					}
					last = qr
					released[g]++
				}
			}
		}(g)
	}
	cwg.Wait()
	total := 0
	for _, n := range released {
		total += n
	}
	if total != 4*3000 {
		t.Fatalf("released %d of %d", total, 4*3000)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after full drain", m.Len())
	}
}
