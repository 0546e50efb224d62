package qdisc

import (
	"testing"

	"eiffel/internal/pkt"
)

func mkShaped(pool *pkt.Pool, flow uint64, sendAt int64, rank uint64) *pkt.Packet {
	p := pool.Get()
	p.Flow = flow
	p.Size = 1500
	p.SendAt = sendAt
	p.Rank = rank
	return p
}

// mkShapedFront is the shaped preset at G=1.
func mkShapedFront(opt ShapedShardedOptions) *Front {
	return NewMultiShaped(MultiShapedOptions{ShapedShardedOptions: opt})
}

// shapedPair returns a small shaped front and its single-threaded
// ShapedTree reference with identical queue geometry.
func shapedPair() (*Front, *ShapedTree) {
	opt := ShapedShardedOptions{
		Shards:        4,
		ShaperBuckets: 1000,
		HorizonNs:     2000, // shaper granularity 1 ns: exact release times
		SchedBuckets:  512,
		RankSpan:      1024, // sched granularity 1: exact priorities
	}
	return mkShapedFront(opt), NewShapedTree(opt)
}

// TestShapedShardedDecoupling is the qdisc-level Figure 8 contract: no
// packet leaves before SendAt, and among eligible packets the release
// order follows Rank, not SendAt.
func TestShapedShardedDecoupling(t *testing.T) {
	sharded, tree := shapedPair()
	for _, q := range []Qdisc{serial(sharded), tree} {
		t.Run(q.Name(), func(t *testing.T) {
			pool := pkt.NewPool(8)
			if _, ok := q.NextTimer(0); ok {
				t.Fatal("NextTimer ok on empty qdisc")
			}
			// (sendAt, rank): the earliest-due packet has the WORST priority.
			q.Enqueue(mkShaped(pool, 1, 100, 30), 0)
			q.Enqueue(mkShaped(pool, 2, 200, 10), 0)
			q.Enqueue(mkShaped(pool, 3, 300, 20), 0)
			if got := q.Len(); got != 3 {
				t.Fatalf("Len = %d, want 3", got)
			}
			if next, ok := q.NextTimer(0); !ok || next != 100 {
				t.Fatalf("NextTimer(0) = (%d,%v), want (100,true)", next, ok)
			}
			if p := q.Dequeue(99); p != nil {
				t.Fatalf("Dequeue(99) released SendAt=%d early", p.SendAt)
			}
			// Only the rank-30 packet is due at 150.
			if p := q.Dequeue(150); p == nil || p.Rank != 30 {
				t.Fatalf("Dequeue(150) = %+v, want the eligible rank-30 packet", p)
			}
			// Both remaining packets due at 350: priority order.
			if p := q.Dequeue(350); p == nil || p.Rank != 10 {
				t.Fatalf("Dequeue(350) = %+v, want rank 10 first", p)
			}
			if next, ok := q.NextTimer(350); !ok || next != 350 {
				t.Fatalf("NextTimer with eligible backlog = (%d,%v), want now", next, ok)
			}
			if p := q.Dequeue(350); p == nil || p.Rank != 20 {
				t.Fatalf("final Dequeue = %+v, want rank 20", p)
			}
			if q.Len() != 0 {
				t.Fatalf("Len = %d after drain", q.Len())
			}
		})
	}
}

// TestShapedShardedNextTimerAfterMigration is the regression test for the
// migration blind spot: NextTimer's NextRelease pass migrates already-due
// packets into the schedulers as a side effect, and used to report the
// next still-shaped deadline anyway — idling the host runner while
// eligible packets sat in the schedulers (the same overdue-idling class
// of bug as Carousel's NextTimer).
func TestShapedShardedNextTimerAfterMigration(t *testing.T) {
	q := serial(mkShapedFront(ShapedShardedOptions{
		Shards: 2, ShaperBuckets: 1000, HorizonNs: 2000,
		SchedBuckets: 512, RankSpan: 1024,
	}))
	pool := pkt.NewPool(4)
	q.Enqueue(mkShaped(pool, 1, 100, 5), 0)
	q.Enqueue(mkShaped(pool, 2, 500, 7), 0)
	// At t=150 the SendAt=100 packet is due: the NextRelease pass inside
	// NextTimer migrates it, so the answer must be "now", not 500.
	if next, ok := q.NextTimer(150); !ok || next != 150 {
		t.Fatalf("NextTimer(150) = (%d,%v) with an eligible packet, want (150,true)", next, ok)
	}
	if p := q.Dequeue(150); p == nil || p.Rank != 5 {
		t.Fatalf("Dequeue(150) = %+v, want the migrated rank-5 packet", p)
	}
	if next, ok := q.NextTimer(150); !ok || next != 500 {
		t.Fatalf("NextTimer(150) after drain = (%d,%v), want (500,true)", next, ok)
	}
}

// shapedPackets builds one packet set per producer: distinct flows,
// release times strided across the horizon so successive packets land in
// well-separated shaper buckets, and priorities over [0, rankSpan)
// uncorrelated with the release times, so shaping and scheduling exercise
// different orders.
func shapedPackets(producers, perProducer int, rankSpan uint64) [][]*pkt.Packet {
	const sendPrime, rankPrime = 999983, 1000003
	sets := make([][]*pkt.Packet, producers)
	for w := range sets {
		pool := pkt.NewPool(perProducer) // pools are not shared: one per set
		sets[w] = make([]*pkt.Packet, perProducer)
		for i := range sets[w] {
			p := pool.Get()
			p.Flow = uint64(w*perProducer + i)
			p.Size = 1500
			p.SendAt = (int64(i)*sendPrime + int64(w)) % (horizon - 1)
			p.Rank = (uint64(i)*rankPrime + uint64(w)*31) % rankSpan
			sets[w][i] = p
		}
	}
	return sets
}

// drainRanks pops until pop comes back empty and returns the released
// ranks in order.
func drainRanks(pop func(out []*pkt.Packet) int) []uint64 {
	var ranks []uint64
	out := make([]*pkt.Packet, 256)
	for k := pop(out); k > 0; k = pop(out) {
		for _, p := range out[:k] {
			ranks = append(ranks, p.Rank)
		}
	}
	return ranks
}

// inversions scores a fully eligible drain against the exact order, which
// is then nondecreasing rank, at granularity gran: a rank below the running
// maximum was overtaken, an inversion of (maximum - rank) units of gran. It
// returns how many ranks were inverted and the largest magnitude.
func inversions(ranks []uint64, gran uint64) (n int, worst uint64) {
	var runMax uint64
	for i, r := range ranks {
		if r /= gran; i > 0 && r < runMax {
			n++
			worst = max(worst, runMax-r)
		} else {
			runMax = r
		}
	}
	return n, worst
}

// TestShapedShardedPriorityFidelity is the acceptance assertion: 8
// concurrent producers publish packets with horizon-spread release times
// and uncorrelated priorities; the post-publication drain must show ZERO
// priority inversions beyond the scheduler bucket granularity — through
// per-packet admission and through the batched path alike (staging and
// multi-slot ring claims must not cost a single inversion).
func TestShapedShardedPriorityFidelity(t *testing.T) {
	opt := ShapedShardedOptions{
		Shards: 8, ShaperBuckets: 2500, HorizonNs: horizon,
		SchedBuckets: 2048, RankSpan: 1 << 20, RingBits: 10,
	}
	for _, mode := range []string{modePerPacket, modeBatched} {
		q := mkShapedFront(opt)
		publish(t, q, shapedPackets(8, 2000, 1<<20), mode)
		ranks := drainRanks(func(out []*pkt.Packet) int { return q.GroupDequeueBatch(0, horizon, out) })
		if n, _ := inversions(ranks, opt.schedGran()); len(ranks) != 16000 || n != 0 {
			t.Fatalf("%s: released %d of 16000, %d priority inversions beyond bucket granularity", mode, len(ranks), n)
		}
		if q.Len() != 0 {
			t.Fatalf("%s: Len = %d after drain", mode, q.Len())
		}
		if st := q.Stats(); mode == modeBatched && st.BulkClaims == 0 {
			t.Fatal("batched admission performed no bulk claims")
		}
	}
}

// TestShapedTreeFidelity runs the same fidelity check on the Locked tree
// baseline.
func TestShapedTreeFidelity(t *testing.T) {
	q := NewLocked(NewShapedTree(ShapedShardedOptions{
		ShaperBuckets: 2500, HorizonNs: horizon,
		SchedBuckets: 2048, RankSpan: 1 << 20,
	}))
	for _, set := range shapedPackets(4, 1000, 1<<20) {
		for _, p := range set {
			q.Enqueue(p, 0)
		}
	}
	ranks := drainRanks(func(out []*pkt.Packet) int {
		if out[0] = q.Dequeue(horizon); out[0] != nil {
			return 1
		}
		return 0
	})
	if n, _ := inversions(ranks, uint64(1<<20)/(2*2048)); len(ranks) != 4000 || n != 0 {
		t.Fatalf("released %d of 4000, %d priority inversions beyond bucket granularity", len(ranks), n)
	}
}

// TestShapedShardedApproxInversionBound runs 8 producers admitting in
// batches through the shaped front at a fine and a coarse scheduler bucket
// width, then drains with everything eligible: nothing is lost, and no
// packet is overtaken by more than the width's analytic bound. It asserts
// the bound, not the count: how many packets a width inverts depends on
// how the producers interleave.
func TestShapedShardedApproxInversionBound(t *testing.T) {
	const producers, perProducer, rankSpan = 8, 2000, uint64(1) << 20
	for _, w := range []struct {
		name    string
		buckets int
	}{{"vec", 256}, {"coarse", 32}} {
		t.Run(w.name, func(t *testing.T) {
			opt := ShapedShardedOptions{
				Shards: 8, ShaperBuckets: 2500, HorizonNs: horizon,
				SchedBuckets: w.buckets, RankSpan: rankSpan, RingBits: 10,
			}
			q := mkShapedFront(opt)
			publish(t, q, shapedPackets(producers, perProducer, rankSpan), modeBatched)
			ranks := drainRanks(func(out []*pkt.Packet) int { return q.GroupDequeueBatch(0, horizon, out) })
			if len(ranks) != producers*perProducer || q.Len() != 0 {
				t.Fatalf("released %d of %d, Len = %d", len(ranks), producers*perProducer, q.Len())
			}
			n, worst := inversions(ranks, 1)
			if bound := opt.SchedInversionBound(); worst > bound {
				t.Fatalf("worst inversion %d rank units exceeds the analytic bound %d (%d inversions)", worst, bound, n)
			}
			t.Logf("%d inversions, worst %d rank units, bound %d", n, worst, opt.SchedInversionBound())
		})
	}
}

// TestMultiShapedRejectsUnknownBackend: SchedVec is SchedBackendKind's
// only value; the constructor panics on any other rather than run a store
// the caller did not ask for.
func TestMultiShapedRejectsUnknownBackend(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMultiShaped accepted SchedBackendKind(1)")
		}
	}()
	NewMultiShaped(MultiShapedOptions{ShapedShardedOptions: ShapedShardedOptions{SchedBackend: SchedVec + 1}})
}
