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
	for _, q := range []Qdisc{sharded, tree} {
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
	q := mkShapedFront(ShapedShardedOptions{
		Shards: 2, ShaperBuckets: 1000, HorizonNs: 2000,
		SchedBuckets: 512, RankSpan: 1024,
	})
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

// TestShapedShardedPriorityFidelity is the acceptance assertion: 8
// concurrent producers publish packets with horizon-spread release times
// and uncorrelated priorities; the post-publication drain must show ZERO
// priority inversions beyond the scheduler bucket granularity — through
// per-packet admission and through the batched path alike (staging and
// multi-slot ring claims must not cost a single inversion).
func TestShapedShardedPriorityFidelity(t *testing.T) {
	opt := ShapedShardedOptions{
		Shards: 8, ShaperBuckets: 2500, HorizonNs: 2e9,
		SchedBuckets: 2048, RankSpan: 1 << 20, RingBits: 10,
	}
	for _, batch := range []int{0, 128} {
		q := mkShapedFront(opt)
		packets := ShapedPackets(8, 2000, 1<<20)
		released, inversions := ReplayPriorityFidelityOpts(q, packets, opt.schedGran(),
			ContentionOptions{ProducerBatch: batch})
		if released != 16000 {
			t.Fatalf("batch=%d: released %d of 16000", batch, released)
		}
		if inversions != 0 {
			t.Fatalf("batch=%d: %d priority inversions beyond bucket granularity", batch, inversions)
		}
		if q.Len() != 0 {
			t.Fatalf("batch=%d: Len = %d after drain", batch, q.Len())
		}
		if st := q.Stats(); batch > 0 && st.BulkClaims == 0 {
			t.Fatal("batched admission performed no bulk claims")
		}
	}
}

// TestShapedTreeFidelity runs the same fidelity check on the Locked tree
// baseline, so the experiment's two columns verify the same contract.
func TestShapedTreeFidelity(t *testing.T) {
	q := NewLocked(NewShapedTree(ShapedShardedOptions{
		ShaperBuckets: 2500, HorizonNs: 2e9,
		SchedBuckets: 2048, RankSpan: 1 << 20,
	}))
	packets := ShapedPackets(4, 1000, 1<<20)
	gran := uint64(1<<20) / (2 * 2048)
	released, inversions := ReplayPriorityFidelity(q, packets, gran)
	if released != 4000 {
		t.Fatalf("released %d of 4000", released)
	}
	if inversions != 0 {
		t.Fatalf("%d priority inversions beyond bucket granularity", inversions)
	}
}

// TestShapedShardedContention smoke-tests the throughput harness path the
// shapedsched experiment uses.
func TestShapedShardedContention(t *testing.T) {
	q := mkShapedFront(ShapedShardedOptions{
		Shards: 4, ShaperBuckets: 1000, HorizonNs: 2e9, SchedBuckets: 1024,
	})
	res := ReplayContention(q, ShapedPackets(4, 500, 1<<20))
	if res.Packets != 2000 {
		t.Fatalf("Packets = %d", res.Packets)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after run", q.Len())
	}
	if q.Stats().Migrated == 0 {
		t.Fatal("no packets migrated shaper→scheduler")
	}
}
