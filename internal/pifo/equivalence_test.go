package pifo_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eiffel/internal/pifo"
	"eiffel/internal/pkt"
	"eiffel/internal/policy"
	"eiffel/internal/queue"
)

// buildEDFTree builds the same single-leaf EDF scheduler over a given
// queue backend.
func buildEDFTree(kind queue.Kind) (*pifo.Tree, *pifo.Class) {
	tr := pifo.NewTree(pifo.TreeOptions{
		RootRanker: policy.WFQ{},
		RootQueue:  queue.Config{NumBuckets: 1 << 10, Granularity: 1},
	})
	leaf := tr.NewPacketLeaf(nil, policy.EDF{}, pifo.ClassOptions{
		Name:      "edf",
		QueueKind: kind,
		Queue:     queue.Config{NumBuckets: 1 << 12, Granularity: 1},
	})
	return tr, leaf
}

// TestQuickBackendEquivalence drives an identical random workload through
// cFFS-, BH-, and binary-heap-backed schedulers: at granularity 1 every
// exact backend must release packets in the identical deadline order
// (FIFO within equal deadlines for the bucketed kinds; the heap may
// reorder ties, so ties are excluded by construction).
func TestQuickBackendEquivalence(t *testing.T) {
	kinds := []queue.Kind{queue.KindCFFS, queue.KindBH, queue.KindBinaryHeap}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 300
		// Distinct deadlines (shuffled permutation) to exclude ties.
		deadlines := rng.Perm(4000)[:n]

		var orders [][]int64
		for _, k := range kinds {
			tr, leaf := buildEDFTree(k)
			pool := pkt.NewPool(n)
			queued := 0
			var order []int64
			di := 0
			for len(order) < n {
				if di < n && (queued == 0 || rng.Intn(2) == 0) {
					p := pool.Get()
					p.Size = 100
					p.Deadline = int64(deadlines[di])
					di++
					queued++
					tr.Enqueue(leaf, p, 0)
				} else {
					p := tr.Dequeue(0)
					if p == nil {
						return false
					}
					queued--
					order = append(order, p.Deadline)
				}
			}
			orders = append(orders, order)
			// Consume identical random decisions for every backend.
			rng = rand.New(rand.NewSource(seed))
			rng.Perm(4000)
		}
		for i := 1; i < len(orders); i++ {
			for j := range orders[0] {
				if orders[i][j] != orders[0][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestShaperBackendEquivalence: the same paced workload through a cFFS
// shaper and an approximate shaper must release the same packets with
// bucket-level timing agreement.
func TestShaperBackendEquivalence(t *testing.T) {
	release := func(kind queue.Kind) []int64 {
		tr := pifo.NewTree(pifo.TreeOptions{
			RootRanker:        policy.WFQ{},
			RootQueue:         queue.Config{NumBuckets: 1 << 10, Granularity: 1},
			ShaperBuckets:     1 << 12,
			ShaperGranularity: 1000,
		})
		leaf := tr.NewTimeGatedLeaf(nil, pifo.ClassOptions{
			Name:      "paced",
			QueueKind: kind,
			Queue:     queue.Config{NumBuckets: 1 << 12, Granularity: 1000},
		})
		pool := pkt.NewPool(64)
		for i := 1; i <= 20; i++ {
			p := pool.Get()
			p.Size = 100
			p.SendAt = int64(i) * 7_000
			tr.Enqueue(leaf, p, 0)
		}
		var times []int64
		for now := int64(0); now < 300_000 && len(times) < 20; now += 500 {
			for {
				p := tr.Dequeue(now)
				if p == nil {
					break
				}
				times = append(times, now)
			}
		}
		return times
	}
	exact := release(queue.KindCFFS)
	approx := release(queue.KindCApprox)
	if len(exact) != 20 || len(approx) != 20 {
		t.Fatalf("released %d / %d of 20", len(exact), len(approx))
	}
	for i := range exact {
		d := exact[i] - approx[i]
		if d < -2000 || d > 2000 {
			t.Fatalf("release %d diverged: %d vs %d", i, exact[i], approx[i])
		}
	}
}
