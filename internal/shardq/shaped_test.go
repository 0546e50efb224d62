package shardq

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"eiffel/internal/bucket"
	"eiffel/internal/ffsq"
	"eiffel/internal/queue"
)

func newShapedQ(shards int, ringBits uint) *Shaped {
	return NewShaped(ShapedOptions{
		NumShards: shards,
		RingBits:  ringBits,
		Shaper:    queue.Config{NumBuckets: 1 << 12, Granularity: 1},
		Sched:     queue.Config{NumBuckets: 1 << 12, Granularity: 1},
		Pair:      pairElem,
	})
}

func TestShapedNeedsPair(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewShaped without Pair did not panic")
		}
	}()
	NewShaped(ShapedOptions{})
}

// TestShapedGatesOnSendAt checks the decoupling contract: an element never
// comes out before its release time, and once eligible it comes out by
// priority, not by release time.
func TestShapedGatesOnSendAt(t *testing.T) {
	q := newShapedQ(4, 6)
	// Three elements: released at t=100 with LOW priority, at t=200 with
	// HIGH priority (smaller rank), at t=300 in between.
	a := newElem(100, 30)
	b := newElem(200, 10)
	c := newElem(300, 20)
	q.Enqueue(1, &a.timer, a.sendAt, a.rank)
	q.Enqueue(2, &b.timer, b.sendAt, b.rank)
	q.Enqueue(3, &c.timer, c.sendAt, c.rank)
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}

	if n := popMin(q.Core, 50); n != nil {
		t.Fatalf("popMin(50) released rank %d before any sendAt", n.Rank())
	}
	if r, inSched, ok := q.GroupPeek(0, 50); !ok || inSched || r != 100 {
		t.Fatalf("GroupPeek(50) = (%d,%v,%v), want the shaper release (100,false,true)", r, inSched, ok)
	}

	// At t=150 only a is eligible, despite its low priority.
	if n := popMin(q.Core, 150); n == nil || n.Data.(*elem) != a {
		t.Fatalf("popMin(150) = %v, want element a", n)
	}
	// At t=350 both b and c are eligible: priority order, b (rank 10) first.
	if n := popMin(q.Core, 350); n == nil || n.Data.(*elem) != b {
		t.Fatal("popMin(350) should serve the highest-priority eligible element")
	}
	if n := popMin(q.Core, 350); n == nil || n.Data.(*elem) != c {
		t.Fatal("popMin(350) should then serve c")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
	if st := q.Stats(); st.Migrated != 3 {
		t.Fatalf("Migrated = %d, want 3", st.Migrated)
	}
}

// TestShapedMergedPriorityOrder fills many shards single-threaded with
// everything already due and checks the merged drain is globally sorted by
// priority — under both scheduler stores (the default fixed-range vector
// buckets and a circular cFFS handed in as SchedBackend).
func TestShapedMergedPriorityOrder(t *testing.T) {
	for _, moving := range []bool{false, true} {
		t.Run(map[bool]string{false: "vec", true: "cffs"}[moving], func(t *testing.T) {
			testShapedMergedPriorityOrder(t, moving)
		})
	}
}

func testShapedMergedPriorityOrder(t *testing.T, moving bool) {
	opt := ShapedOptions{
		NumShards: 4,
		RingBits:  6,
		Shaper:    queue.Config{NumBuckets: 1 << 12, Granularity: 1},
		Sched:     queue.Config{NumBuckets: 1 << 12, Granularity: 1},
		Pair:      pairElem,
	}
	if moving {
		opt.SchedBackend = func(int) Scheduler {
			return ffsq.NewCFFS(ffsq.CFFSOptions{NumBuckets: 1 << 12, Granularity: 1})
		}
	}
	q := NewShaped(opt)
	rng := rand.New(rand.NewSource(11))
	const n = 5000
	for i := 0; i < n; i++ {
		e := newElem(uint64(rng.Intn(1000)), uint64(rng.Intn(1<<11)))
		q.Enqueue(uint64(i), &e.timer, e.sendAt, e.rank)
	}
	out := make([]*bucket.Node, 64)
	var last uint64
	got := 0
	for {
		k := q.GroupDequeueBatch(0, 1000, ^uint64(0), out)
		if k == 0 {
			break
		}
		for _, nd := range out[:k] {
			e := nd.Data.(*elem)
			if nd != &e.sched && nd != &e.timer {
				t.Fatal("GroupDequeueBatch must return one of the element's handles")
			}
			if got > 0 && e.rank < last {
				t.Fatalf("position %d: rank %d after %d (priority inversion)", got, e.rank, last)
			}
			last = e.rank
			got++
		}
	}
	if got != n {
		t.Fatalf("drained %d, want %d", got, n)
	}
	if _, _, ok := q.GroupPeek(0, 1000); q.Len() != 0 || ok {
		t.Fatalf("Len=%d, head reported=%v after drain", q.Len(), ok)
	}
}

// TestShapedMaxRankBound checks the priority bound of GroupDequeueBatch:
// eligible elements beyond maxRank stay queued in the schedulers.
func TestShapedMaxRankBound(t *testing.T) {
	q := newShapedQ(2, 6)
	for i := 0; i < 100; i++ {
		e := newElem(0, uint64(i))
		q.Enqueue(uint64(i), &e.timer, e.sendAt, e.rank)
	}
	out := make([]*bucket.Node, 200)
	if k := q.GroupDequeueBatch(0, 10, 49, out); k != 50 {
		t.Fatalf("GroupDequeueBatch(maxRank=49) = %d, want 50", k)
	}
	if r, inSched, ok := q.GroupPeek(0, 10); !ok || !inSched || r != 50 || q.Len() != 50 {
		t.Fatalf("GroupPeek = (%d,%v,%v) Len = %d, want rank 50 heading 50 still scheduled", r, inSched, ok, q.Len())
	}
	if k := q.GroupDequeueBatch(0, 10, ^uint64(0), out); k != 50 {
		t.Fatalf("second GroupDequeueBatch = %d, want 50", k)
	}
}

// TestShapedRingFullFallback forces the producer fallback with a tiny ring
// and no consumer: priorities parked beside the handles in the shaper must
// survive the detour through the shard lock.
func TestShapedRingFullFallback(t *testing.T) {
	q := NewShaped(ShapedOptions{
		NumShards: 1,
		RingBits:  2, // 4 slots
		Shaper:    queue.Config{NumBuckets: 1 << 10, Granularity: 1},
		Sched:     queue.Config{NumBuckets: 1 << 10, Granularity: 1},
		Pair:      pairElem,
	})
	const n = 100
	for i := 0; i < n; i++ {
		e := newElem(uint64(i), uint64(n-1-i)) // inverted priority
		q.Enqueue(0, &e.timer, e.sendAt, e.rank)
	}
	if st := q.Stats(); st.RingFull == 0 {
		t.Fatalf("expected ring-full fallbacks, stats: %v", st)
	}
	out := make([]*bucket.Node, n)
	if k := q.GroupDequeueBatch(0, uint64(n), ^uint64(0), out); k != n {
		t.Fatalf("drained %d, want %d", k, n)
	}
	for i, nd := range out {
		if e := nd.Data.(*elem); e.rank != uint64(i) {
			t.Fatalf("position %d: rank %d (fallback lost the stashed priority)", i, e.rank)
		}
	}
}

// TestShapedConcurrentProducersDrain: 8 producers publish two-key
// elements, one consumer migrates and drains, nothing lost.
func TestShapedConcurrentProducersDrain(t *testing.T) {
	const producers = 8
	const perProducer = 4000
	q := newShapedQ(8, 6)

	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perProducer; i++ {
				e := newElem(uint64(rng.Intn(1<<11)), uint64(rng.Intn(1<<11)))
				q.Enqueue(uint64(w*perProducer+i), &e.timer, e.sendAt, e.rank)
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	out := make([]*bucket.Node, 256)
	consumed := 0
	producersDone := false
	for consumed < producers*perProducer {
		k := q.GroupDequeueBatch(0, 1<<11, ^uint64(0), out)
		consumed += k
		if k > 0 {
			continue
		}
		if producersDone {
			t.Fatalf("consumed %d of %d with producers done", consumed, producers*perProducer)
		}
		select {
		case <-done:
			producersDone = true
		default:
		}
		runtime.Gosched()
	}
	wg.Wait()
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
	st := q.Stats()
	if st.Migrated != producers*perProducer {
		t.Fatalf("Migrated = %d, want %d", st.Migrated, producers*perProducer)
	}
	if st.Batched != producers*perProducer {
		t.Fatalf("Batched = %d, want %d", st.Batched, producers*perProducer)
	}
}
