package shardq

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"eiffel/internal/bucket"
	"eiffel/internal/queue"
)

func newTestQ(shards int) *Q {
	return New(Options{
		NumShards: shards,
		RingBits:  6,
		Kind:      queue.KindCFFS,
		Queue:     queue.Config{NumBuckets: 1 << 12, Granularity: 1},
	})
}

func TestShardRounding(t *testing.T) {
	if got := New(Options{NumShards: 5}).NumShards(); got != 8 {
		t.Fatalf("NumShards(5) rounded to %d, want 8", got)
	}
	if got := New(Options{}).NumShards(); got != 8 {
		t.Fatalf("default NumShards = %d, want 8", got)
	}
	if got := New(Options{NumShards: 4}).NumShards(); got != 4 {
		t.Fatalf("NumShards(4) = %d, want 4", got)
	}
}

// TestNewRejectsNonSchedulerKind: a queue kind that is not itself a
// Scheduler is refused when the runtime is built, and the message points
// at the hook that takes any other structure.
func TestNewRejectsNonSchedulerKind(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Options.Backend") {
			t.Fatalf("New with KindBinaryHeap: recovered %q, want a panic naming Options.Backend", msg)
		}
	}()
	New(Options{NumShards: 2, Kind: queue.KindBinaryHeap, Queue: queue.Config{NumBuckets: 64, Granularity: 1}})
}

func TestShardForSpreads(t *testing.T) {
	q := newTestQ(8)
	var hits [8]int
	for flow := uint64(0); flow < 8000; flow++ {
		hits[q.ShardFor(flow)]++
	}
	for i, h := range hits {
		if h < 500 || h > 1500 {
			t.Fatalf("shard %d got %d of 8000 sequential flows; want near 1000", i, h)
		}
	}
}

// TestDrainOrder checks that a single-threaded fill/drain comes out in
// global ascending rank order even though ranks are striped over shards.
func TestDrainOrder(t *testing.T) {
	q := newTestQ(4)
	rng := rand.New(rand.NewSource(7))
	const n = 5000
	ranks := make([]uint64, n)
	for i := range ranks {
		ranks[i] = uint64(rng.Intn(1 << 11))
		q.Enqueue(uint64(i), &bucket.Node{}, ranks[i])
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })

	out := make([]*bucket.Node, 64)
	var got []uint64
	for {
		k := q.GroupDequeueBatch(0, ^uint64(0), out)
		if k == 0 {
			break
		}
		for _, n := range out[:k] {
			got = append(got, n.Rank())
		}
	}
	if len(got) != n {
		t.Fatalf("drained %d, want %d", len(got), n)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
	for i := range got {
		if got[i] != ranks[i] {
			t.Fatalf("position %d: rank %d, want %d (global order violated)", i, got[i], ranks[i])
		}
	}
}

func TestDequeueBatchRespectsMaxRank(t *testing.T) {
	q := newTestQ(4)
	for i := 0; i < 100; i++ {
		q.Enqueue(uint64(i), &bucket.Node{}, uint64(i))
	}
	out := make([]*bucket.Node, 200)
	k := q.GroupDequeueBatch(0, 49, out)
	if k != 50 {
		t.Fatalf("GroupDequeueBatch(maxRank=49) = %d, want 50", k)
	}
	for _, n := range out[:k] {
		if n.Rank() > 49 {
			t.Fatalf("released rank %d beyond maxRank 49", n.Rank())
		}
	}
	if q.Len() != 50 {
		t.Fatalf("Len = %d, want 50", q.Len())
	}
}

// TestEmptiedShardKeepsBurstOrder: a consumer that keeps up drains a shard
// empty on every call, at a bound that is no clock (^0, or the next shard's
// head). The burst that follows must still come out by rank: the default
// cFFS backend's emptied window follows that bound, and must come back to
// the burst's first arrival with room below it for the rest.
func TestEmptiedShardKeepsBurstOrder(t *testing.T) {
	q := New(Options{NumShards: 1})
	out := make([]*bucket.Node, 16)
	q.Enqueue(1, &bucket.Node{}, 900)
	if k := q.GroupDequeueBatch(0, ^uint64(0), out); k != 1 {
		t.Fatalf("drained %d, want 1", k)
	}
	for _, r := range []uint64{1000, 998, 999, 990, 1005} {
		q.Enqueue(1, &bucket.Node{}, r)
	}
	var got []uint64
	for _, n := range out[:q.GroupDequeueBatch(0, ^uint64(0), out)] {
		got = append(got, n.Rank())
	}
	if want := []uint64{990, 998, 999, 1000, 1005}; !reflect.DeepEqual(got, want) {
		t.Fatalf("burst after an emptying drain came out %v, want %v", got, want)
	}

	// Two shards: the merge drains flow a's shard empty at a bound of 5000,
	// flow b's head. Ranks below 5000 keep arriving for a, behind one above.
	q = newTestQ(2)
	a, b := uint64(0), uint64(1)
	for q.ShardFor(b) == q.ShardFor(a) {
		b++
	}
	q.Enqueue(a, &bucket.Node{}, 100)
	q.Enqueue(b, &bucket.Node{}, 5000)
	if k := q.GroupDequeueBatch(0, ^uint64(0), out); k != 2 {
		t.Fatalf("drained %d, want 2", k)
	}
	for _, r := range []uint64{5100, 3000, 2990} {
		q.Enqueue(a, &bucket.Node{}, r)
	}
	got = got[:0]
	for _, n := range out[:q.GroupDequeueBatch(0, ^uint64(0), out)] {
		got = append(got, n.Rank())
	}
	if want := []uint64{2990, 3000, 5100}; !reflect.DeepEqual(got, want) {
		t.Fatalf("burst after a shard emptied at the next shard's head came out %v, want %v", got, want)
	}
}

func TestMinRankAggregates(t *testing.T) {
	q := newTestQ(4)
	if _, ok := q.GroupMinRank(0); ok {
		t.Fatal("GroupMinRank ok on empty runtime")
	}
	q.Enqueue(1, &bucket.Node{}, 300)
	q.Enqueue(2, &bucket.Node{}, 100)
	q.Enqueue(3, &bucket.Node{}, 200)
	if r, ok := q.GroupMinRank(0); !ok || r != 100 {
		t.Fatalf("GroupMinRank = (%d, %v), want (100, true)", r, ok)
	}
	if n := popMin(q.Core, 0); n == nil || n.Rank() != 100 {
		t.Fatalf("popMin rank = %v", n)
	}
	if r, ok := q.GroupMinRank(0); !ok || r != 200 {
		t.Fatalf("GroupMinRank after pop = (%d, %v), want (200, true)", r, ok)
	}
}

// TestRingFullFallback forces the producer-side flush path with a tiny
// ring and no consumer.
func TestRingFullFallback(t *testing.T) {
	q := New(Options{
		NumShards: 1,
		RingBits:  2, // 4 slots
		Kind:      queue.KindCFFS,
		Queue:     queue.Config{NumBuckets: 1 << 10, Granularity: 1},
	})
	const n = 100
	for i := 0; i < n; i++ {
		q.Enqueue(0, &bucket.Node{}, uint64(i))
	}
	st := q.Stats()
	if st.RingFull == 0 {
		t.Fatalf("expected ring-full fallbacks, stats: %v", st)
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
	out := make([]*bucket.Node, n)
	if k := q.GroupDequeueBatch(0, ^uint64(0), out); k != n {
		t.Fatalf("drained %d, want %d", k, n)
	}
	for i, nd := range out {
		if nd.Rank() != uint64(i) {
			t.Fatalf("position %d: rank %d", i, nd.Rank())
		}
	}
}

// TestTimerServesSettledBeforeRing pins what survives of the direct-due
// starvation regression on the timer runtime: a settled due element is
// never starved (or overtaken) by ring traffic — a batch that could fill
// entirely from the ring hands out the queue's due backlog first — due ring
// entries then come out in ring order without touching the queue, the
// not-yet-due one parks, and everything drains. (GroupMinRank between batches
// would settle the ring into the queue; the front-level twin of this test,
// TestTimerNextTimerWhileDueRemain, covers that answer.)
func TestTimerServesSettledBeforeRing(t *testing.T) {
	q := NewTimer(Options{
		NumShards: 1,
		RingBits:  3, // 8 slots
		Queue:     queue.Config{NumBuckets: 1 << 10, Granularity: 1},
	})
	// Pre-stamp each node's rank: the bypass delivers nodes straight off
	// the ring, where the rank travels in the ring entry and is never
	// written back to the node.
	enq := func(rank uint64) {
		n := &bucket.Node{}
		n.SetRank(rank)
		q.Enqueue(0, n, rank)
	}
	// Nine enqueues: the ninth finds the ring full and settles everything
	// (ranks 0..8) into the bucketed queue via the producer fallback,
	// leaving the ring empty...
	for i := 0; i < 9; i++ {
		enq(uint64(i))
	}
	if st := q.Stats(); st.RingFull != 1 {
		t.Fatalf("setup: RingFull = %d, want exactly 1", st.RingFull)
	}
	// ...then exactly refill the ring with strictly newer elements, so a
	// ring-sized batch could be satisfied from the ring alone. The last one
	// is not due at the drain bound.
	for i := 100; i < 108; i++ {
		enq(uint64(i))
	}
	const due = 106
	want := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 100, 101, 102, 103, 104, 105, 106}
	out := make([]*bucket.Node, 8)
	var got []uint64
	for {
		k := q.GroupDequeueBatch(0, due, out)
		if k == 0 {
			break
		}
		for _, n := range out[:k] {
			got = append(got, n.Rank())
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drained %v at bound %d, want %v (settled first, then the ring in order)", got, due, want)
	}
	if st := q.Stats(); st.Direct != 7 {
		t.Fatalf("Direct = %d, want the 7 due ring entries", st.Direct)
	}
	if r, ok := q.GroupMinRank(0); !ok || r != 107 || q.Len() != 1 {
		t.Fatalf("GroupMinRank = (%d,%v), Len = %d: want the one parked element at 107", r, ok, q.Len())
	}
	if k := q.GroupDequeueBatch(0, 107, out); k != 1 || out[0].Rank() != 107 || q.Len() != 0 {
		t.Fatalf("drained %d at 107 (Len %d), want the parked element", k, q.Len())
	}
}

// TestConcurrentProducersDrain is the sharded counterpart of the qdisc
// regression test: many producers, one consumer, nothing lost.
func TestConcurrentProducersDrain(t *testing.T) {
	const producers = 8
	const perProducer = 4000
	q := newTestQ(8)

	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Enqueue(uint64(w*perProducer+i), &bucket.Node{}, uint64(i))
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	out := make([]*bucket.Node, 256)
	consumed := 0
	producersDone := false
	for consumed < producers*perProducer {
		k := q.GroupDequeueBatch(0, ^uint64(0), out)
		consumed += k
		if k > 0 {
			continue
		}
		if producersDone {
			// All publications completed before this empty drain, and
			// GroupDequeueBatch flushes every ring — nothing can be in flight.
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
	if st.Batched != producers*perProducer {
		t.Fatalf("Batched = %d, want %d", st.Batched, producers*perProducer)
	}
	if st.RingPushes+st.RingFull != producers*perProducer {
		t.Fatalf("pushes %d + ringfull %d != %d", st.RingPushes, st.RingFull, producers*perProducer)
	}
}

// TestCrossShardOrderUnderFallback is the randomized cross-shard ordering
// property test: the consumer drains window after window in exact mode
// while producers — squeezed through deliberately tiny rings so their
// fallback flushes constantly land mid-batch, bumping the fallback
// generation the consumer's head cache keys on — publish the NEXT window
// concurrently. Every window is fully published before the consumer
// drains it and the drain bound caps each batch at the window edge, so
// the merged output must be globally non-inverting to bucket granularity;
// an element missed because a stale cached head hid a fallback flush
// would surface as a count mismatch or an inversion in a later window.
func TestCrossShardOrderUnderFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized multi-round concurrency property test")
	}
	const (
		producers = 2
		rounds    = 60
		perRound  = 400
		window    = uint64(1 << 12)
		gran      = uint64(4)
	)
	q := New(Options{
		NumShards: 4,
		RingBits:  3, // 8 slots: almost every burst overflows into fallback
		Kind:      queue.KindCFFS,
		Queue:     queue.Config{NumBuckets: 1 << 12, Granularity: gran},
	})

	rng := rand.New(rand.NewSource(42))
	// Pre-generate each round's (flow, rank) pairs so producer goroutines
	// need no locked rng.
	type item struct {
		flow, rank uint64
	}
	work := make([][][]item, producers)
	for w := range work {
		work[w] = make([][]item, rounds)
		for r := range work[w] {
			items := make([]item, perRound/producers)
			for i := range items {
				items[i] = item{
					flow: rng.Uint64(),
					rank: uint64(r)*window + uint64(rng.Intn(int(window))),
				}
			}
			work[w][r] = items
		}
	}

	var published [producers]atomic.Int64 // highest round fully published, per producer
	var consumed atomic.Int64             // highest round fully drained
	for w := 0; w < producers; w++ {
		published[w].Store(-1)
	}
	consumed.Store(-1)

	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stay at most two rounds ahead of the consumer so the
				// publishing of round r+1 overlaps the draining of round r.
				for int64(r) > consumed.Load()+2 {
					runtime.Gosched()
				}
				for _, it := range work[w][r] {
					q.Enqueue(it.flow, &bucket.Node{}, it.rank)
				}
				published[w].Store(int64(r))
			}
		}(w)
	}

	out := make([]*bucket.Node, 97) // odd batch size: batches straddle windows
	var got []uint64
	for r := 0; r < rounds; r++ {
		for {
			ready := true
			for w := range published {
				if published[w].Load() < int64(r) {
					ready = false
				}
			}
			if ready {
				break
			}
			runtime.Gosched()
		}
		bound := uint64(r+1)*window - 1
		drained := 0
		for drained < perRound {
			k := q.GroupDequeueBatch(0, bound, out)
			if k == 0 {
				t.Fatalf("round %d: drained %d of %d with the round fully published", r, drained, perRound)
			}
			for _, n := range out[:k] {
				got = append(got, n.Rank())
			}
			drained += k
		}
		if drained != perRound {
			t.Fatalf("round %d: drained %d, want %d", r, drained, perRound)
		}
		consumed.Store(int64(r))
	}
	wg.Wait()
	if len(got) != rounds*perRound {
		t.Fatalf("total drained %d, want %d", len(got), rounds*perRound)
	}
	for i := 1; i < len(got); i++ {
		if got[i]/gran < got[i-1]/gran {
			t.Fatalf("position %d: rank %d after %d — inversion beyond bucket granularity", i, got[i], got[i-1])
		}
	}
	if st := q.Stats(); st.RingFull == 0 {
		t.Fatal("rings never overflowed: the test did not exercise mid-batch fallback flushes")
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{RingPushes: 10, Batches: 2, Batched: 8}
	if got := s.String(); got == "" {
		t.Fatal("empty snapshot string")
	}
}
