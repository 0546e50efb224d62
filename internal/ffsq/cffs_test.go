package ffsq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"eiffel/internal/bucket"
	"eiffel/internal/workload"
)

func node(v uint64) *bucket.Node { return &bucket.Node{Data: v} }

func TestFixedOrdering(t *testing.T) {
	q := NewFixed(128, 1, 0)
	ranks := []uint64{5, 3, 99, 0, 3, 127, 64}
	for _, r := range ranks {
		q.Enqueue(node(r), r)
	}
	sorted := append([]uint64{}, ranks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, want := range sorted {
		n := q.DequeueMin()
		if n == nil || n.Rank() != want {
			t.Fatalf("dequeue %d: got %v, want rank %d", i, n, want)
		}
	}
	if q.DequeueMin() != nil {
		t.Fatal("queue should be empty")
	}
}

func TestFixedMaxAndClamp(t *testing.T) {
	q := NewFixed(10, 10, 100) // covers [100, 200)
	q.Enqueue(node(5), 5)      // clamps low -> bucket 0
	q.Enqueue(node(150), 150)
	q.Enqueue(node(999), 999) // clamps high -> bucket 9
	if n := q.DequeueMax(); n.Rank() != 999 {
		t.Fatalf("DequeueMax rank = %d, want 999", n.Rank())
	}
	if n := q.DequeueMin(); n.Rank() != 5 {
		t.Fatalf("DequeueMin rank = %d, want 5", n.Rank())
	}
	if r, ok := q.PeekMin(); !ok || r != 150 {
		t.Fatalf("PeekMin = (%d,%v), want (150,true)", r, ok)
	}
}

func TestFixedFIFOWithinBucket(t *testing.T) {
	q := NewFixed(4, 100, 0)
	a, b, c := node(1), node(2), node(3)
	q.Enqueue(a, 150) // bucket 1
	q.Enqueue(b, 199) // bucket 1
	q.Enqueue(c, 101) // bucket 1
	for i, want := range []*bucket.Node{a, b, c} {
		if got := q.DequeueMin(); got != want {
			t.Fatalf("dequeue %d: FIFO within bucket violated", i)
		}
	}
}

func TestFixedRemove(t *testing.T) {
	q := NewFixed(16, 1, 0)
	n1, n2 := node(3), node(3)
	q.Enqueue(n1, 3)
	q.Enqueue(n2, 3)
	q.Remove(n1)
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	if got := q.DequeueMin(); got != n2 {
		t.Fatal("expected n2 after removing n1")
	}
	if n2.Queued() {
		t.Fatal("dequeued node should not be queued")
	}
}

func TestCFFSBasicOrdering(t *testing.T) {
	q := NewCFFS(CFFSOptions{NumBuckets: 8, Granularity: 1})
	ranks := []uint64{4, 1, 7, 2, 2, 0}
	for _, r := range ranks {
		q.Enqueue(node(r), r)
	}
	var got []uint64
	for {
		n := q.DequeueMin()
		if n == nil {
			break
		}
		got = append(got, n.Rank())
	}
	want := []uint64{0, 1, 2, 2, 4, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestCFFSRotation(t *testing.T) {
	q := NewCFFS(CFFSOptions{NumBuckets: 4, Granularity: 1})
	// Fill primary [0,4) and secondary [4,8).
	for r := uint64(0); r < 8; r++ {
		q.Enqueue(node(r), r)
	}
	for r := uint64(0); r < 8; r++ {
		n := q.DequeueMin()
		if n.Rank() != r {
			t.Fatalf("rank %d, want %d", n.Rank(), r)
		}
	}
	rot, _, _, _ := q.Stats()
	if rot == 0 {
		t.Fatal("expected at least one rotation")
	}
}

func TestCFFSOverflowRedistribution(t *testing.T) {
	q := NewCFFS(CFFSOptions{NumBuckets: 4, Granularity: 1})
	// Window is [0,8). 9 and 10 overflow; after draining and rotating they
	// must come out in true rank order thanks to redistribution.
	for _, r := range []uint64{0, 10, 9, 5} {
		q.Enqueue(node(r), r)
	}
	_, ovf, _, _ := q.Stats()
	if ovf != 2 {
		t.Fatalf("overflows = %d, want 2", ovf)
	}
	want := []uint64{0, 5, 9, 10}
	for i, w := range want {
		n := q.DequeueMin()
		if n == nil || n.Rank() != w {
			t.Fatalf("dequeue %d: got %v, want %d", i, n, w)
		}
	}
}

func TestCFFSFastForward(t *testing.T) {
	q := NewCFFS(CFFSOptions{NumBuckets: 8, Granularity: 1})
	q.Enqueue(node(0), 0)
	// Very far ahead: would need ~1e6/8 rotations without fast-forward.
	q.Enqueue(node(1000000), 1000000)
	q.Enqueue(node(1000005), 1000005)
	if n := q.DequeueMin(); n.Rank() != 0 {
		t.Fatalf("first = %d", n.Rank())
	}
	if n := q.DequeueMin(); n.Rank() != 1000000 {
		t.Fatalf("second = %d", n.Rank())
	}
	_, _, ff, _ := q.Stats()
	if ff == 0 {
		t.Fatal("expected a fast-forward")
	}
	if n := q.DequeueMin(); n.Rank() != 1000005 {
		t.Fatalf("third = %d", n.Rank())
	}
}

func TestCFFSStragglerClamped(t *testing.T) {
	q := NewCFFS(CFFSOptions{NumBuckets: 4, Granularity: 1, Start: 100})
	q.Enqueue(node(100), 100)
	q.Enqueue(node(103), 103)
	q.Enqueue(node(50), 50) // in the past: clamped to the front bucket
	// The straggler shares bucket 0 with rank 100 (FIFO) but must beat 103.
	if n := q.DequeueMin(); n.Rank() != 100 {
		t.Fatalf("first = %d, want 100 (FIFO head of front bucket)", n.Rank())
	}
	if n := q.DequeueMin(); n.Rank() != 50 {
		t.Fatalf("second = %d, want the clamped straggler", n.Rank())
	}
	if n := q.DequeueMin(); n.Rank() != 103 {
		t.Fatalf("third = %d, want 103", n.Rank())
	}
	_, _, _, clamped := q.Stats()
	if clamped != 1 {
		t.Fatalf("clampedLow = %d, want 1", clamped)
	}
}

func TestCFFSPeekMinQuantized(t *testing.T) {
	q := NewCFFS(CFFSOptions{NumBuckets: 8, Granularity: 100})
	q.Enqueue(node(557), 557)
	r, ok := q.PeekMin()
	if !ok || r != 500 {
		t.Fatalf("PeekMin = (%d,%v), want bucket start 500", r, ok)
	}
	if f := q.FrontMin(); f == nil || f.Rank() != 557 {
		t.Fatal("FrontMin should expose the head node")
	}
	if q.Len() != 1 {
		t.Fatal("peek must not remove")
	}
}

func TestCFFSRemove(t *testing.T) {
	q := NewCFFS(CFFSOptions{NumBuckets: 4, Granularity: 1})
	n1, n2, n3 := node(2), node(6), node(9)
	q.Enqueue(n1, 2) // primary
	q.Enqueue(n2, 6) // secondary
	q.Enqueue(n3, 9) // overflow
	q.Remove(n2)
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	if got := q.DequeueMin(); got != n1 {
		t.Fatal("want n1 first")
	}
	if got := q.DequeueMin(); got != n3 {
		t.Fatal("want n3 second")
	}
}

// TestQuickCFFSMonotonicWithProgression models the intended workload: a rank
// range that moves forward (timestamps). With redistribution enabled,
// dequeues must come out in nondecreasing bucket order even with overflow.
func TestQuickCFFSMonotonicWithProgression(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nb = 16
		const gran = 8
		q := NewCFFS(CFFSOptions{NumBuckets: nb, Granularity: gran})
		base := uint64(0)
		// floor is the model's lower bound for sortable enqueues: buckets
		// already served, and — since an empty queue re-anchors its window
		// at the first arrival — the bucket of any element enqueued while
		// the queue was empty. Ranks below it would be straggler-clamped
		// (served immediately), which the paper permits but this ordering
		// model excludes.
		floor := uint64(0)
		queued := 0
		for op := 0; op < 800; op++ {
			if rng.Intn(2) == 0 || queued == 0 {
				// Ranks drift forward, occasionally jumping past the window.
				r := base + uint64(rng.Intn(3*nb*gran))
				if r/gran < floor {
					r = floor * gran
				}
				if queued == 0 && r/gran > floor {
					floor = r / gran
				}
				q.Enqueue(node(r), r)
				queued++
				if rng.Intn(8) == 0 {
					base += uint64(rng.Intn(nb * gran))
				}
			} else {
				n := q.DequeueMin()
				if n == nil {
					return false
				}
				queued--
				b := n.Rank() / gran
				if b < floor {
					return false // went backwards
				}
				floor = b
			}
		}
		return q.Len() == queued
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCFFSDrainSorted enqueues a random batch then drains fully; the
// output bucket sequence must be sorted and contain every element.
func TestQuickCFFSDrainSorted(t *testing.T) {
	f := func(raw []uint32) bool {
		// Anchor the window at the smallest rank — and enqueue it first:
		// cFFS serves a forward-moving range, so ranks below the anchor
		// would (by design) be clamped rather than sorted, and an empty
		// queue re-anchors its window at whatever arrives first.
		lo := uint64(1 << 62)
		loIdx := -1
		for i, v := range raw {
			if r := uint64(v % 4096); r < lo {
				lo, loIdx = r, i
			}
		}
		q := NewCFFS(CFFSOptions{NumBuckets: 32, Granularity: 4, Start: lo})
		if loIdx >= 0 {
			raw[0], raw[loIdx] = raw[loIdx], raw[0]
		}
		for _, v := range raw {
			r := uint64(v % 4096)
			q.Enqueue(node(r), r)
		}
		last := uint64(0)
		count := 0
		for {
			n := q.DequeueMin()
			if n == nil {
				break
			}
			b := n.Rank() / 4
			if b < last {
				return false
			}
			last = b
			count++
		}
		return count == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCFFSEnqueueDequeue(b *testing.B) {
	q := NewCFFS(CFFSOptions{NumBuckets: 16384, Granularity: 1})
	nodes := make([]*bucket.Node, 1024)
	for i := range nodes {
		nodes[i] = &bucket.Node{}
	}
	rng := rand.New(rand.NewSource(1))
	for i, n := range nodes {
		q.Enqueue(n, uint64(i)+uint64(rng.Intn(8192)))
	}
	b.ResetTimer()
	base := uint64(8192)
	for i := 0; i < b.N; i++ {
		n := q.DequeueMin()
		base++
		q.Enqueue(n, base+uint64(rng.Intn(8192)))
	}
}

// TestCFFSEnqueueBatchEquivalent checks the batched enqueue hook against
// the per-element path: same elements, same ranks, same drain order, same
// counters — including the first-element empty-queue re-anchoring.
func TestCFFSEnqueueBatchEquivalent(t *testing.T) {
	mk := func() *CFFS { return NewCFFS(CFFSOptions{NumBuckets: 16, Granularity: 4}) }
	ranks := []uint64{500, 3, 99, 0, 3, 127, 64, 500, 1 << 20, 12}

	ref := mk()
	for _, r := range ranks {
		ref.Enqueue(node(r), r)
	}
	bq := mk()
	ns := make([]*bucket.Node, len(ranks))
	for i, r := range ranks {
		ns[i] = node(r)
	}
	bq.EnqueueBatch(ns, ranks)

	if ref.Len() != bq.Len() {
		t.Fatalf("Len: per-element %d vs batch %d", ref.Len(), bq.Len())
	}
	for i := 0; ; i++ {
		a, b := ref.DequeueMin(), bq.DequeueMin()
		if (a == nil) != (b == nil) {
			t.Fatalf("drain %d: per-element %v vs batch %v", i, a, b)
		}
		if a == nil {
			break
		}
		if a.Rank() != b.Rank() {
			t.Fatalf("drain %d: per-element rank %d vs batch rank %d", i, a.Rank(), b.Rank())
		}
	}
}

// TestCFFSOverflowBurstDrainsInOrder: one huge burst far beyond the window
// piles onto the overflow list, and the drain that jumps to it and re-places
// it — again at every later move, for what still lies beyond — hands
// everything out in rank order.
func TestCFFSOverflowBurstDrainsInOrder(t *testing.T) {
	q := NewCFFS(CFFSOptions{NumBuckets: 8, Granularity: 1})
	q.Enqueue(node(0), 0)
	const burst = 4096
	for i := 0; i < burst; i++ {
		q.Enqueue(node(uint64(1000000+i)), uint64(1000000+i))
	}
	var prev uint64
	for i := 0; q.Len() > 0; i++ {
		n := q.DequeueMin()
		if n == nil {
			t.Fatalf("nil dequeue with %d queued", q.Len())
		}
		if n.Rank() < prev {
			t.Fatalf("dequeue %d: rank %d after %d", i, n.Rank(), prev)
		}
		prev = n.Rank()
	}
	if _, _, ff, _ := q.Stats(); ff == 0 {
		t.Fatal("burst did not exercise a jump")
	}
}

// TestCFFSMovesEachElementBoundedTimes: an element beyond the window is
// moved in once per coarse level it waits at, not once per window move.
// Ranks spread over 4 to 256 windows (a window is 2·NumBuckets buckets)
// drain through DequeueMin; a pFabric leaf's bursts (remaining flow sizes
// from the web-search distribution, up to 30 MB against a 512 KiB window)
// drive the leaf's geometry with the calls pifo's DirectEnqueue and
// DirectDequeue make: Enqueue, or Remove and Enqueue on a re-rank across
// buckets; FrontMin, then Remove when the flow empties. Counts only.
func TestCFFSMovesEachElementBoundedTimes(t *testing.T) {
	const nb, gran, elems = 4096, 64, 1000
	for _, spread := range []uint64{4, 16, 64, 256} {
		q := NewCFFS(CFFSOptions{NumBuckets: nb, Granularity: gran})
		rng := rand.New(rand.NewSource(int64(spread)))
		for i := 0; i < elems; i++ {
			r := uint64(rng.Int63n(int64(spread * 2 * nb * gran)))
			q.Enqueue(node(r), r)
		}
		for prev := uint64(0); q.Len() > 0; {
			n := q.DequeueMin()
			if n.Rank()/gran < prev/gran {
				t.Fatalf("spread %d: rank %d left after %d", spread, n.Rank(), prev)
			}
			prev = n.Rank()
		}
		per := float64(q.Moves()) / elems
		t.Logf("spread over %d windows: %.2f moves per element", spread, per)
		if per > 2 {
			t.Errorf("spread over %d windows: %.1f moves per element, want at most 2", spread, per)
		}
		if k := q.CoarseClamped(); k != 0 {
			t.Errorf("spread over %d windows: the coarse levels clamped %d arrivals", spread, k)
		}
	}

	type flow struct {
		node  bucket.Node
		ranks []uint64 // queued packets' ranks, oldest first
		rank  uint64   // the flow's pFabric rank
		left  uint64   // bytes the flow has yet to send
	}
	sizes := workload.NewSizeDist(workload.WebSearchCDF)
	rng := rand.New(rand.NewSource(1))
	newFlow := func() *flow {
		f := &flow{left: sizes.Sample(rng)}
		f.node.Data = f
		return f
	}
	// One shard's share of the live benchmark's stream: its 2048 live flows
	// send round-robin, each started part-way through, in bursts of 1000.
	live := make([]*flow, 256)
	for i := range live {
		live[i] = newFlow()
		live[i].left = 1 + uint64(rng.Int63n(int64(live[i].left)))
	}
	q := NewCFFS(CFFSOptions{NumBuckets: nb, Granularity: gran})
	rerank := func(f *flow) {
		if f.node.Queued() {
			if f.rank/gran == f.node.Rank()/gran {
				return
			}
			q.Remove(&f.node)
		}
		q.Enqueue(&f.node, f.rank)
	}
	dequeue := func() {
		f := q.FrontMin().Data.(*flow)
		rank := f.ranks[0]
		if f.ranks = f.ranks[1:]; len(f.ranks) == 0 {
			q.Remove(&f.node)
			return
		}
		f.rank = min(rank, f.ranks[0])
		rerank(f)
	}
	// A burst reaches the leaf in runs of 16 while the worker serves 8
	// after each, then drains the rest before the next burst.
	const bursts, burst = 40, 125
	for b := 0; b < bursts; b++ {
		for i := 0; i < burst; i++ {
			k := (b*burst + i) % len(live)
			f := live[k]
			f.ranks = append(f.ranks, f.left)
			if len(f.ranks) == 1 || f.left < f.rank {
				f.rank = f.left
			}
			if f.left -= min(f.left, 1460); f.left == 0 {
				live[k] = newFlow()
			}
			rerank(f)
			if i%16 == 15 {
				for j := 0; j < 8; j++ {
					dequeue()
				}
			}
		}
		for q.Len() > 0 {
			dequeue()
		}
	}
	per := float64(q.Moves()) / (bursts * burst)
	t.Logf("pFabric bursts: %.2f moves per packet", per)
	if per > 2 {
		t.Errorf("pFabric bursts: %.1f moves per packet, want at most 2", per)
	}
	if k := q.CoarseClamped(); k != 0 {
		t.Errorf("pFabric bursts: the coarse levels clamped %d arrivals", k)
	}
}
