package shardq

import (
	"testing"

	"eiffel/internal/bucket"
	"eiffel/internal/queue"
)

// popOne drains the single lowest element, or nil: a DequeueBatch of one.
func popOne(v *vecSched) *bucket.Node {
	var one [1]*bucket.Node
	v.DequeueBatch(^uint64(0), one[:])
	return one[0]
}

func TestVecSchedOrderingAndFIFO(t *testing.T) {
	v := newVecSched(queue.Config{NumBuckets: 8, Granularity: 10}) // span [0,160)
	n1, n2, n3, n4 := &bucket.Node{}, &bucket.Node{}, &bucket.Node{}, &bucket.Node{}
	v.Enqueue(n1, 55)
	v.Enqueue(n2, 12)
	v.Enqueue(n3, 57) // same bucket as n1: FIFO after it
	v.Enqueue(n4, 140)
	if r, ok := v.Min(); !ok || r != 10 {
		t.Fatalf("Min = (%d,%v), want quantized 10", r, ok)
	}
	want := []*bucket.Node{n2, n1, n3, n4}
	for i, w := range want {
		if got := popOne(v); got != w {
			t.Fatalf("position %d: got %v, want %v (rank %d)", i, got, w, w.Rank())
		}
	}
	if v.Len() != 0 {
		t.Fatalf("Len = %d after drain", v.Len())
	}
	if _, ok := v.Min(); ok {
		t.Fatal("Min ok on empty store")
	}
}

func TestVecSchedClampsOutOfRange(t *testing.T) {
	v := newVecSched(queue.Config{NumBuckets: 4, Granularity: 10, Start: 100}) // span [100,180)
	lo, hi, mid := &bucket.Node{}, &bucket.Node{}, &bucket.Node{}
	v.Enqueue(hi, 5000) // beyond: clamps to last bucket
	v.Enqueue(mid, 150)
	v.Enqueue(lo, 3) // behind: clamps to first bucket
	if got := popOne(v); got != lo {
		t.Fatalf("first = rank %d, want the low clamp", got.Rank())
	}
	if got := popOne(v); got != mid {
		t.Fatalf("second = rank %d, want 150", got.Rank())
	}
	if got := popOne(v); got != hi {
		t.Fatalf("third = rank %d, want the high clamp", got.Rank())
	}
}

// TestVecSchedPartialBatchReleasesSlots checks partial bucket pops advance
// the consumed prefix, keep FIFO, and nil consumed slots so the store
// never pins released elements.
func TestVecSchedPartialBatchReleasesSlots(t *testing.T) {
	v := newVecSched(queue.Config{NumBuckets: 4, Granularity: 10})
	var nodes [6]*bucket.Node
	for i := range nodes {
		nodes[i] = &bucket.Node{}
		v.Enqueue(nodes[i], 15) // all in one bucket
	}
	out := make([]*bucket.Node, 2)
	for round := 0; round < 3; round++ {
		if k := v.DequeueBatch(^uint64(0), out); k != 2 {
			t.Fatalf("round %d: DequeueBatch = %d, want 2", round, k)
		}
		for j, n := range out[:2] {
			if n != nodes[round*2+j] {
				t.Fatalf("round %d pos %d: FIFO violated", round, j)
			}
		}
	}
	if v.Len() != 0 {
		t.Fatalf("Len = %d after drain", v.Len())
	}
	// The bucket's retained capacity must hold no stale element pointers.
	for i, b := range v.buckets {
		for j := 0; j < cap(b); j++ {
			if b[:cap(b)][j] != nil {
				t.Fatalf("bucket %d slot %d still pins a released element", i, j)
			}
		}
	}
}

// TestVecSchedSteadyStateDoesNotGrow is the regression test for unbounded
// bucket growth: a hot bucket with a standing backlog drained in partial
// batches used to advance its consumed prefix forever without compacting,
// growing the backing array monotonically under constant occupancy.
func TestVecSchedSteadyStateDoesNotGrow(t *testing.T) {
	v := newVecSched(queue.Config{NumBuckets: 4, Granularity: 10})
	const backlog = 100
	for i := 0; i < backlog; i++ {
		v.Enqueue(&bucket.Node{}, 15)
	}
	out := make([]*bucket.Node, 8)
	for i := 0; i < 10000; i++ {
		if k := v.DequeueBatch(^uint64(0), out); k != len(out) {
			t.Fatalf("iter %d: popped %d", i, k)
		}
		for j := 0; j < len(out); j++ {
			v.Enqueue(&bucket.Node{}, 15)
		}
	}
	if v.Len() != backlog {
		t.Fatalf("Len = %d, want steady %d", v.Len(), backlog)
	}
	if c := cap(v.buckets[1]); c > 8*backlog {
		t.Fatalf("bucket capacity grew to %d with a constant backlog of %d", c, backlog)
	}
}

// TestVecSchedEnqueueBatch checks the batched enqueue hook: same ordering
// semantics (ascending bucket, FIFO within bucket, clamped edges) as the
// equivalent sequence of Enqueue calls.
func TestVecSchedEnqueueBatch(t *testing.T) {
	v := newVecSched(queue.Config{NumBuckets: 8, Granularity: 4})
	ranks := []uint64{17, 3, 17, 200, 0, 63, 5}
	ns := make([]*bucket.Node, len(ranks))
	for i := range ranks {
		ns[i] = &bucket.Node{Data: i}
	}
	v.EnqueueBatch(ns, ranks)
	if v.Len() != len(ranks) {
		t.Fatalf("Len = %d, want %d", v.Len(), len(ranks))
	}
	out := make([]*bucket.Node, len(ranks))
	if got := v.DequeueBatch(^uint64(0), out); got != len(ranks) {
		t.Fatalf("DequeueBatch = %d, want %d", got, len(ranks))
	}
	// 16 buckets of width 4 cover ranks [0,64): bucket 0 serves [3,0] in
	// arrival order, then 5 (bucket 1), the two 17s (bucket 4) FIFO, and
	// the last bucket holds 200 (clamped high) before 63 — FIFO again,
	// since 200 arrived first.
	want := []uint64{3, 0, 5, 17, 17, 200, 63}
	for i, n := range out {
		if n.Rank() != want[i] {
			t.Fatalf("position %d: rank %d, want %d", i, n.Rank(), want[i])
		}
	}
	// granShift fast path must agree with the divide fallback.
	if v.granShift != 2 {
		t.Fatalf("granShift = %d for granularity 4, want 2", v.granShift)
	}
	odd := newVecSched(queue.Config{NumBuckets: 8, Granularity: 3})
	if odd.granShift != -1 {
		t.Fatalf("granShift = %d for granularity 3, want -1 (divide path)", odd.granShift)
	}
	odd.Enqueue(&bucket.Node{}, 7)
	if r, ok := odd.Min(); !ok || r != 6 {
		t.Fatalf("Min = (%d,%v), want (6,true): 7/3 quantizes to bucket 2", r, ok)
	}
}
