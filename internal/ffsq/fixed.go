package ffsq

import "eiffel/internal/bucket"

// Fixed is a bucketed integer priority queue over the fixed rank range
// [base, base+numBuckets*gran). Ranks below the range are clamped to the
// first bucket, ranks at or above it to the last bucket (the paper's
// treatment of out-of-range elements). Elements within one bucket are FIFO
// and effectively share a rank; this quantization is the efficiency/accuracy
// trade the paper makes explicit in §2.
//
// With a Hier index every operation costs O(log64 numBuckets) — a constant
// for a configured queue — and arbitrary removal is O(1), which hClock and
// pFabric style policies use heavily.
type Fixed struct {
	idx  Index
	arr  *bucket.Array
	base uint64
	gran uint64
	nb   uint64
}

// NewFixed returns a fixed-range queue with numBuckets buckets of width gran
// starting at rank base, using a hierarchical FFS index.
func NewFixed(numBuckets int, gran, base uint64) *Fixed {
	return NewFixedIndex(numBuckets, gran, base, NewHier(numBuckets))
}

// NewFixedFlat is NewFixed with a flat sequential-scan bitmap index, the
// baseline "FFS over M words" variant from §3.1.1.
func NewFixedFlat(numBuckets int, gran, base uint64) *Fixed {
	return NewFixedIndex(numBuckets, gran, base, NewBitmap(numBuckets))
}

// NewFixedIndex builds a fixed-range queue over a caller-supplied index. The
// index size must match numBuckets.
func NewFixedIndex(numBuckets int, gran, base uint64, idx Index) *Fixed {
	if numBuckets <= 0 {
		panic("ffsq: NewFixed needs a positive bucket count")
	}
	if gran == 0 {
		panic("ffsq: NewFixed needs a positive granularity")
	}
	if idx.Size() != numBuckets {
		panic("ffsq: index size does not match bucket count")
	}
	return &Fixed{
		idx:  idx,
		arr:  bucket.NewArray(numBuckets),
		base: base,
		gran: gran,
		nb:   uint64(numBuckets),
	}
}

// Len returns the number of queued elements.
func (q *Fixed) Len() int { return q.arr.Len() }

func (q *Fixed) bucketFor(rank uint64) int {
	if rank < q.base {
		return 0
	}
	b := (rank - q.base) / q.gran
	if b >= q.nb {
		return int(q.nb - 1)
	}
	return int(b)
}

// Enqueue inserts n with the given rank. The true rank is recorded on the
// node even when the bucket is clamped.
func (q *Fixed) Enqueue(n *bucket.Node, rank uint64) {
	i := q.bucketFor(rank)
	if q.arr.Push(i, n, rank) {
		q.idx.Set(i)
	}
}

// DequeueMin removes and returns the FIFO head of the lowest non-empty
// bucket, or nil if the queue is empty.
func (q *Fixed) DequeueMin() *bucket.Node {
	i := q.idx.Min()
	if i < 0 {
		return nil
	}
	n, empty := q.arr.PopFront(i)
	if empty {
		q.idx.Clear(i)
	}
	return n
}

// DequeueMax removes and returns the FIFO head of the highest non-empty
// bucket, or nil. pFabric-style switches use this to drop the packet of the
// flow with the most remaining work when a port buffer fills.
func (q *Fixed) DequeueMax() *bucket.Node {
	i := q.idx.Max()
	if i < 0 {
		return nil
	}
	n, empty := q.arr.PopFront(i)
	if empty {
		q.idx.Clear(i)
	}
	return n
}

// PeekMax returns the start rank of the highest non-empty bucket without
// removing anything.
func (q *Fixed) PeekMax() (rank uint64, ok bool) {
	i := q.idx.Max()
	if i < 0 {
		return 0, false
	}
	return q.base + uint64(i)*q.gran, true
}

// PeekMin returns the rank of the start of the lowest non-empty bucket
// (quantized to the queue granularity) without removing anything.
func (q *Fixed) PeekMin() (rank uint64, ok bool) {
	i := q.idx.Min()
	if i < 0 {
		return 0, false
	}
	return q.base + uint64(i)*q.gran, true
}

// Remove detaches n, which must be queued here, in O(1).
func (q *Fixed) Remove(n *bucket.Node) {
	i := n.BucketIndex()
	if q.arr.Remove(n) {
		q.idx.Clear(i)
	}
}
