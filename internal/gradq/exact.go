// Package gradq implements the gradient queues of §3.1.2 of the Eiffel
// paper: an exact gradient queue that computes Find-First-Set algebraically
// (Theorem 1, Appendix A), and the approximate gradient queue that trades
// bounded selection error for a single-step lookup over a large bucket
// range, including its circular variant for moving rank ranges.
package gradq

import "eiffel/internal/bucket"

// exactWidth is the branching factor of the exact gradient hierarchy. With
// width w the per-node coefficient b = sum(i * 2^i) for i < w must fit in a
// uint64; 32 keeps b below 2^37 with ample margin.
const exactWidth = 32

// gnode carries the curvature coefficients of one hierarchy node. For the
// proper weight function 2^i*(x-i)^2, a = sum(2^i) over non-empty children —
// which is literally the occupancy bitmap read as an integer — and
// b = sum(i*2^i). Theorem 1: the maximum non-empty child is ceil(b/a).
type gnode struct {
	a, b uint64
}

//eiffel:hotpath
func (g *gnode) set(i int) (wasEmpty bool) {
	m := uint64(1) << uint(i)
	if g.a&m != 0 {
		return false
	}
	wasEmpty = g.a == 0
	g.a |= m
	g.b += uint64(i) << uint(i)
	return wasEmpty
}

//eiffel:hotpath
func (g *gnode) clear(i int) (nowEmpty bool) {
	m := uint64(1) << uint(i)
	if g.a&m == 0 {
		return false
	}
	g.a &^= m
	g.b -= uint64(i) << uint(i)
	return g.a == 0
}

// maxIdx returns the maximum set child index via Theorem 1. The node must
// be non-empty.
//
//eiffel:hotpath
func (g *gnode) maxIdx() int {
	return int((g.b + g.a - 1) / g.a)
}

// Exact is the exact hierarchical gradient queue: a bucketed max-priority
// queue over the fixed rank range [base, base+n*gran) whose occupancy index
// is navigated with divisions instead of FFS instructions. It is
// functionally equivalent to a hierarchical FFS queue (the paper introduces
// it as the stepping stone to the approximate queue, which is where the
// algebraic form pays off).
type Exact struct {
	idx  *ExactIndex
	arr  *bucket.Array
	base uint64
	gran uint64
	n    int
}

// NewExact returns an exact gradient max-queue with numBuckets buckets of
// width gran starting at rank base.
func NewExact(numBuckets int, gran, base uint64) *Exact {
	if numBuckets <= 0 {
		panic("gradq: NewExact needs a positive bucket count")
	}
	if gran == 0 {
		panic("gradq: NewExact needs a positive granularity")
	}
	return &Exact{
		idx:  NewExactIndex(numBuckets),
		arr:  bucket.NewArray(numBuckets),
		base: base,
		gran: gran,
		n:    numBuckets,
	}
}

// Len returns the number of queued elements.
func (e *Exact) Len() int { return e.arr.Len() }

// NumBuckets returns the configured bucket count.
func (e *Exact) NumBuckets() int { return e.n }

func (e *Exact) bucketFor(rank uint64) int {
	if rank < e.base {
		return 0
	}
	b := (rank - e.base) / e.gran
	if b >= uint64(e.n) {
		return e.n - 1
	}
	return int(b)
}

func (e *Exact) setIndex(i int) { e.idx.Set(i) }

func (e *Exact) clearIndex(i int) { e.idx.Clear(i) }

// maxBucket returns the highest non-empty bucket, or -1 (see
// ExactIndex.Max).
func (e *Exact) maxBucket() int { return e.idx.Max() }

// Enqueue inserts n with the given rank.
func (e *Exact) Enqueue(n *bucket.Node, rank uint64) {
	i := e.bucketFor(rank)
	if e.arr.Push(i, n, rank) {
		e.setIndex(i)
	}
}

// DequeueMax removes and returns the FIFO head of the highest non-empty
// bucket, or nil.
func (e *Exact) DequeueMax() *bucket.Node {
	i := e.maxBucket()
	if i < 0 {
		return nil
	}
	n, empty := e.arr.PopFront(i)
	if empty {
		e.clearIndex(i)
	}
	return n
}

// PeekMax returns the start rank of the highest non-empty bucket.
func (e *Exact) PeekMax() (rank uint64, ok bool) {
	i := e.maxBucket()
	if i < 0 {
		return 0, false
	}
	return e.base + uint64(i)*e.gran, true
}

// Remove detaches n in O(1).
func (e *Exact) Remove(n *bucket.Node) {
	i := n.BucketIndex()
	if e.arr.Remove(n) {
		e.clearIndex(i)
	}
}

// ExactMin adapts Exact into a min-queue by mirroring bucket indices, so
// deadline-style policies can use the gradient structure directly.
type ExactMin struct {
	e    *Exact
	base uint64
	gran uint64
	n    int
}

// NewExactMin returns an exact gradient min-queue over [base, base+n*gran).
func NewExactMin(numBuckets int, gran, base uint64) *ExactMin {
	return &ExactMin{
		e:    NewExact(numBuckets, 1, 0),
		base: base,
		gran: gran,
		n:    numBuckets,
	}
}

func (m *ExactMin) mirror(rank uint64) uint64 {
	var b uint64
	if rank > m.base {
		b = (rank - m.base) / m.gran
	}
	if b >= uint64(m.n) {
		b = uint64(m.n) - 1
	}
	return uint64(m.n) - 1 - b
}

// Len returns the number of queued elements.
func (m *ExactMin) Len() int { return m.e.Len() }

// Enqueue inserts n with the given rank. The true rank is preserved on the
// node; only the internal bucket index is mirrored.
func (m *ExactMin) Enqueue(n *bucket.Node, rank uint64) {
	i := m.mirror(rank)
	if m.e.arr.Push(int(i), n, rank) {
		m.e.setIndex(int(i))
	}
}

// DequeueMin removes and returns an element of the lowest non-empty bucket.
func (m *ExactMin) DequeueMin() *bucket.Node { return m.e.DequeueMax() }

// PeekMin returns the start rank of the lowest non-empty bucket.
func (m *ExactMin) PeekMin() (rank uint64, ok bool) {
	i := m.e.maxBucket()
	if i < 0 {
		return 0, false
	}
	logical := uint64(m.n) - 1 - uint64(i)
	return m.base + logical*m.gran, true
}

// Remove detaches n in O(1).
func (m *ExactMin) Remove(n *bucket.Node) { m.e.Remove(n) }
