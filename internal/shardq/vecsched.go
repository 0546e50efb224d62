package shardq

import (
	"math/bits"

	"eiffel/internal/bucket"
	"eiffel/internal/ffsq"
	"eiffel/internal/queue"
)

// vecSched is the Shaped runtime's scheduler-side bucket store: a
// fixed-range bucketed min-queue whose buckets are slices instead of
// intrusive lists, indexed by the same hierarchical FFS bitmap as the
// cFFS. Ordering semantics are identical to a bucketed queue — ascending
// bucket order, FIFO within a bucket — but both halves of the hot path
// get cheaper: Enqueue appends to a slice without touching the previous
// tail element's cache line, and DequeueBatch hands whole buckets over
// with a sequential copy instead of a pointer chase through scattered
// nodes. The trade is generality: the rank range is fixed (ranks beyond
// it clamp into the edge buckets, preserving order only to that clamp)
// and there is no Remove — exactly the operations the scheduler side of
// the migration pipeline never needs, since priorities span a fixed
// configured range and elements only ever enter (migrate) and leave
// (merged drain) in bulk.
//
// Nodes held here are not marked queued (no bucket.Array owner), so the
// usual double-insert panics do not fire for scheduler-held elements; the
// runtime's single-consumer discipline already guarantees an element is
// in at most one structure.
type vecSched struct {
	buckets   [][]*bucket.Node
	heads     []int // per-bucket consumed prefix (partial batch pops)
	idx       *ffsq.Hier
	gran      uint64
	granShift int8   // log2(gran) when gran is a power of two, else -1
	base      uint64 // bucket number of buckets[0]
	count     int
}

func newVecSched(cfg queue.Config) *vecSched {
	// queue.Config counts buckets per HALF (the cFFS convention: a config
	// covers 2*NumBuckets*Granularity of rank space); allocate the same
	// span so a Sched config means the same range under either store.
	// Rank→bucket is one 64-bit division per enqueue — a measurable slice
	// of the migration hot path. Power-of-two granularities (the common
	// configuration: rank spans and bucket counts are both powers of two)
	// take a shift instead (vecGeometry resolves both).
	nb, gran, shift, base := vecGeometry(cfg)
	return &vecSched{
		buckets:   make([][]*bucket.Node, nb),
		heads:     make([]int, nb),
		idx:       ffsq.NewHier(nb),
		gran:      gran,
		granShift: shift,
		base:      base,
	}
}

// NewVecSched returns the exact FFS-indexed vector-bucket Scheduler over
// cfg's rank range — the shaped runtime's default backend, exported so
// backend factories (ShapedOptions.SchedBackend, HierSched's tenant rank
// stores) can name it explicitly.
func NewVecSched(cfg queue.Config) Scheduler { return newVecSched(cfg) }

// VecSchedBound returns vecSched's worst-case rank-inversion magnitude in
// rank units for ranks within the configured span: bucket quantization
// only (FIFO within a bucket of gran ranks).
func VecSchedBound(cfg queue.Config) uint64 {
	_, gran, _, _ := vecGeometry(cfg)
	return gran - 1
}

// vecGeometry resolves a queue.Config into vecSched's fixed-range
// geometry: bucket count (2*NumBuckets, the cFFS half convention),
// granularity, its shift when a power of two, and the base bucket number.
// The granularity is the runtime's one fidelity dial: wider buckets cost
// fewer index words and longer merge runs, and VecSchedBound grows with
// them.
func vecGeometry(cfg queue.Config) (nb int, gran uint64, granShift int8, base uint64) {
	nb = 2 * cfg.NumBuckets
	if nb <= 0 {
		nb = 1 << 12
	}
	gran = cfg.Granularity
	if gran == 0 {
		gran = 1
	}
	granShift = int8(-1)
	if gran&(gran-1) == 0 {
		granShift = int8(bits.TrailingZeros64(gran))
	}
	return nb, gran, granShift, cfg.Start / gran
}

func (v *vecSched) Len() int { return v.count }

// slot clamps rank's bucket into the fixed range.
//
//eiffel:hotpath
func (v *vecSched) slot(rank uint64) int {
	var b uint64
	if v.granShift >= 0 {
		b = rank >> uint(v.granShift)
	} else {
		b = rank / v.gran
	}
	if b < v.base {
		return 0
	}
	if off := b - v.base; off < uint64(len(v.buckets)) {
		return int(off)
	}
	return len(v.buckets) - 1
}

//eiffel:hotpath
func (v *vecSched) Enqueue(n *bucket.Node, rank uint64) {
	n.SetRank(rank)
	i := v.slot(rank)
	if len(v.buckets[i]) == v.heads[i] {
		v.idx.Set(i)
	}
	v.buckets[i] = append(v.buckets[i], n)
	v.count++
}

// EnqueueBatch inserts ns[i] with ranks[i] for every i: the batched form
// the migration and due-flush paths use so a whole run costs one call.
// Equivalent to that sequence of Enqueue calls (same clamping, same
// per-bucket FIFO order).
//
//eiffel:hotpath
func (v *vecSched) EnqueueBatch(ns []*bucket.Node, ranks []uint64) {
	for i, n := range ns {
		v.Enqueue(n, ranks[i])
	}
}

// Min returns the start rank of the lowest occupied bucket.
//
//eiffel:hotpath
func (v *vecSched) Min() (uint64, bool) {
	if v.count == 0 {
		return 0, false
	}
	return (v.base + uint64(v.idx.Min())) * v.gran, true
}

// DequeueBatch pops up to len(out) elements whose bucket-quantized rank is
// at most maxRank, ascending by bucket, FIFO within a bucket.
//
//eiffel:hotpath
func (v *vecSched) DequeueBatch(maxRank uint64, out []*bucket.Node) int {
	total := 0
	for total < len(out) && v.count > 0 {
		i := v.idx.Min()
		if (v.base+uint64(i))*v.gran > maxRank {
			break
		}
		pend := v.buckets[i][v.heads[i]:]
		k := copy(out[total:], pend)
		clear(pend[:k]) // consumed slots must not pin released elements
		total += k
		v.count -= k
		if k == len(pend) {
			v.buckets[i] = v.buckets[i][:0]
			v.heads[i] = 0
			v.idx.Clear(i)
		} else if v.heads[i] += k; v.heads[i] > len(v.buckets[i])/2 {
			// Compact once the consumed prefix dominates: without this, a
			// bucket with a standing backlog drained in partial batches
			// grows its backing array without bound (every append lands
			// past a prefix that is never reclaimed). Amortized O(1): each
			// element moves at most once per halving.
			n := copy(v.buckets[i], v.buckets[i][v.heads[i]:])
			clear(v.buckets[i][n:])
			v.buckets[i] = v.buckets[i][:n]
			v.heads[i] = 0
		}
	}
	return total
}
