package ffsq

import "eiffel/internal/bucket"

// ShaperStore is the cFFS of a shaper stage that feeds a scheduler
// (Figure 8): the same two-half moving window, FFS index, overflow bucket
// and redistribution as CFFS, but a bucket holds (handle, release time,
// scheduler rank) BY VALUE, in a FIFO chain of fixed-size chunks, instead
// of linking intrusive nodes. Nothing here loads or stores through a
// handle: parking appends three words to the bucket's tail chunk, and a
// drain hands the handles and their scheduler ranks over as two sequential
// copies per chunk — PIFO's (element, rank) pair, released to the
// scheduling transaction at its release time. Chunks come from a per-store
// free list, so memory follows the number of queued elements, not the peak
// every bucket the window has swept ever reached.
//
// Two departures from CFFS, both so that an element is never held past its
// release time by the window's position:
//
//   - Min is a pure peek. The window moves only inside a DequeueBatch whose
//     bound has reached what lies beyond the primary half, so the window
//     start is never ahead of the largest bound the store has served (or
//     Start): an element whose release time lies behind the window is
//     clamped into a bucket that is already due.
//   - An empty store is not re-anchored forward at a far arrival (that puts
//     the window ahead of the clock). The arrival waits in the overflow
//     chain, whose lowest bucket Min tracks, and the drain that reaches it
//     jumps the window there; a drain that leaves the store empty pulls the
//     window up to its own bound instead, which keeps idle→burst off the
//     overflow path.
//
// There is no Remove: elements enter in flushed runs and leave in due runs.
type ShaperStore struct {
	prim, sec shaperHalf
	// over holds elements at or beyond hIndex+2*nb, in arrival order;
	// overMin is the lowest bucket number among them.
	over    chain
	overMin uint64

	hIndex uint64 // lowest bucket number served by the primary half
	nb     uint64
	gran   uint64
	count  int

	free   *chunk
	chunks int // chunks ever allocated: in bucket chains or in the free list
}

// chunkLen is the bucket chain's unit: large enough that a drain is mostly
// memmove, small enough that a bucket holding a handful of elements (a
// paced flow mix spreads ~10 over each of a few hundred live buckets)
// wastes under a kilobyte.
const chunkLen = 32

// chunkSlab is how many chunks one pool refill allocates.
const chunkSlab = 32

// chunk is chunkLen elements as three parallel arrays; [off, n) are live.
type chunk struct {
	next   *chunk
	off, n int
	ns     [chunkLen]*bucket.Node
	ranks  [chunkLen]uint64
	ats    [chunkLen]uint64
}

// chain is one bucket: a FIFO of chunks.
type chain struct{ head, tail *chunk }

type shaperHalf struct {
	idx *Hier
	b   []chain
}

// NewShaperStore returns a store of 2*numBuckets buckets of gran ranks
// each, its window starting at the bucket that holds start.
func NewShaperStore(numBuckets int, gran, start uint64) *ShaperStore {
	if numBuckets <= 0 {
		panic("ffsq: NewShaperStore needs a positive bucket count")
	}
	if gran == 0 {
		panic("ffsq: NewShaperStore needs a positive granularity")
	}
	return &ShaperStore{
		prim:    shaperHalf{NewHier(numBuckets), make([]chain, numBuckets)},
		sec:     shaperHalf{NewHier(numBuckets), make([]chain, numBuckets)},
		overMin: ^uint64(0),
		hIndex:  start / gran,
		nb:      uint64(numBuckets),
		gran:    gran,
	}
}

// Len returns the number of queued elements.
//
//eiffel:hotpath
func (c *ShaperStore) Len() int { return c.count }

// EnqueueBatch parks ns[i] until ats[i], carrying ranks[i] for the
// scheduler, for every i.
//
//eiffel:hotpath
func (c *ShaperStore) EnqueueBatch(ns []*bucket.Node, ats, ranks []uint64) {
	for i, n := range ns {
		at := ats[i]
		b := at / c.gran
		if c.count == 0 && b < c.hIndex {
			// Nothing queued, so no position matters to anything else: slide
			// the window back instead of clamping.
			c.hIndex = b
		}
		c.place(n, at, ranks[i], b)
		c.count++
	}
}

//eiffel:hotpath
func (c *ShaperStore) place(n *bucket.Node, at, rank, b uint64) {
	var off uint64 // a bucket behind the window clamps to the window's first
	if b > c.hIndex {
		off = b - c.hIndex
	}
	switch {
	case off < c.nb:
		if c.push(&c.prim.b[off], n, at, rank) {
			c.prim.idx.Set(int(off))
		}
	case off < 2*c.nb:
		if c.push(&c.sec.b[off-c.nb], n, at, rank) {
			c.sec.idx.Set(int(off - c.nb))
		}
	default:
		c.push(&c.over, n, at, rank)
		if b < c.overMin {
			c.overMin = b
		}
	}
}

// push appends to l and reports whether l was empty.
//
//eiffel:hotpath
func (c *ShaperStore) push(l *chain, n *bucket.Node, at, rank uint64) (first bool) {
	ch := l.tail
	if ch == nil || ch.n == chunkLen {
		if c.free == nil {
			//eiffel:allow(hotpath) pool refill: amortized over chunkSlab*chunkLen appends, and none once the pool covers the backlog
			c.grow()
		}
		nc := c.free
		c.free, nc.next = nc.next, nil
		if first = ch == nil; first {
			l.head = nc
		} else {
			ch.next = nc
		}
		l.tail, ch = nc, nc
	}
	ch.ns[ch.n], ch.ats[ch.n], ch.ranks[ch.n] = n, at, rank
	ch.n++
	return first
}

// grow refills the free list with one slab of chunks.
func (c *ShaperStore) grow() {
	slab := make([]chunk, chunkSlab)
	for i := range slab {
		slab[i].next = c.free
		c.free = &slab[i]
	}
	c.chunks += chunkSlab
}

// release returns a consumed chunk to the free list, dropping its handles
// so the pool does not pin released elements.
//
//eiffel:hotpath
func (c *ShaperStore) release(ch *chunk) {
	clear(ch.ns[:ch.n])
	ch.off, ch.n = 0, 0
	ch.next, c.free = c.free, ch
}

// Min returns the start of the lowest non-empty bucket — the soonest
// release time, quantized — without moving the window.
//
//eiffel:hotpath
func (c *ShaperStore) Min() (uint64, bool) {
	switch {
	case c.count == 0:
		return 0, false
	case !c.prim.idx.Empty():
		return (c.hIndex + uint64(c.prim.idx.Min())) * c.gran, true
	case !c.sec.idx.Empty():
		return (c.hIndex + c.nb + uint64(c.sec.idx.Min())) * c.gran, true
	default:
		return c.overMin * c.gran, true
	}
}

// DequeueBatch removes up to len(ns) elements whose bucket starts at or
// below maxRank, in ascending bucket order and FIFO within a bucket,
// writing handles to ns and their scheduler ranks to ranks (at least as
// long as ns), and returns how many it removed.
//
//eiffel:hotpath
func (c *ShaperStore) DequeueBatch(maxRank uint64, ns []*bucket.Node, ranks []uint64) int {
	total := 0
	for total < len(ns) && c.count > 0 {
		if c.prim.idx.Empty() {
			if head, _ := c.Min(); head > maxRank {
				break
			}
			c.advance()
			continue
		}
		i := c.prim.idx.Min()
		if (c.hIndex+uint64(i))*c.gran > maxRank {
			break
		}
		l := &c.prim.b[i]
		for l.head != nil && total < len(ns) {
			ch := l.head
			k := copy(ns[total:], ch.ns[ch.off:ch.n])
			copy(ranks[total:], ch.ranks[ch.off:ch.off+k])
			total += k
			c.count -= k
			if ch.off += k; ch.off == ch.n {
				l.head = ch.next
				c.release(ch)
			}
		}
		if l.head == nil {
			l.tail = nil
			c.prim.idx.Clear(i)
		}
	}
	if b := maxRank / c.gran; c.count == 0 && b > c.hIndex {
		c.hIndex = b // idle: follow the clock
	}
	return total
}

// advance moves the window one step toward the elements beyond an empty
// primary half — the halves swap when the secondary holds any, else the
// window jumps to the overflow chain's lowest bucket — and re-places the
// overflow chain by true release time. Callers guarantee count > 0 and a
// bound that has reached the new window start.
//
//eiffel:hotpath
func (c *ShaperStore) advance() {
	if c.sec.idx.Empty() {
		c.hIndex = c.overMin
	} else {
		c.prim, c.sec = c.sec, c.prim
		c.hIndex += c.nb
	}
	ch := c.over.head
	c.over, c.overMin = chain{}, ^uint64(0)
	for ch != nil {
		for j := 0; j < ch.n; j++ {
			c.place(ch.ns[j], ch.ats[j], ch.ranks[j], ch.ats[j]/c.gran)
		}
		next := ch.next
		c.release(ch)
		ch = next
	}
}
