package ffsq

import "eiffel/internal/bucket"

// ShaperStore is the cFFS of a shaper stage that feeds a scheduler
// (Figure 8): the same Window and FFS index as CFFS, but a bucket holds
// (handle, release time, scheduler rank) BY VALUE, in a FIFO chain of
// fixed-size chunks, instead of linking intrusive nodes. Nothing here loads
// or stores through a handle: parking appends three words to the bucket's
// tail chunk, and a drain hands the handles and their scheduler ranks over
// as two sequential copies per chunk — PIFO's (element, rank) pair,
// released to the scheduling transaction at its release time. Chunks come
// from a per-store free list, so memory follows the number of queued
// elements, not the peak every bucket the window has swept ever reached.
//
// There is no Remove: elements enter in flushed runs and leave in due runs.
type ShaperStore struct {
	w    Window
	h    [2]shaperHalf
	over chain // elements beyond the window, in arrival order

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
	c := &ShaperStore{w: NewWindow(numBuckets, gran, start)}
	for i := range c.h {
		c.h[i] = shaperHalf{NewHier(numBuckets), make([]chain, numBuckets)}
	}
	return c
}

// Len returns the number of queued elements.
//
//eiffel:hotpath
func (c *ShaperStore) Len() int { return c.w.Len() }

// EnqueueBatch parks ns[i] until ats[i], carrying ranks[i] for the
// scheduler, for every i.
//
//eiffel:hotpath
func (c *ShaperStore) EnqueueBatch(ns []*bucket.Node, ats, ranks []uint64) {
	for i, n := range ns {
		if h, slot, ok := c.w.Hit(ats[i]); ok {
			if p := &c.h[h]; c.push(&p.b[slot], n, ats[i], ranks[i]) {
				p.idx.Set(slot)
			}
			continue
		}
		h, slot := c.w.Add(ats[i])
		c.put(h, slot, n, ats[i], ranks[i])
	}
}

//eiffel:hotpath
func (c *ShaperStore) put(h, slot int, n *bucket.Node, at, rank uint64) {
	if h == Overflow {
		c.push(&c.over, n, at, rank)
	} else if hf := &c.h[h]; c.push(&hf.b[slot], n, at, rank) {
		hf.idx.Set(slot)
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
func (c *ShaperStore) Min() (uint64, bool) { return c.w.Peek(c.h[0].idx, c.h[1].idx) }

// DequeueBatch removes up to len(ns) elements whose bucket starts at or
// below maxRank, in ascending bucket order and FIFO within a bucket,
// writing handles to ns and their scheduler ranks to ranks (at least as
// long as ns), and returns how many it removed.
//
//eiffel:hotpath
func (c *ShaperStore) DequeueBatch(maxRank uint64, ns []*bucket.Node, ranks []uint64) int {
	total := 0
	for total < len(ns) && c.w.Len() > 0 {
		p := &c.h[c.w.Primary()]
		if p.idx.Empty() {
			if !c.w.Step(maxRank, c.h[c.w.Primary()^1].idx.Min()) {
				break
			}
			c.replace()
			continue
		}
		i := p.idx.Min()
		if c.w.PrimRank(i) > maxRank {
			break
		}
		l := &p.b[i]
		for l.head != nil && total < len(ns) {
			ch := l.head
			k := copy(ns[total:], ch.ns[ch.off:ch.n])
			copy(ranks[total:], ch.ranks[ch.off:ch.off+k])
			total += k
			c.w.Took(k)
			if ch.off += k; ch.off == ch.n {
				l.head = ch.next
				c.release(ch)
			}
		}
		if l.head == nil {
			l.tail = nil
			p.idx.Clear(i)
		}
	}
	c.w.Idle(maxRank)
	return total
}

// replace re-places the overflow chain after the window told it to.
//
//eiffel:hotpath
func (c *ShaperStore) replace() {
	ch := c.over.head
	c.over = chain{}
	for ch != nil {
		for j := 0; j < ch.n; j++ {
			h, slot := c.w.Place(ch.ats[j])
			c.put(h, slot, ch.ns[j], ch.ats[j], ch.ranks[j])
		}
		next := ch.next
		c.release(ch)
		ch = next
	}
}
