package ffsq

import "eiffel/internal/bucket"

// store is the cFFS of the stages that carry packets, Figure 8's shaper
// (ShaperStore) and a timer queue (TimerStore): the same Window and FFS
// index as CFFS, but a bucket holds (handle, release time, scheduler rank)
// BY VALUE, in a FIFO chain of fixed-size chunks. Nothing here loads or
// stores through a handle: parking appends to the bucket's tail chunk, and
// a drain copies the handles and their scheduler ranks out — PIFO's
// (element, rank) pair, released at its release time. Chunks come from a
// free list the levels share, so memory follows the queued elements, not
// every bucket the window has swept.
//
// Beyond the window waits a coarse store built on first use, CFFS's coarse
// level without its short list (kept there for hClock's one or two far
// tags): a window move takes in only the coarse buckets it reaches, and the
// one straddling its end sends back up what it keeps, so an element moves
// at most twice a level however often the window moves.
//
// There is no Remove: elements enter in flushed runs and leave in due runs.
type store[N nodeCols, K keyCols] struct {
	w     Window
	h     [2]storeHalf[N, K]
	up    *store[N, K]     // the coarse level: everything beyond the window
	pool  *chunkPool[N, K] // shared by every level
	moved uint64           // elements taken in from up, or sent back
}

// ShaperStore and TimerStore are the store in the shaper's and the timer's
// chunk geometry (NewShaperStore, NewTimerStore).
type (
	ShaperStore = store[[32]*bucket.Node, [32]uint64]
	TimerStore  = store[[8]*bucket.Node, [8]uint64]
)

// chunkSlab is how many chunks one pool refill allocates.
const chunkSlab = 32

// nodeCols and keyCols are a chunk's columns, a stage's chunk length long.
type nodeCols interface {
	[8]*bucket.Node | [32]*bucket.Node
}
type keyCols interface{ [8]uint64 | [32]uint64 }

// chunkPool is the free list the levels of one store share.
type chunkPool[N nodeCols, K keyCols] struct {
	free   *chunk[N, K]
	chunks int // chunks ever allocated: in bucket chains or on free
}

// chunk is parallel columns of elements; [off, n) are live.
type chunk[N nodeCols, K keyCols] struct {
	next       *chunk[N, K]
	off, n     int
	ns         N
	ats, ranks K
}

// cols returns a chunk's handle and rank columns as slices.
//
//eiffel:hotpath
func (ch *chunk[N, K]) cols() ([]*bucket.Node, []uint64) {
	if ns, ok := any(&ch.ns).(*[8]*bucket.Node); ok {
		return ns[:], any(&ch.ranks).(*[8]uint64)[:]
	}
	return any(&ch.ns).(*[32]*bucket.Node)[:], any(&ch.ranks).(*[32]uint64)[:]
}

// chain is one bucket: a FIFO of chunks.
type chain[N nodeCols, K keyCols] struct{ head, tail *chunk[N, K] }

type storeHalf[N nodeCols, K keyCols] struct {
	idx *Hier
	b   []chain[N, K]
}

// NewShaperStore returns a shaper stage's store of 2*numBuckets buckets of
// gran ranks each, its window starting at the bucket that holds start. Its
// buckets are dense — a skewed flow mix parks whole runs in a few — so a
// chunk holds 32 elements and a drain is mostly memmove.
func NewShaperStore(numBuckets int, gran, start uint64) *ShaperStore {
	return newStore(numBuckets, gran, start, &chunkPool[[32]*bucket.Node, [32]uint64]{})
}

// NewTimerStore returns a timer queue's store, NewShaperStore's but for
// its chunks: paced flows spread a handful of packets over each live
// bucket, so a chunk holds 8 elements, where a long one would be mostly
// empty memory.
func NewTimerStore(numBuckets int, gran, start uint64) *TimerStore {
	return newStore(numBuckets, gran, start, &chunkPool[[8]*bucket.Node, [8]uint64]{})
}

func newStore[N nodeCols, K keyCols](numBuckets int, gran, start uint64, pool *chunkPool[N, K]) *store[N, K] {
	c := &store[N, K]{w: NewWindow(numBuckets, gran, start), pool: pool}
	for i := range c.h {
		c.h[i] = storeHalf[N, K]{NewHier(numBuckets), make([]chain[N, K], numBuckets)}
	}
	return c
}

// Len returns the number of queued elements.
//
//eiffel:hotpath
func (c *store[N, K]) Len() int { return c.w.Len() }

// EnqueueBatch parks ns[i] until ats[i], carrying ranks[i] for the
// scheduler, for every i.
//
//eiffel:hotpath
func (c *store[N, K]) EnqueueBatch(ns []*bucket.Node, ats, ranks []uint64) {
	for i, n := range ns {
		h, slot, b, ok := c.w.Hit(ats[i])
		if ok {
			if p := &c.h[h]; c.push(&p.b[slot], n, ats[i], ranks[i]) {
				p.idx.Set(slot)
			}
			continue
		}
		h, slot = c.w.Add(b)
		c.put(h, slot, n, ats[i], ranks[i])
	}
}

// add parks one element: the coarse level's enqueue.
//
//eiffel:hotpath
func (c *store[N, K]) add(n *bucket.Node, at, rank uint64) {
	h, slot, b, ok := c.w.Hit(at)
	if !ok {
		h, slot = c.w.Add(b)
	}
	c.put(h, slot, n, at, rank)
}

// put appends an element where Add or Place said: a bucket, or the coarse
// level.
//
//eiffel:hotpath
func (c *store[N, K]) put(h, slot int, n *bucket.Node, at, rank uint64) {
	if h != Overflow {
		if hf := &c.h[h]; c.push(&hf.b[slot], n, at, rank) {
			hf.idx.Set(slot)
		}
		return
	}
	if c.up == nil { // gran·nb fits: a rank lies beyond the window, so 2·nb·gran does
		//eiffel:allow(hotpath) one-time build of the coarse level
		c.up = newStore(coarseBuckets, c.w.gran*c.w.nb, 0, c.pool)
	}
	if c.up.Len() == 0 {
		c.up.w.Anchor(&c.w)
	}
	c.up.add(n, at, rank)
}

// push appends to l and reports whether l was empty.
//
//eiffel:hotpath
func (c *store[N, K]) push(l *chain[N, K], n *bucket.Node, at, rank uint64) (first bool) {
	ch := l.tail
	if ch == nil || ch.n == len(ch.ns) {
		p := c.pool
		if p.free == nil {
			//eiffel:allow(hotpath) pool refill: amortized over chunkSlab chunks, and none once the pool covers the backlog
			p.grow()
		}
		nc := p.free
		p.free, nc.next = nc.next, nil
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
func (p *chunkPool[N, K]) grow() {
	slab := make([]chunk[N, K], chunkSlab)
	for i := range slab {
		slab[i].next, p.free = p.free, &slab[i]
	}
	p.chunks += chunkSlab
}

// release returns a consumed chunk to the free list, dropping its handles
// so the pool does not pin released elements, and returns its successor.
//
//eiffel:hotpath
func (p *chunkPool[N, K]) release(ch *chunk[N, K]) (next *chunk[N, K]) {
	next = ch.next
	ns, _ := ch.cols()
	clear(ns[:ch.n])
	ch.off, ch.n = 0, 0
	ch.next, p.free = p.free, ch
	return next
}

// Min returns the start of the lowest non-empty bucket — the soonest
// release time, quantized — without moving the window.
//
//eiffel:hotpath
func (c *store[N, K]) Min() (uint64, bool) { return c.w.Peek(c.h[0].idx, c.h[1].idx) }

// DequeueBatch removes up to len(ns) elements whose bucket starts at or
// below maxRank, in ascending bucket order and FIFO within a bucket,
// writing handles to ns and, unless ranks is nil, their scheduler ranks to
// ranks (at least as long as ns), and returns how many it removed.
//
//eiffel:hotpath
func (c *store[N, K]) DequeueBatch(maxRank uint64, ns []*bucket.Node, ranks []uint64) int {
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
			cns, cranks := ch.cols()
			k := copy(ns[total:], cns[ch.off:ch.n])
			if ranks != nil {
				copy(ranks[total:], cranks[ch.off:ch.off+k])
			}
			total += k
			c.w.Took(k)
			if ch.off += k; ch.off == ch.n {
				l.head = c.pool.release(ch)
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

// replace is the owner's part of a window move (Step, StepPop), as CFFS's.
// The coarse level's buckets are disjoint rank ranges, so only its lowest
// can hold what the window now covers: they are taken in, lowest first,
// until one sends an element beyond the window back up, and Place records
// the exact overflow minimum from what went back. A coarse bucket the
// window does not reach is read where it lies, moving no window: a coarse
// level moves only to ranks this window has reached, so nothing arriving
// later lands behind its window.
//
//eiffel:hotpath
func (c *store[N, K]) replace() {
	for c.up != nil && c.up.Len() > 0 {
		if r, _ := c.up.Min(); !c.w.Covers(r) {
			for ch := c.up.lowest().head; ch != nil; ch = ch.next {
				for j := ch.off; j < ch.n; j++ {
					c.w.Place(ch.ats[j])
				}
			}
			return
		}
		l := c.up.takeMin()
		rest := c.up.Len()
		for ch := l.head; ch != nil; ch = c.pool.release(ch) {
			for j := ch.off; j < ch.n; j++ {
				h, slot := c.w.Place(ch.ats[j])
				c.put(h, slot, ch.ns[j], ch.ats[j], ch.ranks[j])
			}
			c.moved += uint64(ch.n - ch.off)
		}
		if c.up.Len() > rest {
			return // one went back, so the minimum is set: ^0 is not "none"
		}
	}
}

// takeMin detaches the lowest bucket, stepping the window there first as a
// pop does (StepPop); its elements leave the count. Len() must be > 0.
//
//eiffel:hotpath
func (c *store[N, K]) takeMin() (l chain[N, K]) {
	if p := c.w.Primary(); c.h[p].idx.Empty() {
		c.w.StepPop(!c.h[p^1].idx.Empty())
		c.replace()
	}
	hf := &c.h[c.w.Primary()]
	i := hf.idx.Min()
	l, hf.b[i] = hf.b[i], chain[N, K]{}
	hf.idx.Clear(i)
	for ch := l.head; ch != nil; ch = ch.next {
		c.w.Took(ch.n - ch.off)
	}
	return l
}

// lowest returns the lowest occupied bucket, at whatever level it lies,
// moving nothing. Len() must be > 0.
//
//eiffel:hotpath
func (c *store[N, K]) lowest() chain[N, K] {
	for p := range 2 {
		if hf := &c.h[c.w.Primary()^p]; !hf.idx.Empty() {
			return hf.b[hf.idx.Min()]
		}
	}
	return c.up.lowest()
}
