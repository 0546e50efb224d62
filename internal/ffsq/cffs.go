package ffsq

import "eiffel/internal/bucket"

// CFFS is the circular hierarchical FFS-based queue of §3.1.1 — the core
// Eiffel data structure. It serves rank ranges that move forward over time
// (transmission timestamps, virtual finish times, remaining flow sizes)
// with O(1) amortized enqueue and dequeue: a Window (which see, for where
// an element goes and when the window moves) over two halves of intrusive
// FIFO buckets, each indexed by a hierarchical bitmap. What lies beyond the
// window waits, while it is a few elements, on an unsorted list that every
// window move re-places; past that it spills into a coarse CFFS built on
// first use: one coarse bucket spans one half (NumBuckets buckets), a
// coarse half has 64 of them so its index is one word, and its own
// overflow is the next coarser level — the hierarchical timing wheel
// (Varghese & Lauck) built of cFFS levels. A window move pulls in only the
// coarse buckets it now reaches, so an element is moved down once per
// level however often the window moves before it is due, and the order
// stays exact: (bucket, arrival).
type CFFS struct {
	w     Window
	h     [2]half
	over  *bucket.Array // one bucket: the overflow list, while it is short
	up    *CFFS         // the coarse level; holds the overflow past that
	moved uint64        // elements re-placed or spilled
}

// shortOverflow is the longest the overflow list grows before it spills
// into the coarse level. Re-placing a list that short costs less than the
// coarse level's upkeep — hClock's tag queues overflow one or two tags at a
// time — and bounds what a window move re-places.
const shortOverflow = 8

// coarseBuckets is the half size of every coarse level: one index word.
const coarseBuckets = 64

type half struct {
	idx *Hier
	arr *bucket.Array
}

// CFFSOptions configures a circular FFS queue.
type CFFSOptions struct {
	// NumBuckets is the number of buckets per half. The queue covers a
	// moving window of 2*NumBuckets buckets. Required.
	NumBuckets int
	// Granularity is the rank width of one bucket (e.g. nanoseconds per
	// bucket for a time-indexed shaper). Required.
	Granularity uint64
	// Start positions the initial window so that Start falls in the first
	// primary bucket.
	Start uint64
}

// NewCFFS returns a circular hierarchical FFS queue.
func NewCFFS(opt CFFSOptions) *CFFS {
	c := &CFFS{w: NewWindow(opt.NumBuckets, opt.Granularity, opt.Start), over: bucket.NewArray(1)}
	for i := range c.h {
		c.h[i] = half{NewHier(opt.NumBuckets), bucket.NewArray(opt.NumBuckets)}
	}
	return c
}

// Len returns the number of queued elements.
//
//eiffel:hotpath
func (c *CFFS) Len() int { return c.w.Len() }

// Granularity returns the rank width of one bucket.
//
//eiffel:hotpath
func (c *CFFS) Granularity() uint64 { return c.w.Granularity() }

// Stats returns the window's operational counters: half rotations,
// enqueues that landed in the overflow, jumps to the overflow minimum, and
// enqueues clamped from behind the window.
func (c *CFFS) Stats() (rotations, overflows, fastForwards, clampedLow uint64) {
	return c.w.Stats()
}

// Enqueue inserts n with the given rank. O(1) plus the constant-depth index
// update.
//
//eiffel:hotpath
func (c *CFFS) Enqueue(n *bucket.Node, rank uint64) {
	h, i, b, ok := c.w.Hit(rank)
	if ok {
		if p := &c.h[h]; p.arr.Push(i, n, rank) {
			p.idx.Set(i)
		}
		return
	}
	h, i = c.w.Add(b)
	c.put(h, i, n, rank)
}

// EnqueueBatch inserts ns[i] with ranks[i] for every i — the enqueue-side
// batching hook: callers that hold a whole run (the sharded runtime's
// locked ring flushes) insert it through ONE call instead of one interface
// dispatch per element. Exactly equivalent to that sequence of Enqueue
// calls.
//
//eiffel:hotpath
func (c *CFFS) EnqueueBatch(ns []*bucket.Node, ranks []uint64) {
	for i, n := range ns {
		c.Enqueue(n, ranks[i])
	}
}

//eiffel:hotpath
func (c *CFFS) put(h, i int, n *bucket.Node, rank uint64) {
	if h != Overflow {
		if hf := &c.h[h]; hf.arr.Push(i, n, rank) {
			hf.idx.Set(i)
		}
		return
	}
	if c.over.Len() < shortOverflow && (c.up == nil || c.up.Len() == 0) {
		c.over.Push(0, n, rank)
		return
	}
	if c.up == nil { // gran·nb fits: a rank lies beyond the window, so 2·nb·gran does
		//eiffel:allow(hotpath) one-time build of the coarse level
		c.up = NewCFFS(CFFSOptions{NumBuckets: coarseBuckets, Granularity: c.w.gran * c.w.nb})
	}
	if c.up.Len() == 0 {
		c.up.w.Anchor(&c.w)
	}
	for c.over.Len() > 0 { // the list spills: the overflow stays in one place
		m, _ := c.over.PopFront(0)
		c.up.Enqueue(m, m.Rank())
		c.moved++
	}
	c.up.Enqueue(n, rank)
}

// replace is the owner's part of a window move (Step, StepPop) or of the
// removal of the overflow minimum (Forget). A short overflow list is
// re-placed whole. A coarse level's buckets are disjoint rank ranges, so
// only its lowest can hold what the window now covers: their elements move
// in, lowest bucket first, until a bucket keeps one beyond the window (the
// bucket straddling the window's end, or the first past it), and Place
// records the exact overflow minimum from what it keeps. A bucket the
// window does not reach is read through first, which moves no window: a
// coarse level moves only to ranks this window has reached, so nothing
// arriving later lands behind its window.
//
//eiffel:hotpath
func (c *CFFS) replace() {
	for k := c.over.Len(); k > 0; k-- {
		n, _ := c.over.PopFront(0)
		rank := n.Rank()
		h, i := c.w.Place(rank)
		c.put(h, i, n, rank)
		c.moved++
	}
	for c.up != nil && c.up.Len() > 0 {
		var n *bucket.Node
		if r, _ := c.up.PeekMin(); c.w.Covers(r) {
			n = c.up.FrontMin()
		} else {
			n = c.up.first()
		}
		kept := false
		for n != nil {
			next, rank := n.Next(), n.Rank()
			if h, i := c.w.Place(rank); h == Overflow {
				kept = true
			} else {
				c.up.Remove(n)
				c.put(h, i, n, rank)
				c.moved++
			}
			n = next
		}
		if kept {
			return
		}
	}
}

// first returns the FIFO head of the lowest occupied bucket, at whatever
// level it is, or of the overflow list, which then holds everything beyond
// the halves; it moves no window and returns nil when empty.
//
//eiffel:hotpath
func (c *CFFS) first() *bucket.Node {
	for p := range 2 {
		if hf := &c.h[c.w.Primary()^p]; !hf.idx.Empty() {
			return hf.arr.Front(hf.idx.Min())
		}
	}
	if c.over.Len() > 0 {
		return c.over.Front(0)
	}
	if c.up == nil {
		return nil
	}
	return c.up.first()
}

// reach returns the primary half holding the minimum, stepping the window
// there first if it must, as a pop does. Callers guarantee Len() > 0. One
// step suffices — a swap surfaces the secondary's elements, a jump lands
// the overflow minimum in the primary.
//
//eiffel:hotpath
func (c *CFFS) reach() *half {
	p := c.w.Primary()
	if c.h[p].idx.Empty() {
		c.w.StepPop(!c.h[p^1].idx.Empty())
		c.replace()
	}
	return &c.h[c.w.Primary()]
}

// DequeueMin removes and returns the FIFO head of the lowest non-empty
// bucket, moving the window as needed, or nil if empty.
//
//eiffel:hotpath
func (c *CFFS) DequeueMin() *bucket.Node {
	if c.w.Len() == 0 {
		return nil
	}
	p := c.reach()
	i := p.idx.Min()
	n, empty := p.arr.PopFront(i)
	if empty {
		p.idx.Clear(i)
	}
	c.w.Took(1)
	return n
}

// DequeueBatch removes up to len(out) elements whose bucket-quantized rank
// is at most maxRank, in ascending bucket order (FIFO within a bucket),
// writing them to out and returning how many it removed. Popping a whole
// bucket costs one index descent plus one clear, so batch drains skip the
// per-element find-min work DequeueMin pays — the sharded runtime's
// consumer leans on this.
//
//eiffel:hotpath
func (c *CFFS) DequeueBatch(maxRank uint64, out []*bucket.Node) int {
	total := 0
	for total < len(out) && c.w.Len() > 0 {
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
		// Whole-bucket fast path: detach the FIFO list in one walk with
		// O(1) bookkeeping. Falls back to per-node pops when the bucket
		// holds more than the batch has room for.
		if k, ok := p.arr.DrainBucket(i, out[total:]); ok {
			p.idx.Clear(i)
			total += k
			c.w.Took(k)
			continue
		}
		for total < len(out) { // the bucket outlasts out
			out[total], _ = p.arr.PopFront(i)
			total++
			c.w.Took(1)
		}
	}
	return total
}

// PeekMin returns the start rank of the lowest non-empty bucket (quantized
// to the queue granularity) without moving the window. For a time-indexed
// shaper this is the SoonestDeadline() the Eiffel qdisc uses to arm its
// timer exactly (§4).
//
//eiffel:hotpath
func (c *CFFS) PeekMin() (rank uint64, ok bool) { return c.w.Peek(c.h[0].idx, c.h[1].idx) }

// Min is PeekMin under the shardq.Scheduler backend contract, letting a
// cFFS serve as a per-shard backend without an adapter.
//
//eiffel:hotpath
func (c *CFFS) Min() (uint64, bool) { return c.PeekMin() }

// FrontMin returns the node DequeueMin would pop, left in place, or nil.
// It is the first half of a pop, not a peek: the window moves exactly as
// DequeueMin moves it (StepPop), so that the node it returns is in the
// primary half, where Remove unlinks it in O(1). For pop-driven users only
// (its one user, pifo's direct service, pops by Remove): on a queue drained
// by a clock it would carry the window ahead of the clock, against W2.
//
//eiffel:hotpath
func (c *CFFS) FrontMin() *bucket.Node {
	if c.w.Len() == 0 {
		return nil
	}
	p := c.reach()
	return p.arr.Front(p.idx.Min())
}

// Remove detaches n, which must be queued here, in O(1) — except that
// removing the overflow minimum reads the overflow list or the lowest
// coarse bucket again to find the next one. A node in neither half nor the
// list is the coarse level's to remove (the deepest level panics if no
// level holds it).
//
//eiffel:hotpath
func (c *CFFS) Remove(n *bucket.Node) {
	switch {
	case n.InArray(c.h[0].arr):
		c.unlink(&c.h[0], n)
	case n.InArray(c.h[1].arr):
		c.unlink(&c.h[1], n)
	case n.InArray(c.over):
		c.over.Remove(n)
		if c.w.Forget(n.Rank()) {
			c.replace()
		}
	case c.up != nil:
		c.up.Remove(n)
		if c.w.Forget(n.Rank()) {
			c.replace()
		}
	default:
		panic("ffsq: Remove of a node not queued in this CFFS")
	}
	c.w.Took(1)
}

//eiffel:hotpath
func (c *CFFS) unlink(h *half, n *bucket.Node) {
	i := n.BucketIndex()
	if h.arr.Remove(n) {
		h.idx.Clear(i)
	}
}
