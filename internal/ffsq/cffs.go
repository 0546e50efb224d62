package ffsq

import "eiffel/internal/bucket"

// CFFS is the circular hierarchical FFS-based queue of §3.1.1 — the core
// Eiffel data structure. It serves rank ranges that move forward over time
// (transmission timestamps, virtual finish times) with O(1) amortized
// enqueue and dequeue: a Window (which see, for where an element goes and
// when the window moves) over two halves of intrusive FIFO buckets, each
// indexed by a hierarchical bitmap, and an intrusive overflow list that
// every window move re-places by true rank, so ordering degrades only
// transiently, never permanently.
type CFFS struct {
	w    Window
	h    [2]half
	over *bucket.Array // one bucket: the overflow list
}

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
	c := &CFFS{
		w:    NewWindow(opt.NumBuckets, opt.Granularity, opt.Start),
		over: bucket.NewArray(1),
	}
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
// enqueues that landed on the overflow list, jumps to the overflow minimum,
// and enqueues clamped from behind the window.
func (c *CFFS) Stats() (rotations, overflows, fastForwards, clampedLow uint64) {
	return c.w.Stats()
}

// Enqueue inserts n with the given rank. O(1) plus the constant-depth index
// update.
//
//eiffel:hotpath
func (c *CFFS) Enqueue(n *bucket.Node, rank uint64) {
	if h, i, ok := c.w.Hit(rank); ok {
		if p := &c.h[h]; p.arr.Push(i, n, rank) {
			p.idx.Set(i)
		}
		return
	}
	h, i := c.w.Add(rank)
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
	if h == Overflow {
		c.over.Push(0, n, rank)
	} else if hf := &c.h[h]; hf.arr.Push(i, n, rank) {
		hf.idx.Set(i)
	}
}

// replace re-places the overflow list after the window told it to.
//
//eiffel:hotpath
func (c *CFFS) replace() {
	for k := c.over.Len(); k > 0; k-- {
		n, _ := c.over.PopFront(0)
		rank := n.Rank()
		h, i := c.w.Place(rank)
		c.put(h, i, n, rank)
	}
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
// DequeueMin moves it (StepPop), because the minimum of the unsorted
// overflow list is only found by re-placing it. For pop-driven users only
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
// removing the overflow list's minimum re-places that list.
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

// Contains reports whether n is currently queued here.
func (c *CFFS) Contains(n *bucket.Node) bool {
	return n.InArray(c.h[0].arr) || n.InArray(c.h[1].arr) || n.InArray(c.over)
}
