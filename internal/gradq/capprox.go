package gradq

import (
	"eiffel/internal/bucket"
	"eiffel/internal/ffsq"
)

// CApprox is the circular variant of the approximate gradient queue (§3.1.2
// closes with "for cases of a moving range, a circular approximate queue
// can be implemented as with cFFS"): the same ffsq.Window as the cFFS — where
// an element goes and when the window moves are its decisions — over two
// halves of intrusive buckets and an overflow list, while bucket selection
// inside a half uses the curvature estimate.
//
// Control-flow decisions (is a half empty?) use exact element counts, so
// only *which* bucket of a half is served next is approximate; no element
// is ever lost or served before its half.
type CApprox struct {
	w    ffsq.Window
	h    [2]approxHalf
	over *bucket.Array // one bucket: the overflow list
	nb   int
}

// approxHalf stores logical slot i (ascending rank) at physical bucket
// nb-1-i: the curvature index estimates the MAXIMUM marked bucket.
type approxHalf struct {
	arr *bucket.Array
	g   *Grad // curvature accumulator; both halves share one GradWeights
}

// CApproxOptions configures a circular approximate gradient queue.
type CApproxOptions struct {
	// NumBuckets is the bucket count per half. Required.
	NumBuckets int
	// Granularity is the rank width of one bucket. Required.
	Granularity uint64
	// Start positions the initial window.
	Start uint64
	// Alpha is the weight-decay parameter (see ApproxOptions.Alpha).
	Alpha float64
}

// NewCApprox returns a circular approximate gradient min-queue.
func NewCApprox(opt CApproxOptions) *CApprox {
	c := &CApprox{
		w:    ffsq.NewWindow(opt.NumBuckets, opt.Granularity, opt.Start),
		over: bucket.NewArray(1),
		nb:   opt.NumBuckets,
	}
	w := NewGradWeights(opt.NumBuckets, opt.Alpha)
	for i := range c.h {
		arr := bucket.NewArray(opt.NumBuckets)
		c.h[i] = approxHalf{arr, NewGrad(w, func(p int) bool { return !arr.BucketEmpty(p) })}
	}
	return c
}

// Len returns the number of queued elements.
func (c *CApprox) Len() int { return c.w.Len() }

// Enqueue inserts n with the given rank.
func (c *CApprox) Enqueue(n *bucket.Node, rank uint64) {
	h, i := c.w.Add(rank / c.w.Granularity())
	c.put(h, i, n, rank)
}

func (c *CApprox) put(h, i int, n *bucket.Node, rank uint64) {
	if h == ffsq.Overflow {
		c.over.Push(0, n, rank)
	} else if hf, p := &c.h[h], c.nb-1-i; hf.arr.Push(p, n, rank) {
		hf.g.Mark(p)
	}
}

// replace re-places the overflow list after the window told it to.
func (c *CApprox) replace() {
	for k := c.over.Len(); k > 0; k-- {
		n, _ := c.over.PopFront(0)
		rank := n.Rank()
		h, i := c.w.Place(rank)
		c.put(h, i, n, rank)
	}
}

// findMaxPhys locates a (near-)maximal non-empty physical bucket of h,
// which must be non-empty.
func (c *CApprox) findMaxPhys(h *approxHalf) int {
	est := h.g.Estimate()
	if !h.arr.BucketEmpty(est) {
		return est
	}
	for i := est - 1; i >= 0; i-- {
		if !h.arr.BucketEmpty(i) {
			return i
		}
	}
	for i := est + 1; i < c.nb; i++ {
		if !h.arr.BucketEmpty(i) {
			return i
		}
	}
	panic("gradq: findMaxPhys on an empty half")
}

// DequeueMin removes and returns the FIFO head of an approximately minimal
// bucket, moving the window as needed, or nil if empty.
func (c *CApprox) DequeueMin() *bucket.Node {
	if c.w.Len() == 0 {
		return nil
	}
	if p := c.w.Primary(); c.h[p].arr.Len() == 0 {
		c.w.StepPop(c.h[p^1].arr.Len() > 0)
		c.replace()
	}
	h := &c.h[c.w.Primary()]
	p := c.findMaxPhys(h)
	n, empty := h.arr.PopFront(p)
	if empty {
		h.g.Unmark(p)
	}
	c.w.Took(1)
	return n
}

// PeekMin returns the start rank of an approximately minimal non-empty
// bucket, without moving the window.
func (c *CApprox) PeekMin() (rank uint64, ok bool) {
	if c.w.Len() == 0 {
		return 0, false
	}
	p := c.w.Primary()
	if h := &c.h[p]; h.arr.Len() > 0 {
		return c.w.PrimRank(c.nb - 1 - c.findMaxPhys(h)), true
	}
	if h := &c.h[p^1]; h.arr.Len() > 0 {
		return c.w.Beyond(c.nb - 1 - c.findMaxPhys(h)), true
	}
	return c.w.Beyond(-1), true
}

// Remove detaches n, which must be queued here, in O(1) — except that
// removing the overflow list's minimum re-places that list.
func (c *CApprox) Remove(n *bucket.Node) {
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
		panic("gradq: Remove of a node not queued in this CApprox")
	}
	c.w.Took(1)
}

func (c *CApprox) unlink(h *approxHalf, n *bucket.Node) {
	p := n.BucketIndex()
	if h.arr.Remove(n) {
		h.g.Unmark(p)
	}
}
