package ffsq

// Window is the moving window of §3.1.1, written once: two halves of nb
// buckets each over
//
//	[hIndex, hIndex+2*nb)   (in bucket units, bucket = rank/gran)
//
// plus an overflow for everything beyond. The primary half serves
// [hIndex, hIndex+nb), the secondary buffers the following nb buckets, and
// when the primary drains the halves trade places — the "circulation".
// Window owns every word that positions the window (its start, which half
// is primary, the overflow's minimum, the element count) and every
// decision to move it; the queue types over it (CFFS, ShaperStore,
// gradq.CApprox) own only an occupancy index per half and the bucket
// storage, and do what Add, Place and Step tell them.
//
// Three rules govern movement, for clocked users (ranks are release times,
// drain bounds the clock) and unclocked ones (a pop is a drain bounded by
// the bucket it pops) alike:
//
//	W1  A peek is pure: it looks through primary, secondary and the
//	    overflow minimum and moves nothing.
//	W2  The window start is never ahead of the largest drain bound served.
//	    Step moves the window only for a drain whose bound has reached the
//	    first occupied bucket beyond an empty primary. An element behind the
//	    start therefore clamps into a bucket that is already due: the window
//	    cannot hold an element past its rank.
//	W3  An empty window slides back to an arrival behind it and is never
//	    anchored forward at one. A far arrival waits in the overflow and
//	    the drain that reaches it jumps the window there. A slide back or a
//	    jump lands its element in the LAST primary bucket: nb-1 buckets of
//	    backward headroom, so the slightly smaller ranks of the same burst
//	    still sort instead of clamping. An owner whose drain bounds are a
//	    clock (ShaperStore) may pull a window it drained empty up to the
//	    bound (Idle), which keeps its idle→burst transition off the overflow
//	    path; an owner that may be unclocked (CFFS: a priority queue's bound
//	    is ^0 or another queue's head) must not — ranks below such a bound
//	    still arrive, and need their order.
//
// Window arithmetic uses offsets from hIndex, never differences of
// unrelated magnitudes, so ranks near MaxUint64 are safe.
type Window struct {
	hIndex uint64 // lowest bucket number served by the primary half
	nb     uint64
	gran   uint64
	// overMin is the lowest bucket number in the overflow, noOverflow
	// when the list is empty. Exact: Place lowers it, Step and Forget reset
	// it for the owner's re-placement pass to rebuild.
	overMin uint64
	count   int
	prim    int // which of the owner's two halves (0 or 1) is primary

	swaps, overflows, jumps, clamped uint64
}

// Overflow is the half Add and Place report for an element beyond the
// window: it goes to the owner's overflow, in arrival order.
const Overflow = 2

const noOverflow = ^uint64(0)

// NewWindow returns a window of 2*numBuckets buckets of gran ranks each
// whose primary half starts at the bucket holding start.
func NewWindow(numBuckets int, gran, start uint64) Window {
	if numBuckets <= 0 || gran == 0 {
		panic("ffsq: a window needs a positive bucket count and granularity")
	}
	return Window{hIndex: start / gran, nb: uint64(numBuckets), gran: gran, overMin: noOverflow}
}

// Len returns the number of elements the window holds.
//
//eiffel:hotpath
func (w *Window) Len() int { return w.count }

// Granularity returns the rank width of one bucket.
//
//eiffel:hotpath
func (w *Window) Granularity() uint64 { return w.gran }

// Primary returns which of the owner's two halves is primary; the other,
// Primary()^1, is secondary.
//
//eiffel:hotpath
func (w *Window) Primary() int { return w.prim & 1 }

// Stats returns operational counters: half swaps, arrivals that landed in
// the overflow, jumps to the overflow minimum, and arrivals clamped
// into the first bucket from behind the window.
func (w *Window) Stats() (swaps, overflows, jumps, clamped uint64) {
	return w.swaps, w.overflows, w.jumps, w.clamped
}

// Hit is Add for the common case, small enough to inline where Add is not:
// a rank inside the window is admitted and its half and slot returned. On
// ok=false nothing happened, and the owner calls Add with b, the rank's
// bucket, so a far arrival divides by the granularity once.
//
//eiffel:hotpath
func (w *Window) Hit(rank uint64) (half, slot int, b uint64, ok bool) {
	b = rank / w.gran
	if b < w.hIndex || b-w.hIndex >= 2*w.nb {
		return 0, 0, b, false
	}
	w.count++
	if off := b - w.hIndex; off < w.nb {
		return w.prim & 1, int(off), b, true
	}
	return w.prim&1 ^ 1, int(b - w.hIndex - w.nb), b, true
}

// Add admits one element of bucket b (its rank divided by the
// granularity, as Hit computes it) and reports where the owner must append
// it: slot of half (0 or 1), or the overflow. An empty window slides back
// to an arrival behind it (W3): with nothing queued no other position
// matters.
//
//eiffel:hotpath
func (w *Window) Add(b uint64) (half, slot int) {
	if b < w.hIndex {
		if w.count == 0 {
			w.hIndex = b - min(b, w.nb-1)
		} else {
			w.clamped++
		}
	}
	w.count++
	half, slot = w.place(b)
	if half == Overflow {
		w.overflows++
	}
	return half, slot
}

// Place reports where an element the window already counts belongs now —
// the owner's re-placement of its overflow after Step or Forget — and
// records an overflow placement in the overflow minimum. A rank behind the
// window clamps into its first bucket.
//
//eiffel:hotpath
func (w *Window) Place(rank uint64) (half, slot int) { return w.place(rank / w.gran) }

//eiffel:hotpath
func (w *Window) place(b uint64) (half, slot int) {
	off := uint64(0)
	if b > w.hIndex {
		off = b - w.hIndex
	}
	switch {
	case off < w.nb:
		return w.prim & 1, int(off)
	case off < 2*w.nb:
		return w.prim&1 ^ 1, int(off - w.nb)
	}
	if b < w.overMin {
		w.overMin = b
	}
	return Overflow, 0
}

// Covers reports whether the bucket holding rank is no further out than
// the window's end: an element of that rank would not overflow.
//
//eiffel:hotpath
func (w *Window) Covers(rank uint64) bool {
	b := rank / w.gran
	return b < w.hIndex || b-w.hIndex < 2*w.nb
}

// Anchor places an empty window, a coarse level's one bucket of which
// spans one half of below, at the end of below, whose overflow it holds:
// nothing arrives lower, so W3's slide back never fires and nothing clamps.
//
//eiffel:hotpath
func (w *Window) Anchor(below *Window) {
	if w.count == 0 {
		w.hIndex = (below.hIndex + 2*below.nb) / below.nb
	}
}

// PrimRank returns the start rank of primary slot i.
//
//eiffel:hotpath
func (w *Window) PrimRank(i int) uint64 { return (w.hIndex + uint64(i)) * w.gran }

// Beyond returns the start rank of the lowest occupied bucket beyond an
// empty primary half: secondary slot secMin, or with secMin < 0 (secondary
// empty too) the overflow minimum. The window must hold an element.
//
//eiffel:hotpath
func (w *Window) Beyond(secMin int) uint64 {
	if secMin >= 0 {
		return (w.hIndex + w.nb + uint64(secMin)) * w.gran
	}
	return w.overMin * w.gran
}

// Peek is the pure peek (W1) of an owner that indexes its halves 0 and 1
// with idx0 and idx1: the start rank of the lowest occupied bucket —
// primary, then secondary, then the overflow minimum — or ok=false.
//
//eiffel:hotpath
func (w *Window) Peek(idx0, idx1 *Hier) (rank uint64, ok bool) {
	if w.count == 0 {
		return 0, false
	}
	if w.prim&1 == 1 {
		idx0, idx1 = idx1, idx0
	}
	if i := idx0.Min(); i >= 0 {
		return w.PrimRank(i), true
	}
	return w.Beyond(idx1.Min()), true
}

// Step is the one way the window moves forward, called by a drain that
// found the primary half empty with elements still queued; secMin is the
// secondary's lowest occupied slot, or negative when it is empty. A bound
// that has not reached Beyond(secMin) moves nothing and reports false (W2).
// Otherwise it moves as StepPop does.
//
//eiffel:hotpath
func (w *Window) Step(bound uint64, secMin int) bool {
	if w.Beyond(secMin) > bound {
		return false
	}
	w.StepPop(secMin >= 0)
	return true
}

// StepPop is Step for a pop — a drain bounded by the bucket it pops, so it
// always moves; the owner says only whether the secondary half holds
// anything. If so the halves trade places, else the window jumps to the
// overflow minimum (into the last primary bucket, W3). Either way the
// overflow minimum is reset: the owner must re-place through Place, in
// arrival order and before anything else, every overflowed element the
// window may now hold and every one that may be the new minimum — its
// whole overflow list, or for a CFFS the lowest coarse buckets.
//
//eiffel:hotpath
func (w *Window) StepPop(secOccupied bool) {
	if secOccupied {
		w.prim ^= 1
		w.hIndex += w.nb
		w.swaps++
	} else {
		w.hIndex = w.overMin - min(w.overMin, w.nb-1)
		w.jumps++
	}
	w.overMin = noOverflow
}

// Took records that k elements left.
//
//eiffel:hotpath
func (w *Window) Took(k int) { w.count -= k }

// Idle ends a clocked owner's drain bounded by bound: a window it left
// empty follows the clock, so the next arrivals land in the window. Not for
// an owner that may be unclocked (W3): everything arriving below the bound
// before the window next empties would clamp into one bucket.
//
//eiffel:hotpath
func (w *Window) Idle(bound uint64) {
	if w.count == 0 {
		w.hIndex = max(w.hIndex, bound/w.gran)
	}
}

// Forget is told that an element of the given rank left the overflow list
// other than through Step (beside the owner's Took), and reports whether it
// may have been the overflow minimum. If so the minimum is reset and the
// owner must re-place its overflow list (a CFFS: its lowest coarse bucket)
// through Place to rebuild it — on the removal of a minimum only — so that
// a peek never answers from a departed element.
//
//eiffel:hotpath
func (w *Window) Forget(rank uint64) bool {
	if rank/w.gran != w.overMin {
		return false
	}
	w.overMin = noOverflow
	return true
}
