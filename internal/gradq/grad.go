package gradq

import "math"

// GradWeights is the immutable weight geometry of a gradient curvature
// index: the per-bucket improper weights 2^((p+i0)/alpha), the estimator
// offset u(alpha), and the index origin I0 (§3.1.2). One table can back any
// number of Grad accumulators over the same bucket count — the circular
// queue shares one table between its two halves.
type GradWeights struct {
	pow []float64 // pow[p] = 2^((p+i0)/alpha)
	u   float64   // 1/(1 - 2^(1/alpha)), negative
	i0  int
	n   int
}

// NewGradWeights builds the weight table for n buckets. A zero alpha
// selects the ApproxOptions default (16, raised so 2^(n/alpha) stays
// comfortably inside float64 range).
func NewGradWeights(n int, alpha float64) *GradWeights {
	if n <= 0 {
		panic("gradq: NewGradWeights needs a positive bucket count")
	}
	o := ApproxOptions{NumBuckets: n, Alpha: alpha}
	o.defaults()
	i0 := indexOrigin(o.Alpha)
	return &GradWeights{
		pow: weightTable(n, o.Alpha, i0),
		u:   1 / (1 - math.Pow(2, 1/o.Alpha)),
		i0:  i0,
		n:   n,
	}
}

// Grad is the reusable curvature accumulator of the approximate gradient
// queue: the (a, b) coefficient pair over a marked-bucket set, maintained
// with Kahan-compensated summation and decay-triggered renormalisation.
// Approx and CApprox (one per half) delegate their index maintenance here;
// the owner keeps the buckets themselves and reports transitions — Mark
// when a bucket goes empty→non-empty, Unmark for the reverse — and asks
// Estimate for the (near-)maximal marked physical index.
//
// occupied reports whether bucket p currently holds elements; it is only
// consulted on the renormalisation slow path.
type Grad struct {
	w        *GradWeights
	a, b     ksum
	marked   int
	peakA    float64
	occupied func(p int) bool
}

// NewGrad returns a curvature accumulator over w's buckets.
func NewGrad(w *GradWeights, occupied func(p int) bool) *Grad {
	if occupied == nil {
		panic("gradq: NewGrad needs an occupancy probe")
	}
	return &Grad{w: w, occupied: occupied}
}

// Mark records bucket p's empty→non-empty transition.
//
//eiffel:hotpath
func (g *Grad) Mark(p int) {
	g.a.add(g.w.pow[p])
	g.b.add(float64(p+g.w.i0) * g.w.pow[p])
	g.marked++
	if v := g.a.value(); v > g.peakA {
		g.peakA = v
	}
}

// Unmark records bucket p's non-empty→empty transition, resetting the
// accumulated floating-point drift when the last bucket empties and
// renormalising once the live mass has decayed renormRatio below its peak
// (renormalize states its cost).
//
//eiffel:hotpath
func (g *Grad) Unmark(p int) {
	g.a.sub(g.w.pow[p])
	g.b.sub(float64(p+g.w.i0) * g.w.pow[p])
	g.marked--
	if g.marked == 0 {
		g.a.reset()
		g.b.reset()
		g.peakA = 0
	} else if v := g.a.value(); v <= 0 || v*renormRatio < g.peakA {
		g.renormalize()
	}
}

// renormalize recomputes the coefficients from true occupancy, discarding
// accumulated cancellation error. It costs O(window) per fire, one occupied
// probe per bucket, and is not amortized: a Mark renormRatio above the rest
// raises peakA, and its Unmark fires this again (ROADMAP.md item 15).
//
//eiffel:hotpath
func (g *Grad) renormalize() {
	g.a.reset()
	g.b.reset()
	g.marked = 0
	for p := 0; p < g.w.n; p++ {
		if g.occupied(p) {
			g.a.add(g.w.pow[p])
			g.b.add(float64(p+g.w.i0) * g.w.pow[p])
			g.marked++
		}
	}
	g.peakA = g.a.value()
}

// Estimate returns the curvature estimate of the maximal marked physical
// index, clamped into [0, n). At least one bucket must be marked.
//
//eiffel:hotpath
func (g *Grad) Estimate() int {
	// The true value is maxIndex + eps with eps >= 0 (suffix-dense
	// residual), so rounding toward +0.5 absorbs negative floating-point
	// noise without disturbing the intended bucket.
	est := int(math.Floor(g.b.value()/g.a.value()-g.w.u+0.5)) - g.w.i0
	if est < 0 {
		est = 0
	} else if est >= g.w.n {
		est = g.w.n - 1
	}
	return est
}

// ExactIndex is the standalone Theorem-1 occupancy index: the exact
// gradient hierarchy of §3.1.2 (gnode curvature coefficients per
// exactWidth-child node, maximum located algebraically as ceil(b/a) per
// level) decoupled from any element store, so it can index external bucket
// storage the same way ffsq.Hier does — Exact composes it with a
// bucket.Array.
type ExactIndex struct {
	levels [][]gnode
}

// NewExactIndex returns a Theorem-1 index over n buckets.
func NewExactIndex(n int) *ExactIndex {
	if n <= 0 {
		panic("gradq: NewExactIndex needs a positive bucket count")
	}
	x := &ExactIndex{}
	for nodes := n; ; {
		words := (nodes + exactWidth - 1) / exactWidth
		x.levels = append(x.levels, make([]gnode, words))
		if words == 1 {
			break
		}
		nodes = words
	}
	return x
}

// Set marks bucket i non-empty. Idempotent.
//
//eiffel:hotpath
func (x *ExactIndex) Set(i int) {
	for lvl := range x.levels {
		w, c := i/exactWidth, i%exactWidth
		if !x.levels[lvl][w].set(c) {
			return
		}
		i = w
	}
}

// Clear marks bucket i empty. Idempotent.
//
//eiffel:hotpath
func (x *ExactIndex) Clear(i int) {
	for lvl := range x.levels {
		w, c := i/exactWidth, i%exactWidth
		if !x.levels[lvl][w].clear(c) {
			return
		}
		i = w
	}
}

// Max returns the maximum marked bucket, or -1, descending the hierarchy
// with one Theorem 1 division per level.
//
//eiffel:hotpath
func (x *ExactIndex) Max() int {
	top := len(x.levels) - 1
	if x.levels[top][0].a == 0 {
		return -1
	}
	j := x.levels[top][0].maxIdx()
	for lvl := top - 1; lvl >= 0; lvl-- {
		j = j*exactWidth + x.levels[lvl][j].maxIdx()
	}
	return j
}
