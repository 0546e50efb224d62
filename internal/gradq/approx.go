package gradq

import (
	"math"

	"eiffel/internal/bucket"
	"eiffel/internal/ffsq"
)

// ApproxOptions configures an approximate gradient queue.
type ApproxOptions struct {
	// NumBuckets is the bucket count. Required.
	NumBuckets int
	// Granularity is the rank width of one bucket. Required.
	Granularity uint64
	// Base is the rank of the first bucket.
	Base uint64
	// Alpha is the weight-decay parameter: bucket i weighs 2^(i/Alpha).
	// Larger alpha lets one flat curvature cover more buckets at the cost
	// of more estimation ambiguity. Zero selects a default that keeps
	// 2^(NumBuckets/Alpha) comfortably inside float64 range.
	Alpha float64
	// Instrument additionally maintains an exact hierarchical index so the
	// queue can report true selection error (Figure 18). It roughly
	// doubles index-maintenance cost and is meant for experiments only.
	Instrument bool
}

func (o *ApproxOptions) defaults() {
	if o.Alpha == 0 {
		o.Alpha = 16
		if lim := float64(o.NumBuckets) / 900; lim > o.Alpha {
			o.Alpha = math.Ceil(lim)
		}
	}
}

// Approx is the approximate gradient queue of §3.1.2, exposed as a
// min-priority queue (ranks are deadlines/timestamps; internally bucket
// indices are mirrored so the algebraic max-estimate finds the minimum
// rank). The curvature coefficients use the improper weight 2^(i/alpha), so
// a single (a, b) pair covers thousands of buckets and the minimum is
// estimated in one step:
//
//	est = floor(b/a - u(alpha)),  u(alpha) = 1/(1 - 2^(1/alpha))
//
// The estimate is exact when occupied buckets are dense (the uniform-rank
// workloads the paper highlights); under sparse occupancy the queue falls
// back to a linear scan from the estimate and may return a near-minimum
// rather than the minimum. Stats() exposes both costs.
type Approx struct {
	arr  *bucket.Array
	grad *Grad // curvature index over physical buckets
	base uint64
	gran uint64
	n    int

	exact *ffsq.Hier // only when instrumented

	lookups     uint64
	searchSteps uint64
	selErrSum   uint64
	selErrMax   int
	estErrSum   uint64
}

// NewApprox returns an approximate gradient min-queue.
func NewApprox(opt ApproxOptions) *Approx {
	if opt.NumBuckets <= 0 {
		panic("gradq: NewApprox needs a positive bucket count")
	}
	if opt.Granularity == 0 {
		panic("gradq: NewApprox needs a positive granularity")
	}
	opt.defaults()
	q := &Approx{
		arr:  bucket.NewArray(opt.NumBuckets),
		base: opt.Base,
		gran: opt.Granularity,
		n:    opt.NumBuckets,
	}
	q.grad = NewGrad(NewGradWeights(opt.NumBuckets, opt.Alpha), func(p int) bool {
		return !q.arr.BucketEmpty(p)
	})
	if opt.Instrument {
		q.exact = ffsq.NewHier(opt.NumBuckets)
	}
	return q
}

// indexOrigin returns I0, the first usable weight index for a given alpha
// (§3.1.2: "indices start from I0 where g(alpha, M0) ~ 0"). It is chosen so
// the residual estimate error M*g(alpha,M)/(1-g) stays below half a bucket
// for every M >= I0, making the estimate exact under dense occupancy. For
// alpha=16 this lands near the paper's I0=124.
func indexOrigin(alpha float64) int {
	for i0 := int(2 * alpha); ; i0++ {
		g := math.Pow(2, -float64(i0+1)/alpha)
		if float64(i0)*g/(1-g) < 0.45 {
			return i0
		}
	}
}

func weightTable(n int, alpha float64, i0 int) []float64 {
	pow := make([]float64, n)
	for i := range pow {
		pow[i] = math.Pow(2, float64(i+i0)/alpha)
		if math.IsInf(pow[i], 1) {
			panic("gradq: alpha too small for bucket count (weight overflows float64)")
		}
	}
	return pow
}

// Len returns the number of queued elements.
func (q *Approx) Len() int { return q.arr.Len() }

// ApproxStats reports the cost and accuracy counters of an approximate
// queue. SelectionError compares the bucket actually returned against the
// true minimum bucket; EstimateError compares the raw curvature estimate
// before the linear-search correction. Both require Instrument.
type ApproxStats struct {
	Lookups           uint64
	SearchSteps       uint64
	AvgSelectionError float64
	MaxSelectionError int
	AvgEstimateError  float64
}

// Stats returns accumulated lookup statistics.
func (q *Approx) Stats() ApproxStats {
	s := ApproxStats{
		Lookups:           q.lookups,
		SearchSteps:       q.searchSteps,
		MaxSelectionError: q.selErrMax,
	}
	if q.lookups > 0 {
		s.AvgSelectionError = float64(q.selErrSum) / float64(q.lookups)
		s.AvgEstimateError = float64(q.estErrSum) / float64(q.lookups)
	}
	return s
}

// phys mirrors a logical bucket (0 = lowest rank) into the physical index
// space where the gradient estimate finds the maximum.
func (q *Approx) phys(logical int) int { return q.n - 1 - logical }

func (q *Approx) logicalFor(rank uint64) int {
	if rank < q.base {
		return 0
	}
	b := (rank - q.base) / q.gran
	if b >= uint64(q.n) {
		return q.n - 1
	}
	return int(b)
}

// renormRatio triggers coefficient renormalization once the live weight
// mass has decayed this far below its peak: beyond that, cancellation error
// left behind by the departed mass (~2^-52 of the peak) becomes comparable
// to the remaining sum and would corrupt the estimate.
const renormRatio = 1 << 24

func (q *Approx) addWeight(p int) {
	q.grad.Mark(p)
	if q.exact != nil {
		q.exact.Set(p)
	}
}

func (q *Approx) subWeight(p int) {
	q.grad.Unmark(p)
	if q.exact != nil {
		q.exact.Clear(p)
	}
}

// Enqueue inserts n with the given rank.
func (q *Approx) Enqueue(n *bucket.Node, rank uint64) {
	p := q.phys(q.logicalFor(rank))
	if q.arr.Push(p, n, rank) {
		q.addWeight(p)
	}
}

// findMaxPhys locates a (near-)maximal non-empty physical bucket: curvature
// estimate first, then linear search downward (and upward as a last
// resort). The queue must be non-empty.
func (q *Approx) findMaxPhys() int {
	q.lookups++
	est := q.grad.Estimate()
	found := -1
	if !q.arr.BucketEmpty(est) {
		found = est
	} else {
		for i := est - 1; i >= 0; i-- {
			q.searchSteps++
			if !q.arr.BucketEmpty(i) {
				found = i
				break
			}
		}
		if found < 0 {
			for i := est + 1; i < q.n; i++ {
				q.searchSteps++
				if !q.arr.BucketEmpty(i) {
					found = i
					break
				}
			}
		}
	}
	if q.exact != nil {
		truth := q.exact.Max()
		if d := abs(found - truth); d > 0 {
			q.selErrSum += uint64(d)
			if d > q.selErrMax {
				q.selErrMax = d
			}
		}
		q.estErrSum += uint64(abs(est - truth))
	}
	return found
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// DequeueMin removes and returns the FIFO head of an approximately minimal
// bucket, or nil if empty.
func (q *Approx) DequeueMin() *bucket.Node {
	if q.arr.Len() == 0 {
		return nil
	}
	p := q.findMaxPhys()
	n, empty := q.arr.PopFront(p)
	if empty {
		q.subWeight(p)
	}
	return n
}

// PeekMin returns the start rank of an approximately minimal non-empty
// bucket.
func (q *Approx) PeekMin() (rank uint64, ok bool) {
	if q.arr.Len() == 0 {
		return 0, false
	}
	p := q.findMaxPhys()
	logical := uint64(q.n - 1 - p)
	return q.base + logical*q.gran, true
}

// PeekMaxLinear returns the start rank of the highest non-empty bucket by
// linear scan from the top. The gradient index accelerates only the
// minimum side; pFabric-style switches use this slower path for their
// drop-largest-remaining decision, which only runs at overload when the
// top of the queue is densely occupied.
func (q *Approx) PeekMaxLinear() (rank uint64, ok bool) {
	p := q.minPhysLinear()
	if p < 0 {
		return 0, false
	}
	logical := uint64(q.n - 1 - p)
	return q.base + logical*q.gran, true
}

// DequeueMaxLinear removes the FIFO head of the highest non-empty bucket
// (linear scan; see PeekMaxLinear), or nil.
func (q *Approx) DequeueMaxLinear() *bucket.Node {
	p := q.minPhysLinear()
	if p < 0 {
		return nil
	}
	n, empty := q.arr.PopFront(p)
	if empty {
		q.subWeight(p)
	}
	return n
}

// minPhysLinear finds the lowest non-empty physical bucket (= highest
// logical rank), or -1.
func (q *Approx) minPhysLinear() int {
	if q.arr.Len() == 0 {
		return -1
	}
	for p := 0; p < q.n; p++ {
		if !q.arr.BucketEmpty(p) {
			return p
		}
	}
	return -1
}

// Remove detaches n in O(1).
func (q *Approx) Remove(n *bucket.Node) {
	p := n.BucketIndex()
	if q.arr.Remove(n) {
		q.subWeight(p)
	}
}
