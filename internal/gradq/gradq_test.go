package gradq

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"eiffel/internal/bucket"
)

func node(v uint64) *bucket.Node { return &bucket.Node{Data: v} }

// --- Appendix A: Theorem 1 ---

// theorem1 computes the index of the most significant set bit of a word
// algebraically, exactly as Appendix A proves: ceil(b/a) with a the word
// itself and b the index-weighted bit sum. The word must be non-zero and
// use at most exactWidth bits: a gnode built bit by bit, as the index
// builds its nodes.
func theorem1(word uint64) int {
	var g gnode
	for i := 0; i < exactWidth; i++ {
		if word&(1<<uint(i)) != 0 {
			g.set(i)
		}
	}
	if g.a == 0 {
		panic("gradq: theorem1 of zero word")
	}
	return g.maxIdx()
}

func TestTheorem1AllSingleBits(t *testing.T) {
	for i := 0; i < exactWidth; i++ {
		if got := theorem1(1 << uint(i)); got != i {
			t.Fatalf("theorem1(1<<%d) = %d, want %d", i, got, i)
		}
	}
}

func TestTheorem1AllOnesPrefixes(t *testing.T) {
	for n := 1; n <= exactWidth; n++ {
		word := uint64(1)<<uint(n) - 1
		if got, want := theorem1(word), n-1; got != want {
			t.Fatalf("theorem1(ones(%d)) = %d, want %d", n, got, want)
		}
	}
}

func TestTheorem1Exhaustive16(t *testing.T) {
	// Exhaustive over all 16-bit occupancies.
	for w := uint64(1); w < 1<<16; w++ {
		if got, want := theorem1(w), bits.Len64(w)-1; got != want {
			t.Fatalf("theorem1(%#x) = %d, want %d", w, got, want)
		}
	}
}

func TestQuickTheorem1Random32(t *testing.T) {
	f := func(raw uint32) bool {
		w := uint64(raw)
		if w == 0 {
			w = 1
		}
		return theorem1(w) == bits.Len64(w)-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// --- Exact gradient queue ---

func TestExactMaxOrdering(t *testing.T) {
	q := NewExact(1000, 1, 0)
	ranks := []uint64{5, 900, 3, 999, 0, 512, 512}
	for _, r := range ranks {
		q.Enqueue(node(r), r)
	}
	sorted := append([]uint64{}, ranks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	for i, want := range sorted {
		n := q.DequeueMax()
		if n == nil || n.Rank() != want {
			t.Fatalf("dequeue %d: got %v, want %d", i, n, want)
		}
	}
	if q.DequeueMax() != nil {
		t.Fatal("queue should be empty")
	}
}

func TestExactAgainstHeapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	q := NewExact(5000, 1, 0)
	var model []uint64
	for op := 0; op < 5000; op++ {
		if rng.Intn(2) == 0 || len(model) == 0 {
			r := uint64(rng.Intn(5000))
			q.Enqueue(node(r), r)
			model = append(model, r)
		} else {
			sort.Slice(model, func(i, j int) bool { return model[i] > model[j] })
			n := q.DequeueMax()
			if n.Rank() != model[0] {
				t.Fatalf("op %d: got %d, want %d", op, n.Rank(), model[0])
			}
			model = model[1:]
		}
	}
}

func TestExactRemove(t *testing.T) {
	q := NewExact(100, 1, 0)
	n1, n2 := node(50), node(60)
	q.Enqueue(n1, 50)
	q.Enqueue(n2, 60)
	q.Remove(n2)
	if got := q.DequeueMax(); got != n1 {
		t.Fatal("expected n1 after removing n2")
	}
	if q.Len() != 0 {
		t.Fatal("queue should be empty")
	}
}

func TestExactMinOrdering(t *testing.T) {
	q := NewExactMin(256, 4, 1000)
	ranks := []uint64{1500, 1004, 1999, 1000, 1500}
	for _, r := range ranks {
		q.Enqueue(node(r), r)
	}
	sorted := append([]uint64{}, ranks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, want := range sorted {
		n := q.DequeueMin()
		if n == nil || n.Rank() != want {
			t.Fatalf("dequeue %d: got %v, want %d", i, n, want)
		}
	}
}

func TestExactMinPeek(t *testing.T) {
	q := NewExactMin(100, 10, 0)
	q.Enqueue(node(557), 557)
	r, ok := q.PeekMin()
	if !ok || r != 550 {
		t.Fatalf("PeekMin = (%d,%v), want bucket start 550", r, ok)
	}
}

// --- Approximate gradient queue ---

func TestApproxDenseIsExact(t *testing.T) {
	// Every bucket occupied: dequeues come out in exact rank order. The
	// estimate only ever overshoots under suffix-dense occupancy, so the
	// downward search always lands on the true minimum (zero selection
	// error); the residual overshoot costs a bounded number of search
	// steps as the occupied span shrinks below ~8*alpha — the cost curve
	// Figure 17 measures.
	const n = 523
	q := NewApprox(ApproxOptions{NumBuckets: n, Granularity: 1, Alpha: 16, Instrument: true})
	for i := 0; i < n; i++ {
		q.Enqueue(node(uint64(i)), uint64(i))
	}
	for i := 0; i < n; i++ {
		got := q.DequeueMin()
		if got == nil || got.Rank() != uint64(i) {
			t.Fatalf("dequeue %d: got %v", i, got)
		}
	}
	s := q.Stats()
	if s.AvgSelectionError != 0 {
		t.Fatalf("dense occupancy should have zero selection error, got %v", s.AvgSelectionError)
	}
	if avg := float64(s.SearchSteps) / float64(s.Lookups); avg > 3 {
		t.Fatalf("dense drain should need only small corrections, got %.2f steps/lookup", avg)
	}
}

func TestApproxFullOccupancyFirstLookupsExact(t *testing.T) {
	// While the occupied span stays large the estimate needs no search at
	// all — the "zero error, one step" scenario of §3.1.2.
	const n = 2000
	q := NewApprox(ApproxOptions{NumBuckets: n, Granularity: 1, Alpha: 16, Instrument: true})
	for i := 0; i < n; i++ {
		q.Enqueue(node(uint64(i)), uint64(i))
	}
	for i := 0; i < n/2; i++ {
		if got := q.DequeueMin(); got.Rank() != uint64(i) {
			t.Fatalf("dequeue %d: rank %d", i, got.Rank())
		}
	}
	if s := q.Stats(); s.SearchSteps != 0 {
		t.Fatalf("large-span dense lookups should be single-step, got %d search steps", s.SearchSteps)
	}
}

func TestApproxNoElementLost(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	q := NewApprox(ApproxOptions{NumBuckets: n, Granularity: 1})
	const k = 5000
	for i := 0; i < k; i++ {
		r := uint64(rng.Intn(n))
		q.Enqueue(node(r), r)
	}
	got := 0
	for q.DequeueMin() != nil {
		got++
	}
	if got != k {
		t.Fatalf("drained %d elements, want %d", got, k)
	}
}

func TestApproxSparseFallsBackToSearch(t *testing.T) {
	const n = 1000
	q := NewApprox(ApproxOptions{NumBuckets: n, Granularity: 1, Instrument: true})
	// A single occupied bucket: estimate overshoots by ~|u| and the linear
	// search must still land on the right bucket.
	q.Enqueue(node(400), 400)
	got := q.DequeueMin()
	if got == nil || got.Rank() != 400 {
		t.Fatalf("got %v, want rank 400", got)
	}
	s := q.Stats()
	if s.SearchSteps == 0 {
		t.Fatal("single sparse bucket should have required linear search")
	}
	if s.AvgSelectionError != 0 {
		t.Fatalf("downward search should find the true bucket, selErr=%v", s.AvgSelectionError)
	}
}

func TestApproxRemoveAndDrift(t *testing.T) {
	const n = 100
	q := NewApprox(ApproxOptions{NumBuckets: n, Granularity: 1})
	nodes := make([]*bucket.Node, n)
	for i := range nodes {
		nodes[i] = node(uint64(i))
		q.Enqueue(nodes[i], uint64(i))
	}
	for _, x := range nodes {
		q.Remove(x)
	}
	if q.Len() != 0 {
		t.Fatal("queue should be empty")
	}
	if a, b := q.grad.a.value(), q.grad.b.value(); a != 0 || b != 0 {
		t.Fatalf("coefficients not reset on empty: a=%v b=%v", a, b)
	}
}

// --- Appendix B occupancy patterns ---

// appendixBPhysFill occupies the given *physical* buckets of an
// instrumented approximate queue. Physical p corresponds to logical
// n-1-p, i.e. rank n-1-p at granularity 1.
func appendixBPhysFill(n int, phys []int) *Approx {
	q := NewApprox(ApproxOptions{NumBuckets: n, Granularity: 1, Alpha: 16, Instrument: true})
	for _, p := range phys {
		r := uint64(n - 1 - p)
		q.Enqueue(node(r), r)
	}
	return q
}

func TestAppendixBEvenlySpacedLowError(t *testing.T) {
	// Case 1: elements evenly distributed with frequency 1/alpha behave
	// like an exact gradient queue with N/alpha elements.
	const n = 1024
	var phys []int
	for p := 0; p < n; p += 16 {
		phys = append(phys, p)
	}
	q := appendixBPhysFill(n, phys)
	got := q.DequeueMin()
	want := uint64(n - 1 - phys[len(phys)-1])
	if got.Rank() != want {
		// Even spacing may still be off by a small constant; the element
		// must come from within a few buckets of the true maximum.
		if d := int64(got.Rank()) - int64(want); d < -64 || d > 64 {
			t.Fatalf("evenly spaced: got rank %d, want near %d", got.Rank(), want)
		}
	}
}

func TestAppendixBLowConcentrationUndershoots(t *testing.T) {
	// Case 2: N/2 elements at the bottom plus one element above them. The
	// concentration pulls the estimate below the true maximum (epsilon<0),
	// and the error grows with the concentration size and shrinks with
	// distance — once the single element is far enough (its exponential
	// weight dominating the concentration sum), the error vanishes.
	const n = 1024
	mk := func(single int) *Approx {
		var phys []int
		for p := 0; p < n/2; p++ {
			phys = append(phys, p)
		}
		phys = append(phys, single)
		return appendixBPhysFill(n, phys)
	}

	near := mk(540) // ~1.5*alpha beyond the concentration: ambiguous
	near.DequeueMin()
	if s := near.Stats(); s.AvgSelectionError == 0 {
		t.Fatal("nearby concentration should cause a selection error (epsilon < 0)")
	}

	far := mk(768) // 3N/4 as in the appendix: single element dominates
	got := far.DequeueMin()
	if want := uint64(n - 1 - 768); got.Rank() != want {
		t.Fatalf("distant single element: got rank %d, want %d", got.Rank(), want)
	}
	if s := far.Stats(); s.AvgSelectionError != 0 {
		t.Fatalf("distant single element should dominate, selErr=%v", s.AvgSelectionError)
	}

	nearErr, farErr := mk(530), mk(600)
	nearErr.DequeueMin()
	farErr.DequeueMin()
	if nearErr.Stats().AvgSelectionError >= farErr.Stats().AvgSelectionError {
		// |epsilon| grows with the gap while still inside the ambiguous
		// zone (the estimate stays pinned at the concentration edge).
		t.Fatalf("error should grow with gap inside the ambiguous zone: near=%v far=%v",
			nearErr.Stats().AvgSelectionError, farErr.Stats().AvgSelectionError)
	}
}

func TestAppendixBFullOccupancyExact(t *testing.T) {
	// Case 3: all buckets occupied — exactly where the estimate is exact.
	const n = 523
	phys := make([]int, n)
	for p := range phys {
		phys[p] = p
	}
	q := appendixBPhysFill(n, phys)
	got := q.DequeueMin()
	if got.Rank() != 0 {
		t.Fatalf("full occupancy: got rank %d, want 0", got.Rank())
	}
	if s := q.Stats(); s.AvgSelectionError != 0 {
		t.Fatalf("full occupancy selection error = %v, want 0", s.AvgSelectionError)
	}
}

// --- Circular approximate queue ---

func TestCApproxDenseOrdering(t *testing.T) {
	q := NewCApprox(CApproxOptions{NumBuckets: 64, Granularity: 1})
	for r := uint64(0); r < 128; r++ {
		q.Enqueue(node(r), r)
	}
	for r := uint64(0); r < 128; r++ {
		n := q.DequeueMin()
		if n == nil || n.Rank() != r {
			t.Fatalf("dequeue %d: got %v", r, n)
		}
	}
}

func TestCApproxFarJumpAndOverflow(t *testing.T) {
	q := NewCApprox(CApproxOptions{NumBuckets: 16, Granularity: 1})
	q.Enqueue(node(3), 3)
	q.Enqueue(node(100000), 100000)
	q.Enqueue(node(100004), 100004)
	if n := q.DequeueMin(); n.Rank() != 3 {
		t.Fatalf("first = %d", n.Rank())
	}
	if n := q.DequeueMin(); n.Rank() != 100000 {
		t.Fatalf("second = %d", n.Rank())
	}
	if n := q.DequeueMin(); n.Rank() != 100004 {
		t.Fatalf("third = %d", n.Rank())
	}
	if _, _, ff, _ := q.w.Stats(); ff == 0 {
		t.Fatal("expected a fast-forward")
	}
}

func TestCApproxProgressionDrainsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := NewCApprox(CApproxOptions{NumBuckets: 32, Granularity: 4})
	queued := 0
	base := uint64(0)
	for op := 0; op < 3000; op++ {
		if rng.Intn(2) == 0 || queued == 0 {
			r := base + uint64(rng.Intn(512))
			q.Enqueue(node(r), r)
			queued++
			if rng.Intn(10) == 0 {
				base += uint64(rng.Intn(256))
			}
		} else {
			if q.DequeueMin() == nil {
				t.Fatal("unexpected empty dequeue")
			}
			queued--
		}
	}
	for q.DequeueMin() != nil {
		queued--
	}
	if queued != 0 {
		t.Fatalf("element accounting off by %d", queued)
	}
}

func TestCApproxRemove(t *testing.T) {
	q := NewCApprox(CApproxOptions{NumBuckets: 16, Granularity: 1})
	n1, n2 := node(5), node(20)
	q.Enqueue(n1, 5)
	q.Enqueue(n2, 20) // secondary half
	q.Remove(n2)
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	if got := q.DequeueMin(); got != n1 {
		t.Fatal("expected n1")
	}
}

func BenchmarkApproxDense(b *testing.B) {
	const n = 5000
	q := NewApprox(ApproxOptions{NumBuckets: n, Granularity: 1})
	nodes := make([]*bucket.Node, n)
	for i := range nodes {
		nodes[i] = &bucket.Node{}
		q.Enqueue(nodes[i], uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := q.DequeueMin()
		q.Enqueue(x, x.Rank())
	}
}

func BenchmarkExactMax(b *testing.B) {
	const n = 5000
	q := NewExact(n, 1, 0)
	nodes := make([]*bucket.Node, n)
	for i := range nodes {
		nodes[i] = &bucket.Node{}
		q.Enqueue(nodes[i], uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := q.DequeueMax()
		q.Enqueue(x, x.Rank())
	}
}
