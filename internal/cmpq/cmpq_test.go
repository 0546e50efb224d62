package cmpq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"eiffel/internal/bucket"
)

func node() *bucket.Node { return &bucket.Node{} }

// --- Heap ---

func TestHeapOrdering(t *testing.T) {
	h := NewHeap()
	ranks := []uint64{9, 1, 5, 5, 0, 1 << 40}
	for _, r := range ranks {
		h.Enqueue(node(), r)
	}
	sorted := append([]uint64{}, ranks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, want := range sorted {
		n := h.DequeueMin()
		if n == nil || n.Rank() != want {
			t.Fatalf("dequeue %d: got %v, want %d", i, n, want)
		}
	}
}

func TestHeapRemoveAndUpdate(t *testing.T) {
	h := NewHeap()
	nodes := make([]*bucket.Node, 10)
	for i := range nodes {
		nodes[i] = node()
		h.Enqueue(nodes[i], uint64(i))
	}
	h.Remove(nodes[0])
	if got := h.DequeueMin(); got != nodes[1] {
		t.Fatal("want nodes[1] after removing nodes[0]")
	}
	if h.Len() != 8 {
		t.Fatalf("Len = %d, want 8", h.Len())
	}
}

func TestQuickHeapAgainstSort(t *testing.T) {
	f := func(raw []uint32) bool {
		h := NewHeap()
		for _, v := range raw {
			h.Enqueue(node(), uint64(v))
		}
		sorted := make([]uint64, len(raw))
		for i, v := range raw {
			sorted[i] = uint64(v)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, want := range sorted {
			if got := h.DequeueMin(); got.Rank() != want {
				return false
			}
		}
		return h.DequeueMin() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHeapRandomRemovals(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHeap()
		live := []*bucket.Node{}
		model := map[*bucket.Node]uint64{}
		for op := 0; op < 400; op++ {
			switch {
			case rng.Intn(3) != 0 || len(live) == 0:
				n := node()
				r := uint64(rng.Intn(1000))
				h.Enqueue(n, r)
				live = append(live, n)
				model[n] = r
			case rng.Intn(2) == 0:
				i := rng.Intn(len(live))
				h.Remove(live[i])
				delete(model, live[i])
				live = append(live[:i], live[i+1:]...)
			default:
				n := h.DequeueMin()
				if n == nil {
					return false
				}
				min := uint64(1 << 62)
				for _, r := range model {
					if r < min {
						min = r
					}
				}
				if n.Rank() != min {
					return false
				}
				delete(model, n)
				for i, x := range live {
					if x == n {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
			if h.Len() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- RBTree ---

// popMin removes and returns the smallest node, or nil: Min then Delete,
// as the fair-queueing model drives the tree.
func popMin(tr *RBTree) *RBNode {
	m := tr.Min()
	if m != nil {
		tr.Delete(m)
	}
	return m
}

func TestRBTreeInsertMinDelete(t *testing.T) {
	tr := NewRBTree()
	keys := []uint64{50, 10, 90, 10, 70, 30}
	for _, k := range keys {
		tr.Insert(k, k)
	}
	sorted := append([]uint64{}, keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, want := range sorted {
		m := popMin(tr)
		if m == nil || m.Key != want {
			t.Fatalf("min %d: got %v, want %d", i, m, want)
		}
	}
	if tr.Len() != 0 || tr.Min() != nil {
		t.Fatal("tree should be empty")
	}
}

func TestRBTreeDeleteArbitrary(t *testing.T) {
	tr := NewRBTree()
	handles := map[uint64]*RBNode{}
	for _, k := range []uint64{5, 3, 8, 1, 4, 7, 9, 2, 6} {
		handles[k] = tr.Insert(k, nil)
	}
	tr.Delete(handles[5])
	tr.Delete(handles[1])
	tr.Delete(handles[9])
	want := []uint64{2, 3, 4, 6, 7, 8}
	for i, w := range want {
		m := popMin(tr)
		if m.Key != w {
			t.Fatalf("step %d: got %d, want %d", i, m.Key, w)
		}
	}
}

// checkRB validates red-black invariants: root black, no red-red edges,
// equal black heights.
func checkRB(t *testing.T, tr *RBTree) {
	t.Helper()
	if tr.root.red {
		t.Fatal("root is red")
	}
	var walk func(x *RBNode) int
	walk = func(x *RBNode) int {
		if x == tr.nil_ {
			return 1
		}
		if x.red && (x.left.red || x.right.red) {
			t.Fatal("red node with red child")
		}
		if x.left != tr.nil_ && x.left.Key > x.Key {
			t.Fatal("BST order violated (left)")
		}
		if x.right != tr.nil_ && x.right.Key < x.Key {
			t.Fatal("BST order violated (right)")
		}
		lh := walk(x.left)
		rh := walk(x.right)
		if lh != rh {
			t.Fatalf("black height mismatch: %d vs %d", lh, rh)
		}
		if x.red {
			return lh
		}
		return lh + 1
	}
	walk(tr.root)
}

func TestRBTreeInvariantsUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := NewRBTree()
	var live []*RBNode
	for op := 0; op < 3000; op++ {
		if rng.Intn(3) != 0 || len(live) == 0 {
			live = append(live, tr.Insert(uint64(rng.Intn(500)), nil))
		} else {
			i := rng.Intn(len(live))
			tr.Delete(live[i])
			live = append(live[:i], live[i+1:]...)
		}
		if op%100 == 0 {
			checkRB(t, tr)
			if tr.Len() != len(live) {
				t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
			}
		}
	}
	checkRB(t, tr)
}

func TestQuickRBTreeSortedDrain(t *testing.T) {
	f := func(raw []uint16) bool {
		tr := NewRBTree()
		for _, v := range raw {
			tr.Insert(uint64(v), nil)
		}
		last := uint64(0)
		count := 0
		for {
			m := popMin(tr)
			if m == nil {
				break
			}
			if m.Key < last {
				return false
			}
			last = m.Key
			count++
		}
		return count == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHeapChurn(b *testing.B) {
	h := NewHeap()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		h.Enqueue(node(), uint64(rng.Intn(1<<20)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := h.DequeueMin()
		h.Enqueue(n, n.Rank()+uint64(rng.Intn(1024)))
	}
}

func BenchmarkRBTreeChurn(b *testing.B) {
	tr := NewRBTree()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		tr.Insert(uint64(rng.Intn(1<<20)), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := popMin(tr)
		tr.Insert(m.Key+uint64(rng.Intn(1024)), nil)
	}
}
