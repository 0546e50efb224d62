package ffsq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveIndex is a reference implementation backed by a []bool.
type naiveIndex struct {
	set []bool
}

func newNaive(n int) *naiveIndex { return &naiveIndex{set: make([]bool, n)} }

func (x *naiveIndex) Set(i int)       { x.set[i] = true }
func (x *naiveIndex) Clear(i int)     { x.set[i] = false }
func (x *naiveIndex) Test(i int) bool { return x.set[i] }
func (x *naiveIndex) Size() int       { return len(x.set) }

func (x *naiveIndex) Min() int {
	for i, s := range x.set {
		if s {
			return i
		}
	}
	return -1
}

func (x *naiveIndex) Max() int {
	for i := len(x.set) - 1; i >= 0; i-- {
		if x.set[i] {
			return i
		}
	}
	return -1
}

func (x *naiveIndex) Empty() bool { return x.Min() == -1 }

func testIndexAgainstNaive(t *testing.T, mk func(n int) Index, n int, seed int64) {
	t.Helper()
	idx := mk(n)
	ref := newNaive(n)
	rng := rand.New(rand.NewSource(seed))
	for op := 0; op < 2000; op++ {
		i := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			idx.Set(i)
			ref.Set(i)
		case 1:
			idx.Clear(i)
			ref.Clear(i)
		case 2:
			// Redundant ops must be idempotent.
			if ref.Test(i) {
				idx.Set(i)
			} else {
				idx.Clear(i)
			}
		}
		if got, want := idx.Min(), ref.Min(); got != want {
			t.Fatalf("op %d: Min = %d, want %d", op, got, want)
		}
		if got, want := idx.Max(), ref.Max(); got != want {
			t.Fatalf("op %d: Max = %d, want %d", op, got, want)
		}
		if got, want := idx.Empty(), ref.Empty(); got != want {
			t.Fatalf("op %d: Empty = %v, want %v", op, got, want)
		}
		if got, want := idx.Test(i), ref.Test(i); got != want {
			t.Fatalf("op %d: Test(%d) = %v, want %v", op, i, got, want)
		}
	}
}

func TestBitmapAgainstNaive(t *testing.T) {
	for _, n := range []int{1, 7, 64, 65, 130, 1000} {
		testIndexAgainstNaive(t, func(n int) Index { return NewBitmap(n) }, n, int64(n))
	}
}

func TestHierAgainstNaive(t *testing.T) {
	for _, n := range []int{1, 7, 64, 65, 130, 4096, 4097, 300000} {
		testIndexAgainstNaive(t, func(n int) Index { return NewHier(n) }, n, int64(n))
	}
}

func TestHierLevels(t *testing.T) {
	cases := []struct {
		n      int
		levels int
	}{
		{1, 1}, {64, 1}, {65, 2}, {4096, 2}, {4097, 3}, {262144, 3}, {262145, 4},
	}
	for _, c := range cases {
		h := NewHier(c.n)
		if got := len(h.levels); got != c.levels {
			t.Errorf("NewHier(%d): %d levels, want %d", c.n, got, c.levels)
		}
	}
}

func TestHierSingleBitSweep(t *testing.T) {
	const n = 70000
	h := NewHier(n)
	for _, i := range []int{0, 1, 63, 64, 65, 4095, 4096, 4097, 69999} {
		h.Set(i)
		if got := h.Min(); got != i {
			t.Fatalf("Min after Set(%d) = %d", i, got)
		}
		if got := h.Max(); got != i {
			t.Fatalf("Max after Set(%d) = %d", i, got)
		}
		h.Clear(i)
		if !h.Empty() {
			t.Fatalf("not empty after Clear(%d)", i)
		}
	}
}

func TestQuickHierMinMatchesNaive(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 5000
		h := NewHier(n)
		ref := newNaive(n)
		for _, v := range raw {
			i := int(v) % n
			h.Set(i)
			ref.Set(i)
		}
		return h.Min() == ref.Min() && h.Max() == ref.Max() && h.count == countSet(ref.set)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func countSet(s []bool) int {
	c := 0
	for _, b := range s {
		if b {
			c++
		}
	}
	return c
}

func BenchmarkHierMin(b *testing.B) {
	h := NewHier(262144)
	h.Set(261000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.Min() != 261000 {
			b.Fatal("wrong min")
		}
	}
}

func BenchmarkHierSetClear(b *testing.B) {
	h := NewHier(262144)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Set(i & 262143)
		h.Clear(i & 262143)
	}
}
