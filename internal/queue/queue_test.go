package queue

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"eiffel/internal/bucket"
)

// allKinds is every kind New builds, in enum order;
// TestAllKindsDrainEverything fails when the enum grows without it.
var allKinds = []Kind{
	KindCFFS, KindFFS, KindFFSFlat, KindApprox, KindCApprox,
	KindBH, KindBinaryHeap,
}

// exactKinds dequeue the true minimum; approximate kinds may not.
var exactKinds = []Kind{
	KindCFFS, KindFFS, KindFFSFlat, KindBH, KindBinaryHeap,
}

func TestAllKindsDrainEverything(t *testing.T) {
	// allKinds is Kind(0)..Kind(len-1), and the next value is unknown to
	// both String and New.
	for i, k := range allKinds {
		if k != Kind(i) {
			t.Fatalf("allKinds[%d] = %v, want Kind(%d)", i, k, i)
		}
	}
	next := Kind(len(allKinds))
	if got, want := next.String(), fmt.Sprintf("Kind(%d)", len(allKinds)); got != want {
		t.Fatalf("%s is a kind allKinds omits (want %s)", got, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("New(%v) built a queue; add the kind to allKinds", next)
			}
		}()
		New(next, Config{})
	}()
	for _, k := range allKinds {
		t.Run(k.String(), func(t *testing.T) {
			q := New(k, Config{NumBuckets: 1024, Granularity: 1})
			rng := rand.New(rand.NewSource(5))
			const total = 2000
			for i := 0; i < total; i++ {
				q.Enqueue(&bucket.Node{}, uint64(rng.Intn(1024)))
			}
			if q.Len() != total {
				t.Fatalf("Len = %d, want %d", q.Len(), total)
			}
			got := 0
			for q.DequeueMin() != nil {
				got++
			}
			if got != total {
				t.Fatalf("drained %d, want %d", got, total)
			}
		})
	}
}

func TestExactKindsSortedOrder(t *testing.T) {
	for _, k := range exactKinds {
		t.Run(k.String(), func(t *testing.T) {
			q := New(k, Config{NumBuckets: 512, Granularity: 1})
			rng := rand.New(rand.NewSource(int64(k)))
			var ranks []uint64
			for i := 0; i < 500; i++ {
				r := uint64(rng.Intn(512))
				ranks = append(ranks, r)
				q.Enqueue(&bucket.Node{}, r)
			}
			sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
			for i, want := range ranks {
				n := q.DequeueMin()
				if n == nil || n.Rank() != want {
					t.Fatalf("dequeue %d: got %v, want %d", i, n, want)
				}
			}
		})
	}
}

func TestAllKindsRemove(t *testing.T) {
	for _, k := range allKinds {
		t.Run(k.String(), func(t *testing.T) {
			q := New(k, Config{NumBuckets: 64, Granularity: 1})
			n1, n2, n3 := &bucket.Node{}, &bucket.Node{}, &bucket.Node{}
			q.Enqueue(n1, 10)
			q.Enqueue(n2, 20)
			q.Enqueue(n3, 30)
			q.Remove(n2)
			if q.Len() != 2 {
				t.Fatalf("Len = %d, want 2", q.Len())
			}
			a, b := q.DequeueMin(), q.DequeueMin()
			if a != n1 || b != n3 {
				t.Fatal("wrong elements after Remove")
			}
		})
	}
}

func TestAllKindsPeekMin(t *testing.T) {
	for _, k := range allKinds {
		t.Run(k.String(), func(t *testing.T) {
			q := New(k, Config{NumBuckets: 64, Granularity: 1})
			if _, ok := q.PeekMin(); ok {
				t.Fatal("PeekMin on empty should report !ok")
			}
			q.Enqueue(&bucket.Node{}, 42)
			r, ok := q.PeekMin()
			if !ok || r != 42 {
				t.Fatalf("PeekMin = (%d,%v), want (42,true)", r, ok)
			}
			if q.Len() != 1 {
				t.Fatal("PeekMin must not remove")
			}
		})
	}
}

func TestChooseDecisionTree(t *testing.T) {
	cases := []struct {
		c    Characteristics
		want Kind
	}{
		// Fixed small range (e.g. 8 strict priorities): any queue.
		{Characteristics{MovingRange: false, PriorityLevels: 8}, KindBinaryHeap},
		// Fixed large range (e.g. pFabric remaining size): FFS.
		{Characteristics{MovingRange: false, PriorityLevels: 100000}, KindFFS},
		// Moving range, skewed occupancy (wide-range rate limiting): cFFS.
		{Characteristics{MovingRange: true, PriorityLevels: 20000}, KindCFFS},
		// Moving range, uniform occupancy (LSTF, hClock tags): approx.
		{Characteristics{MovingRange: true, PriorityLevels: 20000, UniformOccupancy: true}, KindCApprox},
	}
	for _, c := range cases {
		if got := Choose(c.c); got != c.want {
			t.Errorf("Choose(%+v) = %v, want %v", c.c, got, c.want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range allKinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has empty or duplicate name %q", int(k), s)
		}
		seen[s] = true
	}
}
