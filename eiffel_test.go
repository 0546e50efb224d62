package eiffel_test

import (
	"testing"

	"eiffel"
)

func TestFacadeQuickstart(t *testing.T) {
	pool := eiffel.NewPool(16)
	tree := eiffel.NewTree(eiffel.TreeOptions{
		RootRanker: eiffel.WFQ{},
		RootQueue:  eiffel.QueueConfig{NumBuckets: 1 << 10, Granularity: 1},
	})
	leaf := tree.NewPacketLeaf(nil, eiffel.EDF{}, eiffel.ClassOptions{
		Name:  "edf",
		Queue: eiffel.QueueConfig{NumBuckets: 1 << 10, Granularity: 1},
	})
	for _, d := range []int64{300, 100, 200} {
		p := pool.Get()
		p.Size = 100
		p.Deadline = d
		tree.Enqueue(leaf, p, 0)
	}
	var got []int64
	for {
		p := tree.Dequeue(0)
		if p == nil {
			break
		}
		got = append(got, p.Deadline)
	}
	want := []int64{100, 200, 300}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EDF order %v", got)
		}
	}
}

func TestFacadeQueueRoundTrip(t *testing.T) {
	for _, k := range []eiffel.QueueKind{eiffel.KindCFFS, eiffel.KindApprox, eiffel.KindBH, eiffel.KindBinaryHeap} {
		q := eiffel.NewQueue(k, eiffel.QueueConfig{NumBuckets: 256, Granularity: 1})
		var n eiffel.Node
		q.Enqueue(&n, 42)
		if q.Len() != 1 {
			t.Fatalf("%v: Len", k)
		}
		if got := q.DequeueMin(); got != &n {
			t.Fatalf("%v: wrong node", k)
		}
	}
}

func TestFacadeChoose(t *testing.T) {
	k := eiffel.Choose(eiffel.Characteristics{MovingRange: true, PriorityLevels: 20000})
	if k != eiffel.KindCFFS {
		t.Fatalf("Choose = %v, want cFFS", k)
	}
}

func TestFacadeCompile(t *testing.T) {
	tree, classes, err := eiffel.Compile(`
		root ranker=wfq rate=1G buckets=1024
		leaf web parent=root kind=flow policy=pfabric buckets=8192 gran=64
		leaf rt  parent=root ranker=edf weight=4 buckets=1024
	`)
	if err != nil {
		t.Fatal(err)
	}
	if tree == nil || classes["web"] == nil || classes["rt"] == nil {
		t.Fatal("compiled classes missing")
	}
	pool := eiffel.NewPool(4)
	p := pool.Get()
	p.Size = 100
	p.Deadline = 5
	tree.Enqueue(classes["rt"], p, 0)
	if got := tree.Dequeue(0); got == nil {
		t.Fatal("compiled tree lost a packet")
	}
}
