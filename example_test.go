package eiffel_test

import (
	"fmt"

	"eiffel"
)

// ExampleCompile builds a two-leaf weighted-fair hierarchy from the
// textual policy grammar (the role DOT translation plays for the PIFO
// reference implementation, §4) and drains a small burst through it.
func ExampleCompile() {
	tree, classes, err := eiffel.Compile(`
		root ranker=wfq buckets=1024
		leaf edf  parent=root ranker=edf  weight=1 buckets=1024
		leaf fifo parent=root ranker=fifo weight=1 buckets=1024
	`)
	if err != nil {
		panic(err)
	}

	pool := eiffel.NewPool(8)
	for _, deadline := range []int64{300, 100, 200} {
		p := pool.Get()
		p.Size = 100
		p.Deadline = deadline
		tree.Enqueue(classes["edf"], p, 0)
	}

	for tree.Len() > 0 {
		p := tree.Dequeue(0)
		fmt.Println(p.Deadline)
	}
	// Output:
	// 100
	// 200
	// 300
}

// ExampleChoose walks the paper's Figure 20 decision tree for two of its
// running examples: Carousel-style rate limiting (moving range, skewed
// occupancy) and 802.1Q strict priorities (fixed range, few levels).
func ExampleChoose() {
	rateLimiting := eiffel.Choose(eiffel.Characteristics{
		MovingRange:    true,
		PriorityLevels: 20000,
	})
	strictPriority := eiffel.Choose(eiffel.Characteristics{
		PriorityLevels: 8,
	})
	fmt.Println(rateLimiting)
	fmt.Println(strictPriority)
	// Output:
	// cFFS
	// BinHeap
}

// ExampleNewMultiShaped shows the decoupled shaping + priority
// scheduling qdisc (Figure 8 on the sharded multi-producer runtime): a
// packet never leaves before its SendAt, and among eligible packets
// release order follows Rank — even when the earliest-due packet has the
// worst priority.
func ExampleNewMultiShaped() {
	q := eiffel.NewMultiShaped(eiffel.MultiShapedOptions{ShapedShardedOptions: eiffel.ShapedShardedOptions{
		Shards:    4,
		HorizonNs: 2000, // tiny horizon: 1 ns shaping buckets
		RankSpan:  1 << 11,
	}})
	pool := eiffel.NewPool(4)
	for _, pkt := range []struct{ sendAt, rank int64 }{
		{100, 30}, // due first, worst priority
		{200, 10},
		{300, 20},
	} {
		p := pool.Get()
		p.Flow = uint64(pkt.rank)
		p.SendAt = pkt.sendAt
		p.Rank = uint64(pkt.rank)
		q.Enqueue(p, 0)
	}
	out := make([]*eiffel.Packet, 4)
	fmt.Println(q.GroupDequeueBatch(0, 50, out) == 0) // nothing due yet
	for _, p := range out[:q.GroupDequeueBatch(0, 150, out)] {
		fmt.Println(p.Rank) // only the rank-30 packet is eligible
	}
	for _, p := range out[:q.GroupDequeueBatch(0, 350, out)] {
		fmt.Println(p.Rank) // both remaining are eligible: priority order
	}
	// Output:
	// true
	// 30
	// 10
	// 20
}

// ExampleShardedQueue_producer shows the batched enqueue pipeline: a
// per-goroutine Producer stages elements per shard and publishes each
// shard's run as one multi-slot ring claim — one CAS for the whole run
// instead of one per element. Staged elements are invisible until Flush;
// after it, the consumer's batched drain merges shards in rank order
// exactly as with per-element Enqueue.
func ExampleShardedQueue_producer() {
	q := eiffel.NewShardedQueue(eiffel.ShardedOptions{NumShards: 4})
	prod := q.NewProducer(64) // one handle per producer goroutine

	nodes := make([]eiffel.Node, 6)
	for i := range nodes {
		flow, rank := uint64(i%3), uint64((i*37)%100)
		prod.Enqueue(flow, &nodes[i], rank, 0)
	}
	fmt.Println(q.Len()) // still staged: nothing published yet

	prod.Flush()
	fmt.Println(q.Len())

	out := make([]*eiffel.Node, 8)
	n := q.GroupDequeueBatch(0, ^uint64(0), out)
	for i, nd := range out[:n] {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Print(nd.Rank())
	}
	fmt.Println()

	st := q.Stats()
	fmt.Println(st.BulkClaimed, "elements over", st.BulkClaims, "claims")
	// Output:
	// 0
	// 6
	// 0 11 37 48 74 85
	// 6 elements over 2 claims
}

// ExampleNewPolicySharded runs the paper's Longest-Queue-First program
// (Figure 6 — per-flow ranking plus on-dequeue re-ranking) on the sharded
// multi-producer runtime: each shard owns a private compiled tree, and the
// longest flow is always served first. One shard keeps the output
// deterministic for the example; real deployments shard by flow hash.
func ExampleNewPolicySharded() {
	q, err := eiffel.NewPolicySharded(eiffel.PolicyShardedOptions{
		Policy: `
			root ranker=strict
			leaf lqf parent=root kind=flow policy=lqf buckets=4096 gran=1
		`,
		Shards: 1,
	})
	if err != nil {
		panic(err)
	}

	pool := eiffel.NewPool(16)
	enqueue := func(flow uint64, n int) {
		for i := 0; i < n; i++ {
			p := pool.Get()
			p.Flow = flow
			p.Size = 100
			q.Enqueue(p, 0)
		}
	}
	enqueue(1, 1)
	enqueue(2, 3) // longest: served until flow 3 ties
	enqueue(3, 2)

	out := make([]*eiffel.Packet, 8)
	for _, p := range out[:q.GroupDequeueBatch(0, 0, out)] {
		fmt.Print(p.Flow, " ")
	}
	fmt.Println()
	// Output:
	// 2 3 2 1 3 2
}
