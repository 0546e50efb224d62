// LQF demonstrates the paper's Figure 6: Longest Queue First needs both of
// Eiffel's new PIFO primitives — per-flow ranking (an arrival re-ranks the
// whole flow) and on-dequeue ranking (a departure re-ranks it again). The
// example shows service always going to the currently longest flow, then
// serves the same program on the sharded multi-producer runtime and prints
// how many packets came out.
package main

import (
	"fmt"
	"sync"
	"time"

	"eiffel"
)

func main() {
	tree := eiffel.NewTree(eiffel.TreeOptions{
		RootRanker: eiffel.WFQ{},
		RootQueue:  eiffel.QueueConfig{NumBuckets: 1 << 10, Granularity: 1},
	})
	leaf := tree.NewFlowLeaf(nil, eiffel.LQF{}, eiffel.ClassOptions{
		Name:  "lqf",
		Queue: eiffel.QueueConfig{NumBuckets: 1 << 21, Granularity: 1},
	})

	pool := eiffel.NewPool(64)
	enqueue := func(flow uint64, n int) {
		for i := 0; i < n; i++ {
			p := pool.Get()
			p.Flow = flow
			p.Size = 100
			tree.Enqueue(leaf, p, 0)
		}
	}

	enqueue(1, 2) // flow 1: 2 packets
	enqueue(2, 5) // flow 2: 5 packets  <- longest, served first
	enqueue(3, 3) // flow 3: 3 packets

	fmt.Println("LQF service order (flow: remaining-after-serve):")
	remaining := map[uint64]int{1: 2, 2: 5, 3: 3}
	for {
		p := tree.Dequeue(0)
		if p == nil {
			break
		}
		remaining[p.Flow]--
		fmt.Printf("  served flow %d (now %d/%d/%d)\n",
			p.Flow, remaining[1], remaining[2], remaining[3])
		pool.Put(p)
	}

	serveSharded()
}

// serveSharded runs the canonical LQF program as a policy qdisc,
// shard-confined on the multi-producer runtime (eiffel.PolicySharded): 8
// producers feed it while a Serve worker drains it into a counting sink,
// and Stop drains what is left and reports conservation.
func serveSharded() {
	q, err := eiffel.NewPolicySharded(eiffel.PolicyShardedOptions{Policy: eiffel.PolicySpecLQF, Shards: 8})
	if err != nil {
		panic(err)
	}
	sink := &eiffel.CountingSink{}
	start := time.Now()
	srv := q.ServeWith(func() int64 { return int64(time.Since(start)) }, []eiffel.EgressSink{sink}, eiffel.ServeOptions{})

	// One packet set per producer over disjoint flow ranges.
	const producers, perProducer, flowsPer = 8, 20000, 256
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := eiffel.NewPool(perProducer)
			for i := 0; i < perProducer; i++ {
				p := pool.Get()
				p.Flow = uint64(w*flowsPer + i%flowsPer)
				p.Size = 1500
				q.Enqueue(p, 0)
			}
		}(w)
	}
	wg.Wait()
	rep := srv.Stop()

	fmt.Println()
	fmt.Printf("LQF policy qdisc, %d producers through Serve: %d of %d packets delivered, conserved=%v\n",
		producers, sink.Count(), producers*perProducer, rep.Conserved())
}
