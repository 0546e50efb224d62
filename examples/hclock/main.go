// HClock reproduces Use Case 2 (§5.1.2) at laptop scale: hierarchical QoS
// scheduling (reservations, limits, proportional shares) in a one-core
// busy-polling BESS-style pipeline, with the scheduler's priority queues
// swapped between binary heaps (the original hClock) and Eiffel's cFFS —
// then serves a tenant tree on the sharded multi-producer runtime and
// prints how many packets came out.
package main

import (
	"flag"
	"fmt"
	"sync"
	"time"

	"eiffel"
	"eiffel/internal/bess"
	"eiffel/internal/hclock"
	"eiffel/internal/pkt"
)

func run(flows int, backend hclock.Backend, dur time.Duration) float64 {
	s := hclock.New(hclock.Config{Backend: backend})
	perFlow := uint64(20_000_000_000) / uint64(flows) // 2x oversubscribed
	for i := 1; i <= flows; i++ {
		s.AddFlow(uint64(i), 0, perFlow, 1)
	}
	mod := &bess.HClockModule{S: s}
	pool := pkt.NewPool(flows*4 + 4096)
	src := bess.NewSource(pool, mod, flows, 1500)
	pl := bess.Pipeline{Source: src, Sched: mod, Sink: bess.NewSink(pool)}
	return pl.RunFor(dur).Mbps()
}

func main() {
	dur := flag.Duration("dur", 200*time.Millisecond, "measurement window per point")
	flag.Parse()

	fmt.Println("max aggregate rate on one core (Mbps), Figure 12 shape:")
	fmt.Printf("%-8s %-14s %-14s %-8s\n", "flows", "Eiffel", "hClock(heap)", "ratio")
	for _, flows := range []int{10, 100, 1000, 5000} {
		e := run(flows, hclock.BackendEiffel, *dur)
		h := run(flows, hclock.BackendHeap, *dur)
		fmt.Printf("%-8d %-14.0f %-14.0f %-8.1fx\n", flows, e, h, e/h)
	}

	serveSharded()
}

// serveSharded runs a four-tenant hClock tree — a 2 Gbps reservation
// holder and three weighted classes — shard-confined on the multi-producer
// runtime (eiffel.HierSharded, one engine per shard with rates
// renormalized by the shard count): 8 producers feed it through the
// refusable admission path while a supervised Serve worker drains it into
// a counting sink on the wall clock, and Stop drains what is left and
// reports conservation, the front's lifecycle state, its admitted count
// and the worker's sink-panic restarts. (No rate cap here: the
// busy-polling pipeline above is the limit showcase.)
func serveSharded() {
	spec := eiffel.HierSpec{
		Tenants: []eiffel.HierTenant{
			{Weight: 3},
			{Weight: 1},
			{ResBps: 2e9, Weight: 1},
			{Weight: 2},
		},
	}
	q, err := eiffel.NewHierSharded(eiffel.HierShardedOptions{Spec: spec, Shards: 8})
	if err != nil {
		panic(err)
	}
	sink := &eiffel.CountingSink{}
	start := time.Now()
	srv := q.ServeWith(func() int64 { return int64(time.Since(start)) }, []eiffel.EgressSink{sink}, eiffel.ServeOptions{})

	// One packet set per producer over disjoint flow ranges, flows spread
	// across all four tenants via the Class annotation.
	const producers, perProducer, flowsPer = 8, 20000, 256
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := pkt.NewPool(perProducer)
			for i := 0; i < perProducer; i++ {
				p := pool.Get()
				f := i % flowsPer
				p.Flow = uint64(w*flowsPer + f)
				p.Size = 1500
				p.Class = int32(f % len(spec.Tenants))
				if !q.TryEnqueue(p, 0) {
					return // refused: the front was closed under us
				}
			}
		}(w)
	}
	wg.Wait()
	rep := srv.Stop()
	var restarts uint64
	for _, h := range srv.Health() {
		restarts += h.Restarts
	}

	fmt.Println()
	fmt.Printf("hClock tree, %d producers through Serve: %d of %d packets delivered, conserved=%v\n",
		producers, sink.Count(), producers*perProducer, rep.Conserved())
	fmt.Printf("after Stop: state=%s admitted=%d worker restarts=%d\n", q.State(), q.Admitted(), restarts)
}
