// PFabric reproduces the network-wide experiment (Figure 19) at laptop
// scale: a leaf-spine fabric running the web-search workload, comparing
// DCTCP against pFabric with exact and approximate switch priority queues.
// The question the paper asks: does approximate prioritization at every
// switch hurt network-wide flow completion times? (Answer: no.) It then
// serves the pFabric host qdisc itself — the Figure 14 extended-PIFO
// program — on the sharded multi-producer runtime and prints how many
// packets came out.
package main

import (
	"flag"
	"fmt"
	"sync"
	"time"

	"eiffel"
	"eiffel/internal/netsim"
)

func main() {
	hosts := flag.Int("hosts", 32, "fabric size (multiple of 16)")
	flows := flag.Int("flows", 400, "flows per load point")
	flag.Parse()

	systems := []struct {
		name string
		tr   netsim.Transport
		q    netsim.QueueKind
	}{
		{"DCTCP", netsim.TransportDCTCP, netsim.QueueFIFOECN},
		{"pFabric", netsim.TransportPFabric, netsim.QueuePFabric},
		{"pFabric-Approx", netsim.TransportPFabric, netsim.QueuePFabricApprox},
	}

	fmt.Printf("normalized FCT, (0,100KB] flows, %d hosts, %d flows/point\n\n", *hosts, *flows)
	fmt.Printf("%-6s %-16s %-16s %-16s\n", "load", "DCTCP", "pFabric", "pFabric-Approx")
	for _, load := range []float64{0.2, 0.5, 0.8} {
		fmt.Printf("%-6.1f", load)
		for _, sys := range systems {
			r := netsim.RunExperiment(netsim.ExperimentConfig{
				Hosts:        *hosts,
				HostsPerLeaf: 16,
				Spines:       2,
				Load:         load,
				Transport:    sys.tr,
				Queue:        sys.q,
				Flows:        *flows,
				Seed:         42,
			})
			fmt.Printf(" %-16.2f", r.AvgSmall)
		}
		fmt.Println()
	}

	serveSharded()
}

// serveSharded runs the canonical pFabric flow policy (Figure 14) as a
// host qdisc, shard-confined on the multi-producer runtime: 8 producers
// feed it while a Serve worker drains it into a counting sink, and Stop
// drains what is left and reports conservation.
func serveSharded() {
	q, err := eiffel.NewPolicySharded(eiffel.PolicyShardedOptions{Policy: eiffel.PolicySpecPFabric, Shards: 8})
	if err != nil {
		panic(err)
	}
	sink := &eiffel.CountingSink{}
	start := time.Now()
	srv := q.ServeWith(func() int64 { return int64(time.Since(start)) }, []eiffel.EgressSink{sink}, eiffel.ServeOptions{})

	// One packet set per producer over disjoint flow ranges, each flow's
	// packets ranked by its remaining bytes.
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
				p.Rank = uint64(perProducer/flowsPer-i/flowsPer) * 1500
				q.Enqueue(p, 0)
			}
		}(w)
	}
	wg.Wait()
	rep := srv.Stop()

	fmt.Println()
	fmt.Printf("pFabric host qdisc, %d producers through Serve: %d of %d packets delivered, conserved=%v\n",
		producers, sink.Count(), producers*perProducer, rep.Conserved())
}
