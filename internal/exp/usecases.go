package exp

import (
	"fmt"
	"time"

	"eiffel/internal/bess"
	"eiffel/internal/hclock"
	"eiffel/internal/pifo"
	"eiffel/internal/pkt"
	"eiffel/internal/policy"
	"eiffel/internal/qdisc"
	"eiffel/internal/queue"
	"eiffel/internal/stats"
)

// Figure9 regenerates the kernel shaping CDF: cores used for networking
// under FQ/pacing, Carousel, and Eiffel. The paper ran 20k flows at
// 24 Gbps for 100 s on EC2; by default this runner scales to 2k flows at
// 2.4 Gbps (same per-flow pacing rate, so identical per-packet work) and
// reports median cores alongside CDF quartiles.
func Figure9(o Options) *Result {
	res := &Result{ID: "fig9"}
	cfg := qdisc.HostConfig{Flows: 2000, AggregateBps: 2_400_000_000, SimSeconds: 5}
	if o.Quick {
		cfg = qdisc.HostConfig{Flows: 400, AggregateBps: 480_000_000, SimSeconds: 2}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("scaled from the paper's 20k flows / 24 Gbps to %d flows / %.1f Gbps (identical per-flow pacing rate)",
			cfg.Flows, float64(cfg.AggregateBps)/1e9))

	t := &stats.Table{
		Title:   "Figure 9 — cores used for networking (CDF quartiles over per-second samples)",
		Headers: []string{"qdisc", "p25", "median", "p75", "p95", "on-time", "pkts"},
	}
	type row struct {
		q qdisc.Qdisc
	}
	qs := []qdisc.Qdisc{
		qdisc.NewFQ(),
		qdisc.NewCarousel(20000, 2e9, 0),
		qdisc.NewEiffel(20000, 2e9, 0),
	}
	var medians []float64
	for _, q := range qs {
		r := qdisc.RunHost(q, cfg)
		med := stats.Percentile(r.CoresSamples, 50)
		medians = append(medians, med)
		t.AddRow(r.Qdisc,
			fmt.Sprintf("%.4f", stats.Percentile(r.CoresSamples, 25)),
			fmt.Sprintf("%.4f", med),
			fmt.Sprintf("%.4f", stats.Percentile(r.CoresSamples, 75)),
			fmt.Sprintf("%.4f", stats.Percentile(r.CoresSamples, 95)),
			fmt.Sprintf("%.3f", r.OnTimeFrac),
			fmt.Sprintf("%d", r.Packets))
	}
	if medians[2] > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"median cores ratio vs Eiffel: FQ %.1fx, Carousel %.1fx (paper: ~14x and ~3x)",
			medians[0]/medians[2], medians[1]/medians[2]))
	}
	res.Tables = append(res.Tables, t)
	return res
}

// Figure10 regenerates the CPU breakdown: system (enqueue-path) vs softirq
// (timer/dequeue-path) cores for Carousel vs Eiffel.
func Figure10(o Options) *Result {
	res := &Result{ID: "fig10"}
	cfg := qdisc.HostConfig{Flows: 2000, AggregateBps: 2_400_000_000, SimSeconds: 5}
	if o.Quick {
		cfg = qdisc.HostConfig{Flows: 400, AggregateBps: 480_000_000, SimSeconds: 2}
	}
	t := &stats.Table{
		Title:   "Figure 10 — CPU split (median cores): system vs softirq/timers",
		Headers: []string{"qdisc", "system", "softirq", "timer fires"},
	}
	for _, q := range []qdisc.Qdisc{
		qdisc.NewCarousel(20000, 2e9, 0),
		qdisc.NewEiffel(20000, 2e9, 0),
	} {
		r := qdisc.RunHost(q, cfg)
		t.AddRow(r.Qdisc,
			fmt.Sprintf("%.4f", stats.Percentile(r.SysSamples, 50)),
			fmt.Sprintf("%.4f", stats.Percentile(r.IRQSamples, 50)),
			fmt.Sprintf("%d", r.TimerFires))
	}
	res.Tables = append(res.Tables, t)
	return res
}

// buildHClockPipeline wires a one-core pipeline for Figure 12/13 points.
func buildHClockPipeline(flows int, pktSize uint32, perFlowBps, aggBps uint64, backend hclock.Backend, batch bool) *bess.Pipeline {
	s := hclock.New(hclock.Config{Backend: backend, AggregateLimitBps: aggBps})
	for i := 1; i <= flows; i++ {
		s.AddFlow(uint64(i), 0, perFlowBps, 1)
	}
	mod := &bess.HClockModule{S: s}
	poolSize := flows*4 + 4096
	if batch {
		// Batch mode keeps up to two 10 KB batches per flow in flight.
		per := 10_000 / int(pktSize)
		if per < 1 {
			per = 1
		}
		poolSize = flows*2*per + 4096
	}
	pool := pkt.NewPool(poolSize)
	src := bess.NewSource(pool, mod, flows, pktSize)
	src.BatchPerFlow = batch
	return &bess.Pipeline{Source: src, Sched: mod, Sink: bess.NewSink(pool)}
}

func buildTCPipeline(flows int, pktSize uint32, perFlowBps, aggBps uint64) *bess.Pipeline {
	// BESS tc has no aggregate-limit primitive: NetIOC-style caps are
	// emulated by dividing the aggregate across the per-flow modules.
	if aggBps > 0 {
		if capped := aggBps / uint64(flows); capped < perFlowBps {
			perFlowBps = capped
		}
	}
	tc := bess.NewTCModule(flows, perFlowBps)
	for i := 1; i <= flows; i++ {
		tc.SetLimit(uint64(i), perFlowBps)
	}
	pool := pkt.NewPool(flows*4 + 4096)
	src := bess.NewSource(pool, tc, flows, pktSize)
	return &bess.Pipeline{Source: src, Sched: tc, Sink: bess.NewSink(pool)}
}

// Figure12 regenerates "maximum supported aggregate rate vs number of
// flows" for Eiffel-hClock, heap-hClock, and BESS tc, at line rate (10G,
// no aggregate limit) and with a 5 Gbps aggregate limit, on one core.
func Figure12(o Options) *Result {
	res := &Result{ID: "fig12"}
	dur := 400 * time.Millisecond
	flowCounts := []int{10, 100, 1000, 10000}
	if o.Quick {
		dur = 60 * time.Millisecond
		flowCounts = []int{10, 100, 1000}
	}
	for _, agg := range []uint64{0, 5_000_000_000} {
		title := "Figure 12 (top) — max aggregate rate (Mbps), no aggregate limit"
		if agg > 0 {
			title = "Figure 12 (bottom) — rate (Mbps) under a 5 Gbps aggregate limit"
		}
		t := &stats.Table{
			Title:   title,
			Headers: []string{"flows", "Eiffel", "hClock", "BESS tc"},
		}
		for _, n := range flowCounts {
			// Per-flow limits oversubscribe the aggregate 2x so the
			// scheduler, not the workload, is the bottleneck.
			perFlow := uint64(20_000_000_000) / uint64(n)
			row := []string{fmt.Sprintf("%d", n)}
			for _, backend := range []hclock.Backend{hclock.BackendEiffel, hclock.BackendHeap} {
				pl := buildHClockPipeline(n, 1500, perFlow, agg, backend, false)
				row = append(row, fmt.Sprintf("%.0f", pl.RunFor(dur).Mbps()))
			}
			pl := buildTCPipeline(n, 1500, perFlow, agg)
			row = append(row, fmt.Sprintf("%.0f", pl.RunFor(dur).Mbps()))
			t.AddRow(row...)
		}
		res.Tables = append(res.Tables, t)
	}
	return res
}

// Figure13 regenerates the batching x packet-size grid at 5k flows.
func Figure13(o Options) *Result {
	res := &Result{ID: "fig13"}
	flows := 5000
	dur := 400 * time.Millisecond
	if o.Quick {
		flows = 1000
		dur = 60 * time.Millisecond
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("Figure 13 — batching x packet size, %d flows (Mbps)", flows),
		Headers: []string{"mode", "size", "hClock", "Eiffel"},
	}
	for _, batch := range []bool{false, true} {
		for _, size := range []uint32{60, 1500} {
			mode := "no batching"
			if batch {
				mode = "batching"
			}
			row := []string{mode, fmt.Sprintf("%dB", size)}
			for _, backend := range []hclock.Backend{hclock.BackendHeap, hclock.BackendEiffel} {
				pl := buildHClockPipeline(flows, size, 0, 0, backend, batch)
				row = append(row, fmt.Sprintf("%.0f", pl.RunFor(dur).Mbps()))
			}
			t.AddRow(row...)
		}
	}
	res.Tables = append(res.Tables, t)
	return res
}

// buildPFabricPipeline wires the Figure 15 pipeline: a per-flow-ranking
// leaf under the extended PIFO model, with the queue backend swapped
// between cFFS and a binary heap.
func buildPFabricPipeline(flows int, kind queue.Kind) *bess.Pipeline {
	tr := pifo.NewTree(pifo.TreeOptions{
		RootRanker: policy.WFQ{},
		RootQueue:  queue.Config{NumBuckets: 1 << 10, Granularity: 1},
	})
	leaf := tr.NewFlowLeaf(nil, policy.PFabric{}, pifo.ClassOptions{
		Name:      "pfabric",
		QueueKind: kind,
		Queue:     queue.Config{NumBuckets: 1 << 15, Granularity: 1 << 6},
	})
	mod := bess.NewTreeModule(tr, leaf)
	pool := pkt.NewPool(flows*2 + 8192)
	src := bess.NewSource(pool, mod, flows, 1500)
	src.PerFlowCap = 4 // many flows: keep total backlog bounded
	// pFabric ranks: each flow cycles through a remaining-size countdown,
	// giving realistic shortest-remaining-first dynamics (and giving the
	// binary heap real rank diversity to sort).
	remaining := make([]uint64, flows+1)
	src.Rank = func(flow uint64) uint64 {
		r := remaining[flow]
		if r < 1500 {
			r = uint64(4+(flow*2654435761)%64) * 1500 // 4..67 packets
		}
		remaining[flow] = r - 1500
		return r
	}
	return &bess.Pipeline{Source: src, Sched: mod, Sink: bess.NewSink(pool)}
}

// Figure15 regenerates pFabric throughput vs number of flows for cFFS vs
// binary heap.
func Figure15(o Options) *Result {
	res := &Result{ID: "fig15"}
	flowCounts := []int{100, 1000, 10000, 100000, 1000000}
	dur := 400 * time.Millisecond
	if o.Quick {
		flowCounts = []int{100, 1000, 10000}
		dur = 60 * time.Millisecond
	}
	t := &stats.Table{
		Title:   "Figure 15 — pFabric rate (Mbps) vs flows: Eiffel cFFS vs binary heap",
		Headers: []string{"flows", "pFabric-Eiffel", "pFabric-BinHeap"},
	}
	for _, n := range flowCounts {
		row := []string{fmt.Sprintf("%d", n)}
		for _, k := range []queue.Kind{queue.KindCFFS, queue.KindBinaryHeap} {
			pl := buildPFabricPipeline(n, k)
			row = append(row, fmt.Sprintf("%.0f", pl.RunFor(dur).Mbps()))
		}
		t.AddRow(row...)
	}
	res.Tables = append(res.Tables, t)
	return res
}
