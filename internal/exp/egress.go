package exp

import (
	"fmt"
	"runtime"
	"strings"

	"eiffel/internal/qdisc"
	"eiffel/internal/stats"
)

// Egress is the parallel-egress scaling experiment (not a paper figure):
// it sweeps the consumer-group count G ∈ {1, 2, 4} over the same
// 8-producer contention workload the contention experiment replays, but
// drained by one worker PER GROUP into per-group egress sinks — the
// multi-queue-NIC topology (each TX queue owns a drain core) that PRs 1–4
// left on the table while they scaled the producer side. G=1 is the
// single-consumer baseline; the headline column is each row's aggregate
// throughput against it. Every row also replays the group-fidelity pass:
// per-flow dequeue order must survive parallel egress EXACTLY (flow-hash
// confinement pins a flow to one shard, hence one group, hence one
// worker), so the flow-order and flow-group violation columns must be
// zero everywhere.
func Egress(o Options) *Result {
	res := &Result{ID: "egress"}
	const producers = 8
	perProducer := 20000
	if o.Quick {
		perProducer = 4000
		res.Notes = append(res.Notes, "quick mode: 4000 packets per producer instead of 20000")
	}
	flowsPer := perProducer / 10 // 10-packet flows: multi-packet, so per-flow order is a real claim

	// producerBatch is the run length every row admits per EnqueueBatch
	// call: the egress sweep isolates the CONSUMER side, so all rows get
	// the batched admission path PR 3 made the fast default.
	const producerBatch = 256

	mk := func(groups int) *qdisc.Front {
		return qdisc.NewMultiSharded(qdisc.MultiShardedOptions{
			ShardedOptions: qdisc.ShardedOptions{
				Shards: 8, Buckets: 2500, HorizonNs: 2e9, RingBits: 15,
			},
			Groups: groups,
		})
	}
	opt := qdisc.ContentionOptions{ProducerBatch: producerBatch}
	packets := qdisc.EgressPackets(producers, perProducer, flowsPer)
	total := producers * perProducer

	t := &stats.Table{
		Title:   "Egress — 8 producers vs G parallel consumer-group workers",
		Headers: []string{"groups", "packets", "Mpps", "vs G=1", "per-group Mpps", "flow-order viol", "flow-group viol", "counters"},
	}
	var baseMpps float64
	for _, G := range []int{1, 2, 4} {
		// Best of three replays on ONE instance, the repo's steady-state
		// methodology (see BestOfReplays): the front is empty after a full
		// replay, so reuse measures warm rings and buckets, and the max
		// filters scheduler/GC hiccups on small machines.
		m := mk(G)
		var best qdisc.EgressResult
		for rep := 0; rep < 3; rep++ {
			if r := qdisc.ReplayEgress(m, packets, opt); r.Mpps() > best.Mpps() {
				best = r
			}
		}
		mpps := best.Mpps()
		if baseMpps == 0 {
			baseMpps = mpps
		}
		perGroup := make([]string, len(best.PerGroup))
		for g, n := range best.PerGroup {
			perGroup[g] = fmt.Sprintf("%.2f", float64(n)/best.Elapsed.Seconds()/1e6)
		}

		// Fidelity pass on a fresh instance: publish everything first, then
		// drain with G concurrent workers, so per-flow order and the
		// flow→group partition are asserted through the same admission path
		// as the throughput pass.
		fm := mk(G)
		released, orderViol, groupViol := qdisc.ReplayEgressFidelity(fm, packets, opt)
		if released != total {
			res.Notes = append(res.Notes,
				fmt.Sprintf("G=%d: fidelity drain released %d of %d", G, released, total))
		}

		t.AddRow(fmt.Sprintf("%d", G),
			fmt.Sprintf("%d", best.Packets),
			fmt.Sprintf("%.2f", mpps),
			fmt.Sprintf("%.2fx", mpps/baseMpps),
			strings.Join(perGroup, "/"),
			fmt.Sprintf("%d", orderViol),
			fmt.Sprintf("%d", groupViol),
			m.Stats().String())
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		fmt.Sprintf("release times spread over the 2 s horizon, %d-packet flows; workers drain at now = horizon", perProducer/flowsPer),
		fmt.Sprintf("batched admission in runs of %d via EnqueueBatch on every row", producerBatch),
		fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d — group speedups need cores for the workers; single-core runs report the honest serialization overhead",
			runtime.GOMAXPROCS(0), runtime.NumCPU()))
	return res
}
