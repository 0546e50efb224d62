package exp

import (
	"fmt"
	"runtime"

	"eiffel/internal/qdisc"
	"eiffel/internal/stats"
)

// ShapedSched is the decoupled shaping + priority scheduling scaling
// experiment (the multi-producer form of Figure 8, not a paper figure):
// every packet carries both a release time spread over the 2 s horizon and
// an uncorrelated priority, and the qdisc must honor both — never release
// early, and release eligible packets in priority order. The baseline is
// the kernel-style deployment (a pifo.Tree behind the decoupled shaper,
// all behind one global lock); the contender is the shaped front (qdisc.NewMultiShaped). Each
// row reports contention throughput (8 producers vs one consumer) and the
// priority-order fidelity of a post-publication drain — inversions beyond
// scheduler-bucket granularity must be zero for both.
func ShapedSched(o Options) *Result {
	res := &Result{ID: "shapedsched"}
	const producers = 8
	const rankSpan = uint64(1) << 20
	perProducer := 20000
	if o.Quick {
		perProducer = 4000
		res.Notes = append(res.Notes, "quick mode: 4000 packets per producer instead of 20000")
	}

	geometry := qdisc.ShapedShardedOptions{
		Shards:        8,
		ShaperBuckets: 2500,
		HorizonNs:     2e9,
		SchedBuckets:  256,
		RankSpan:      rankSpan,
		RingBits:      15,
	}
	// The tree baseline gets the aggregate queue capacity of the 8 shards
	// (8×2500 shaper buckets, 8×256 scheduler buckets), so the comparison
	// measures the runtime, not the queue geometry.
	treeGeometry := geometry
	treeGeometry.ShaperBuckets = geometry.Shards * geometry.ShaperBuckets
	treeGeometry.SchedBuckets = geometry.Shards * geometry.SchedBuckets

	// producerBatch is the run length the batched row admits per
	// EnqueueBatch call — the harness's producer-batch-size knob.
	const producerBatch = 256

	shaped := func() qdisc.Qdisc {
		return qdisc.NewMultiShaped(qdisc.MultiShapedOptions{ShapedShardedOptions: geometry})
	}
	entries := []struct {
		name string
		mk   func() qdisc.Qdisc
		opt  qdisc.ContentionOptions
	}{
		{"Eiffel tree+lock", func() qdisc.Qdisc { return qdisc.NewLocked(qdisc.NewShapedTree(treeGeometry)) }, qdisc.ContentionOptions{}},
		{"Eiffel+shaped-shards", shaped, qdisc.ContentionOptions{}},
		{"Eiffel+shaped-shards (batched)", shaped, qdisc.ContentionOptions{ProducerBatch: producerBatch}},
	}

	gran := rankSpan / (2 * uint64(geometry.SchedBuckets))
	t := &stats.Table{
		Title:   "Shaped+scheduled — 8 producers, per-packet (SendAt, Rank) through a decoupled qdisc",
		Headers: []string{"qdisc", "producers", "packets", "Mpps", "vs lock", "inversions", "allocs/op", "counters"},
	}
	payload := &ShapedSchedJSON{
		Experiment: "shapedsched", Quick: o.Quick, GoMaxProcs: runtime.GOMAXPROCS(0),
		Producers: producers, PerProducer: perProducer, ProducerBatch: producerBatch,
		RankSpan: rankSpan, GranRank: gran,
	}
	// One workload, replayed by every pass: packets come back detached, and
	// sharing the set keeps allocation (and GC scan of dead sets) out of
	// the timed regions — the ContentionPackets contract.
	packets := qdisc.ShapedPackets(producers, perProducer, rankSpan)
	var lockedMpps float64
	for _, e := range entries {
		// Best of three replays on ONE instance: a qdisc is empty after a
		// full replay, so reuse measures the steady state (warm rings and
		// buckets, no per-rep construction garbage feeding the GC), and
		// the max filters scheduler/GC hiccups that would otherwise
		// dominate a single run on small machines. Both rows get the same
		// treatment, so the ratio stays honest.
		q := e.mk()
		mpps, allocs := measuredReplay(q, packets, 3, e.opt)
		if lockedMpps == 0 {
			lockedMpps = mpps
		}

		// Fidelity pass on a fresh instance: publish everything first, then
		// drain, so the output order is fully priority-determined — through
		// the same admission path as the throughput pass, because batching
		// must not cost a single inversion.
		fq := e.mk()
		released, inversions := qdisc.ReplayPriorityFidelityOpts(fq, packets, gran, e.opt)
		if released != producers*perProducer {
			res.Notes = append(res.Notes,
				fmt.Sprintf("%s: fidelity drain released %d of %d", e.name, released, producers*perProducer))
		}

		counters := "-"
		var amort float64
		if s, ok := fq.(*qdisc.Front); ok {
			counters = s.Stats().String()
			tsnap := q.(*qdisc.Front).Stats()
			amort = amortization(tsnap.BulkClaimed, tsnap.BulkClaims)
		}
		t.AddRow(e.name,
			fmt.Sprintf("%d", producers),
			fmt.Sprintf("%d", producers*perProducer),
			fmt.Sprintf("%.2f", mpps),
			fmt.Sprintf("%.2fx", mpps/lockedMpps),
			fmt.Sprintf("%d", inversions),
			fmt.Sprintf("%.3f", allocs),
			counters)
		payload.Rows = append(payload.Rows, ShapedSchedRowJSON{
			Qdisc:        e.name,
			Batched:      e.opt.ProducerBatch > 1,
			Packets:      producers * perProducer,
			Mpps:         mpps,
			VsLock:       mpps / lockedMpps,
			AllocsPerOp:  allocs,
			Amortization: amort,
			Inversions:   inversions,
		})
	}
	res.Tables = append(res.Tables, t)
	res.JSON = payload
	res.Notes = append(res.Notes,
		"release times spread over the 2 s horizon, priorities uniform over 2^20; consumer drains at now = horizon",
		fmt.Sprintf("inversions counted beyond the scheduler bucket granularity (%d rank units)", gran))
	return res
}

// ShapedSchedJSON is the shapedsched experiment's machine-readable payload
// (cmd/eiffel-bench -json writes it to BENCH_shapedsched.json).
type ShapedSchedJSON struct {
	Experiment    string               `json:"experiment"`
	Quick         bool                 `json:"quick"`
	GoMaxProcs    int                  `json:"gomaxprocs"`
	Producers     int                  `json:"producers"`
	PerProducer   int                  `json:"per_producer"`
	ProducerBatch int                  `json:"producer_batch"`
	RankSpan      uint64               `json:"rank_span"`
	GranRank      uint64               `json:"gran_rank"`
	Rows          []ShapedSchedRowJSON `json:"rows"`
}

// ShapedSchedRowJSON is one shapedsched configuration's observed outcome.
type ShapedSchedRowJSON struct {
	Qdisc        string  `json:"qdisc"`
	Batched      bool    `json:"batched"`
	Packets      int     `json:"packets"`
	Mpps         float64 `json:"mpps"`
	VsLock       float64 `json:"vs_lock"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	Amortization float64 `json:"claim_amortization"`
	Inversions   int     `json:"inversions"`
}
