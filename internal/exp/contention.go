package exp

import (
	"fmt"
	"runtime"

	"eiffel/internal/qdisc"
	"eiffel/internal/stats"
)

// Contention is the repo's locked-vs-sharded scaling experiment (not a
// paper figure): it replays the §4 many-senders scenario — 8 producer
// goroutines behind one qdisc — against the kernel-style global-lock
// deployment and against the sharded multi-producer timer front, per-packet
// and batched admission. The headline column is the sharded/locked
// throughput ratio; the counters column shows how the
// traffic actually moved (ring fast path vs fallback, average drain batch).
func Contention(o Options) *Result {
	res := &Result{ID: "contention"}
	const producers = 8
	perProducer := 20000
	if o.Quick {
		perProducer = 4000
		res.Notes = append(res.Notes, "quick mode: 4000 packets per producer instead of 20000")
	}

	// producerBatch is the run length batched rows admit per EnqueueBatch
	// call — the harness's producer-batch-size knob.
	const producerBatch = 256

	sharded := func() qdisc.Qdisc {
		return qdisc.NewMultiSharded(qdisc.MultiShardedOptions{ShardedOptions: qdisc.ShardedOptions{
			Shards: 8, Buckets: 2500, HorizonNs: 2e9, RingBits: 15,
		}})
	}
	entries := []struct {
		name string
		mk   func() qdisc.Qdisc
		opt  qdisc.ContentionOptions
	}{
		{"Eiffel+lock", func() qdisc.Qdisc { return qdisc.NewLocked(qdisc.NewEiffel(20000, 2e9, 0)) }, qdisc.ContentionOptions{}},
		{"Eiffel+shards", sharded, qdisc.ContentionOptions{}},
		{"Eiffel+shards (batched)", sharded, qdisc.ContentionOptions{ProducerBatch: producerBatch}},
	}

	t := &stats.Table{
		Title:   "Contention — 8 producers vs one consumer through a shaping qdisc",
		Headers: []string{"qdisc", "producers", "packets", "Mpps", "vs lock", "allocs/op", "counters"},
	}
	payload := &ContentionJSON{
		Experiment: "contention", Quick: o.Quick, GoMaxProcs: runtime.GOMAXPROCS(0),
		Producers: producers, PerProducer: perProducer, ProducerBatch: producerBatch,
	}
	packets := qdisc.ContentionPackets(producers, perProducer)
	var lockedMpps float64
	for _, e := range entries {
		q := e.mk()
		mpps, allocs := measuredReplay(q, packets, 3, e.opt)
		if lockedMpps == 0 {
			lockedMpps = mpps
		}
		counters := "-"
		var amort float64
		if s, ok := q.(*qdisc.Front); ok {
			snap := s.Stats()
			counters = snap.String()
			amort = amortization(snap.BulkClaimed, snap.BulkClaims)
		}
		t.AddRow(e.name,
			fmt.Sprintf("%d", producers),
			fmt.Sprintf("%d", producers*perProducer),
			fmt.Sprintf("%.2f", mpps),
			fmt.Sprintf("%.2fx", mpps/lockedMpps),
			fmt.Sprintf("%.3f", allocs),
			counters)
		payload.Rows = append(payload.Rows, ContentionRowJSON{
			Qdisc:        e.name,
			Batched:      e.opt.ProducerBatch > 1,
			Packets:      producers * perProducer,
			Mpps:         mpps,
			VsLock:       mpps / lockedMpps,
			AllocsPerOp:  allocs,
			Amortization: amort,
		})
	}
	res.Tables = append(res.Tables, t)
	res.JSON = payload
	res.Notes = append(res.Notes,
		"release times spread over the 2 s horizon; consumer drains at now = horizon",
		fmt.Sprintf("batched rows admit packets in runs of %d via EnqueueBatch (staging + multi-slot ring claims)", producerBatch),
		"Mpps: best of 3 replays on one instance; allocs/op: Mallocs delta per packet over the post-warmup replays")
	return res
}

// ContentionJSON is the contention experiment's machine-readable payload
// (cmd/eiffel-bench -json writes it to BENCH_contention.json).
type ContentionJSON struct {
	Experiment    string              `json:"experiment"`
	Quick         bool                `json:"quick"`
	GoMaxProcs    int                 `json:"gomaxprocs"`
	Producers     int                 `json:"producers"`
	PerProducer   int                 `json:"per_producer"`
	ProducerBatch int                 `json:"producer_batch"`
	Rows          []ContentionRowJSON `json:"rows"`
}

// ContentionRowJSON is one contention configuration's observed outcome.
type ContentionRowJSON struct {
	Qdisc        string  `json:"qdisc"`
	Batched      bool    `json:"batched"`
	Packets      int     `json:"packets"`
	Mpps         float64 `json:"mpps"`
	VsLock       float64 `json:"vs_lock"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	Amortization float64 `json:"claim_amortization"`
}
