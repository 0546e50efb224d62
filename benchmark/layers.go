package main

import (
	"time"

	"eiffel/internal/ffsq"
	"eiffel/internal/pkt"
	"eiffel/internal/qdisc"
	"eiffel/internal/queue"
	"eiffel/internal/shardq"
)

// Stage isolation: one window of the workload's seeded stream replayed
// single-threaded against each lower layer's public functions, one stage
// at a time with nothing running beside it. Every figure is ns per packet,
// the median of isoRounds rounds over the same packets. These are costs
// with warm caches and no contention — what a layer costs by itself, not
// what it costs live; the traced live run gives the latter, and the two
// are printed side by side.

const (
	isoRounds  = 5
	isoStepNs  = int64(10e6) // virtual time between rounds
	isoDueNs   = int64(2e6)  // a round drains this long after it admits: everything is due
	isoPaceNs  = 300         // virtual ns per dequeue where an engine needs a moving clock
	isoDrainSz = enqRun      // drain batch, the Serve worker's default
)

// twin is the workload's shardq runtime built directly, without the qdisc
// front around it, so front cost and runtime cost can be told apart.
type twin struct {
	publish      func(p *pkt.Packet)
	publishBatch func(ps []*pkt.Packet) // one staged run, flushed
	flush        func(now int64)        // rings -> backend, nothing due
	migrate      func(now int64)        // shaped: shaper -> scheduler, everything due
	drain        func(now int64, out []*shardq.Node) int
	stats        func() shardq.Snapshot
}

func timerCfg(buckets int, horizon int64) queue.Config {
	return queue.Config{NumBuckets: buckets, Granularity: uint64(horizon) / (2 * uint64(buckets))}
}

var shapeSchedCfg = queue.Config{NumBuckets: shapeBuckets, Granularity: shapeSpan / (2 * shapeBuckets)}

// pfabricLeafCfg is the leaf geometry qdisc.PolicySpecPFabric declares
// (buckets=4096 gran=64), for the pfabric twin's stand-in backend.
var pfabricLeafCfg = queue.Config{NumBuckets: 4096, Granularity: 64}

// newTwin builds the same runtime the workload's front builds. pfabric is
// the exception: its per-shard backend (the policy tree adapter) is
// private to qdisc, so its twin carries the flat vector scheduler keyed by
// the pFabric rank, and qdisc.front_self_ns on pfabric therefore includes
// the tree's cost over a flat queue — pifo.* reports the tree by itself.
func newTwin(w *workloadDef) twin {
	if w.name == "shape_sched" {
		q := shardq.NewShaped(shardq.ShapedOptions{
			NumShards: numShards, NumGroups: 1, RingBits: ringBits,
			Shaper: timerCfg(shapeBuckets, shapeHorizon), Sched: shapeSchedCfg,
			Pair: func(n *shardq.Node) *shardq.Node { return &pkt.FromTimerNode(n).SchedNode },
		})
		prod := q.NewProducer(0)
		return twin{
			publish: func(p *pkt.Packet) { q.Enqueue(p.Flow, &p.TimerNode, uint64(p.SendAt), p.Rank) },
			publishBatch: func(ps []*pkt.Packet) {
				for _, p := range ps {
					prod.Enqueue(p.Flow, &p.TimerNode, uint64(p.SendAt), p.Rank)
				}
				prod.Flush()
			},
			flush:   func(now int64) { q.GroupFlush(0, uint64(now)) },
			migrate: func(now int64) { q.GroupFlush(0, uint64(now)) },
			drain: func(now int64, out []*shardq.Node) int {
				return q.GroupDequeueBatch(0, uint64(now), ^uint64(0), out)
			},
			stats: q.Stats,
		}
	}
	opt := shardq.Options{NumShards: numShards, NumGroups: 1, RingBits: ringBits}
	node := func(p *pkt.Packet) *shardq.Node { return &p.SchedNode }
	key := func(p *pkt.Packet) (rank, aux uint64) { return p.Rank, p.Flow }
	bound := func(int64) uint64 { return ^uint64(0) }
	var engines []*shardq.HierSched
	switch w.name {
	case "pace_timer":
		opt.Kind, opt.Queue = queue.KindCFFS, timerCfg(paceBuckets, paceHorizon)
		node = func(p *pkt.Packet) *shardq.Node { return &p.TimerNode }
		key = func(p *pkt.Packet) (uint64, uint64) { return uint64(p.SendAt), 0 }
		bound = func(now int64) uint64 { return uint64(now) }
	case "pfabric":
		opt.Backend = func(int) shardq.Scheduler {
			return shardq.NewVecSched(pfabricLeafCfg)
		}
	case "hier_qos":
		opt.Backend = func(int) shardq.Scheduler {
			sp := hierSpec()
			sp.RateDiv = numShards
			b, err := shardq.NewHierSched(sp)
			if err != nil {
				panic("benchmark: " + err.Error())
			}
			engines = append(engines, b)
			return b
		}
		key = func(p *pkt.Packet) (uint64, uint64) { return p.Rank, uint64(p.Class) }
	}
	q := shardq.New(opt)
	prod := q.NewProducer(0)
	return twin{
		publish: func(p *pkt.Packet) {
			r, a := key(p)
			q.EnqueueAux(p.Flow, node(p), r, a)
		},
		publishBatch: func(ps []*pkt.Packet) {
			for _, p := range ps {
				r, a := key(p)
				prod.EnqueueAux(p.Flow, node(p), r, a)
			}
			prod.Flush()
		},
		flush:   func(int64) { q.GroupFlush(0) },
		migrate: func(int64) {},
		drain: func(now int64, out []*shardq.Node) int {
			// The hClock engines read the consumer's clock; the front
			// propagates it before every drain and re-peeks engines that
			// had every tenant parked over its limit. So must the twin.
			stalled := false
			for _, b := range engines {
				stalled = stalled || b.Stalled()
				b.SetNow(now)
			}
			if stalled {
				q.GroupFlush(0)
			}
			return q.GroupDequeueBatch(0, bound(now), out)
		},
		stats: q.Stats,
	}
}

// drainAll calls pop on a clock that starts at due and advances isoPaceNs
// per packet (the hClock engines need a moving clock) until n packets have
// come out.
func drainAll(n int, due int64, pop func(now int64) int) {
	for got, now := 0, due; got < n; now += isoPaceNs * isoDrainSz {
		got += pop(now)
	}
}

// since returns the ns per packet spent since t0.
func since(t0 time.Time, n int) float64 { return float64(time.Since(t0).Nanoseconds()) / float64(n) }

// isolate measures every stage for w and returns the per-layer metrics
// that come from stage isolation.
func isolate(w *workloadDef, seed int64) (map[string]float64, error) {
	n := w.window
	st := w.newStream(seed)
	pool := pkt.NewPool(n)
	ps := make([]*pkt.Packet, n)
	for i := range ps {
		ps[i] = pool.Get()
	}
	for i := 0; i < n; i += enqRun {
		st.fill(ps[i : i+enqRun])
	}
	// stamp gives the packets the release times of round r, the way the
	// saturate phase stamps them, and returns the round's admit and drain
	// instants.
	stamp := func(r int) (now, due int64) {
		now = int64(r+1) * isoStepNs
		for _, p := range ps {
			p.SendAt = 0
			if w.shaped {
				p.SendAt = now + w.satLead
			}
		}
		return now, now + isoDueNs
	}

	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }

	f, err := w.newFront()
	if err != nil {
		return nil, err
	}
	tw := newTwin(w)
	vec := shardq.NewVecSched(shapeSchedCfg)
	cffs := ffsq.NewCFFS(ffsq.CFFSOptions{NumBuckets: paceBuckets, Granularity: uint64(paceGranule)})
	tree, err := qdisc.NewPolicyTree(qdisc.PolicySpecPFabric, "")
	if err != nil {
		return nil, err
	}
	hier, err := qdisc.NewHierTree(hierSpec())
	if err != nil {
		return nil, err
	}
	out := make([]*pkt.Packet, isoDrainSz)
	nodes := make([]*shardq.Node, isoDrainSz)
	var claims0 shardq.Snapshot

	for r := 0; r < isoRounds; r++ {
		now, due := stamp(r)

		// The front, through the calls the live run makes.
		t0 := time.Now()
		if w.batched {
			for i := 0; i < n; i += enqRun {
				f.EnqueueBatch(ps[i:i+enqRun], now)
			}
		} else {
			for _, p := range ps {
				f.Enqueue(p, now)
			}
		}
		frontEnq := since(t0, n)
		t0 = time.Now()
		if w.satLead > 0 {
			// A poll before anything is due, as the live worker's polls
			// are: the rings flush and every packet parks in the shaper,
			// so the drain below migrates it instead of finding it overdue
			// in the ring and skipping the shaper.
			f.GroupDequeueBatch(0, now, out)
		}
		drainAll(n, due, func(now int64) int { return f.GroupDequeueBatch(0, now, out) })
		frontDeq := since(t0, n)

		// The runtime beneath it, stage by stage.
		t0 = time.Now()
		for _, p := range ps {
			tw.publish(p)
		}
		publish := since(t0, n)
		t0 = time.Now()
		tw.flush(now)
		flush := since(t0, n)
		t0 = time.Now()
		tw.migrate(due)
		migrate := since(t0, n)
		t0 = time.Now()
		drainAll(n, due, func(now int64) int { return tw.drain(now, nodes) })
		drain := since(t0, n)
		add("shardq.publish_ns", publish)
		add("shardq.flush_ns", flush)
		add("shardq.migrate_ns", migrate)
		add("shardq.drain_ns", drain)
		add("qdisc.front_self_ns", frontEnq+frontDeq-publish-flush-migrate-drain)

		// The same, admitted in staged runs of enqRun.
		if r == 0 {
			claims0 = tw.stats()
		}
		t0 = time.Now()
		for i := 0; i < n; i += enqRun {
			tw.publishBatch(ps[i : i+enqRun])
		}
		add("shardq.publish_batch_ns", since(t0, n))
		tw.flush(now)
		tw.migrate(due)
		drainAll(n, due, func(now int64) int { return tw.drain(now, nodes) })

		// The flat vector scheduler on the workload's ranks.
		t0 = time.Now()
		for _, p := range ps {
			vec.Enqueue(&p.SchedNode, p.Rank%shapeSpan)
		}
		add("shardq.backend_enq_ns", since(t0, n))
		t0 = time.Now()
		for got := 0; got < n; {
			got += vec.DequeueBatch(^uint64(0), nodes)
		}
		add("shardq.backend_deq_ns", since(t0, n))

		// The timer cFFS on the workload's release times (unshaped
		// workloads: arrival order, one packet every 100 ns).
		t0 = time.Now()
		for i, p := range ps {
			at := uint64(p.SendAt)
			if !w.shaped {
				at = uint64(now) + uint64(i)*100
			}
			cffs.Enqueue(&p.TimerNode, at)
		}
		add("ffsq.enq_ns", since(t0, n))
		t0 = time.Now()
		for got := 0; got < n; {
			got += cffs.DequeueBatch(uint64(now+isoStepNs-1), nodes)
		}
		add("ffsq.deq_ns", since(t0, n))

		// The pFabric policy tree and the hClock engine, each as one
		// single-threaded instance.
		t0 = time.Now()
		for _, p := range ps {
			tree.Enqueue(p, now)
		}
		add("pifo.enq_ns", since(t0, n))
		t0 = time.Now()
		for tree.Dequeue(due) != nil {
		}
		add("pifo.deq_ns", since(t0, n))

		t0 = time.Now()
		for _, p := range ps {
			hier.Enqueue(p, now)
		}
		add("hclock.enq_ns", since(t0, n))
		t0 = time.Now()
		for vnow := due; hier.Len() > 0; vnow += isoPaceNs {
			hier.Dequeue(vnow)
		}
		add("hclock.deq_ns", since(t0, n))
	}

	res := map[string]float64{}
	for name, xs := range samples {
		res[name] = median(xs)
	}
	res["shardq.claim_amortization"] = 0
	if s := tw.stats(); s.BulkClaims > claims0.BulkClaims {
		res["shardq.claim_amortization"] = float64(s.BulkClaimed-claims0.BulkClaimed) / float64(s.BulkClaims-claims0.BulkClaims)
	}
	return res, nil
}
