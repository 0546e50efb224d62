package qdisc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eiffel/internal/pkt"
)

// BatchDequeuer is implemented by qdiscs whose consumer can pop many
// release-eligible packets at once; the contention harness uses it to give
// batching qdiscs their intended drain path.
type BatchDequeuer interface {
	DequeueBatch(now int64, out []*pkt.Packet) int
}

// BatchEnqueuer is the producer-side twin: qdiscs that can admit a whole
// run of packets in one call (the sharded Front, which stages the run per
// shard and publishes each shard's piece as one multi-slot ring claim).
// The harness's ProducerBatch knob routes enqueues through it.
type BatchEnqueuer interface {
	EnqueueBatch(ps []*pkt.Packet, now int64)
}

// ContentionOptions tunes how a contention replay drives the qdisc.
type ContentionOptions struct {
	// ProducerBatch admits each producer's packets in runs of this size
	// through the qdisc's EnqueueBatch, when it has one. Zero or one (or
	// a qdisc without batch admission) means per-packet Enqueue — the
	// PR-2 behavior, kept as the comparison baseline.
	ProducerBatch int
}

// horizon is the shaping horizon the contention qdiscs are built for.
const horizon = int64(2e9)

// buriedPrime strides release times across the horizon so successive
// packets from one producer land in well-separated buckets.
const buriedPrime = int64(999983)

// ContentionResult reports one contention run.
type ContentionResult struct {
	// Packets is the total number of packets pushed through the qdisc.
	Packets int
	// Elapsed is the wall time from first enqueue to last dequeue.
	Elapsed time.Duration
}

// Mpps returns million packets per second through the qdisc.
func (r ContentionResult) Mpps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Packets) / r.Elapsed.Seconds() / 1e6
}

// ContentionPackets pre-builds the workload RunContention replays: one
// packet set per producer, annotated with distinct flows (so sharded
// qdiscs spread them) and release times in the recent past (so the
// consumer is never throttled and the run measures queue+lock overhead
// only). Benchmarks build this once and replay it every iteration —
// packet allocation must not pollute the measurement.
func ContentionPackets(producers, perProducer int) [][]*pkt.Packet {
	sets := make([][]*pkt.Packet, producers)
	for w := range sets {
		pool := pkt.NewPool(perProducer) // pools are not shared: one per set
		set := make([]*pkt.Packet, perProducer)
		for i := range set {
			p := pool.Get()
			p.Flow = uint64(w*perProducer + i)
			p.Size = 1500
			// Release times spread over the full 2 s shaping horizon, as
			// paced traffic spreads them in the paper's evaluation — the
			// workload must exercise the whole bucket structure, not one
			// hot bucket. The consumer drains at now = horizon, so every
			// packet is eligible and throughput measures queue+lock work.
			p.SendAt = (int64(i)*buriedPrime + int64(w)) % (horizon - 1)
			set[i] = p
		}
		sets[w] = set
	}
	return sets
}

// EgressPackets builds the egress workload: like ContentionPackets, but
// with flowsPer multi-packet flows per producer (flow ranges disjoint
// across producers, so each flow's enqueue order is well defined) and
// release times that spread over the shaping horizon while increasing
// STRICTLY along each flow. Per-flow dequeue order through an exact-merge
// sharded qdisc is then fully determined — nondecreasing SendAt, FIFO
// within a bucket — so the group-fidelity replay can assert it packet by
// packet.
func EgressPackets(producers, perProducer, flowsPer int) [][]*pkt.Packet {
	sets := make([][]*pkt.Packet, producers)
	step := (horizon - 1) / int64(perProducer)
	if step <= 0 {
		step = 1
	}
	for w := range sets {
		pool := pkt.NewPool(perProducer) // pools are not shared: one per set
		set := make([]*pkt.Packet, perProducer)
		for i := range set {
			p := pool.Get()
			f := i % flowsPer
			p.Flow = uint64(w*flowsPer + f)
			p.Size = 1500
			// Strictly increasing in i, so also strictly increasing along
			// every flow (a flow's packets are the i ≡ f mod flowsPer
			// subsequence); the +w skew keeps producers out of lockstep
			// without reordering any flow. i*step stays below the horizon
			// by construction and w (≤ producers) is far below one step,
			// so every SendAt is in [0, horizon).
			p.SendAt = int64(i)*step + int64(w)
			set[i] = p
		}
		sets[w] = set
	}
	return sets
}

// ShapedPackets builds the shapedsched workload: the contention packet
// sets plus a deterministic per-packet priority annotation spread over
// [0, rankSpan) — uncorrelated with the release times, so shaping and
// scheduling exercise different orders.
func ShapedPackets(producers, perProducer int, rankSpan uint64) [][]*pkt.Packet {
	sets := ContentionPackets(producers, perProducer)
	const rankPrime = 1000003
	for w, set := range sets {
		for i, p := range set {
			p.Rank = (uint64(i)*rankPrime + uint64(w)*31) % rankSpan
		}
	}
	return sets
}

// BestOfReplays replays packets against q reps times on ONE instance and
// returns the best throughput in Mpps — the steady-state methodology
// every scaling-experiment row and example uses: a qdisc is empty after a
// full replay, so reuse measures warm rings and buckets with no per-rep
// construction garbage, and the max filters the scheduler/GC hiccups that
// dominate single runs on small machines.
func BestOfReplays(q Qdisc, packets [][]*pkt.Packet, reps int, opt ContentionOptions) float64 {
	best := 0.0
	for r := 0; r < reps; r++ {
		if m := ReplayContentionOpts(q, packets, opt).Mpps(); m > best {
			best = m
		}
	}
	return best
}

// PolicyPackets builds the policysched workload: one packet set per
// producer over disjoint flow ranges (so concurrent producers cannot race
// a flow's internal order), round-robin across flowsPer flows within each
// set. Every flow's packets carry pFabric-style decreasing remaining-size
// ranks, and Class alternates 0/1 so two-leaf programs (the hierarchical
// WFQ example) split the load across their classes.
func PolicyPackets(producers, perProducer, flowsPer int) [][]*pkt.Packet {
	sets := make([][]*pkt.Packet, producers)
	for w := range sets {
		pool := pkt.NewPool(perProducer) // pools are not shared: one per set
		set := make([]*pkt.Packet, perProducer)
		perFlow := (perProducer + flowsPer - 1) / flowsPer
		for i := range set {
			p := pool.Get()
			f := i % flowsPer
			p.Flow = uint64(w*flowsPer + f)
			p.Size = 1500
			p.Class = int32(f % 2)
			p.Rank = uint64(perFlow-i/flowsPer) * 1500 // remaining bytes
			set[i] = p
		}
		sets[w] = set
	}
	return sets
}

// ReplayFlowFidelity checks flow-local exactness for policy qdiscs: every
// set enqueues from its own goroutine (PolicyPackets keeps flows disjoint
// per set, so each flow's enqueue order is well defined), then one
// consumer drains everything. It returns how many packets came out and
// how many left their flow's enqueue order — a correct per-flow-ranking
// qdisc returns misorders == 0 no matter how shards interleave flows.
func ReplayFlowFidelity(q Qdisc, packets [][]*pkt.Packet, opt ContentionOptions) (released, misorders int) {
	expected := map[uint64][]uint64{}
	for _, set := range packets {
		for _, p := range set {
			expected[p.Flow] = append(expected[p.Flow], p.ID)
		}
	}
	publishAll(q, packets, opt)

	pos := map[uint64]int{}
	drainEach(q, horizon, func(p *pkt.Packet) {
		ids := expected[p.Flow]
		if i := pos[p.Flow]; i >= len(ids) || ids[i] != p.ID {
			misorders++
		}
		pos[p.Flow]++
		released++
	})
	return released, misorders
}

// ReplayPriorityFidelity checks the ordering half of the shapedsched
// acceptance: every set is enqueued from its own goroutine, and only after
// all producers finish does the consumer drain at now = horizon (so every
// packet is release-eligible and the global output order is fully
// determined by priorities). It returns how many packets came out and how
// many adjacent pairs inverted beyond the given priority granularity — a
// correct decoupled qdisc returns inversions == 0.
func ReplayPriorityFidelity(q Qdisc, packets [][]*pkt.Packet, gran uint64) (released, inversions int) {
	return ReplayPriorityFidelityOpts(q, packets, gran, ContentionOptions{})
}

// ReplayPriorityFidelityOpts is ReplayPriorityFidelity with the harness
// knobs applied — the fidelity guarantee must hold through the batched
// admission path exactly as through the per-packet one.
func ReplayPriorityFidelityOpts(q Qdisc, packets [][]*pkt.Packet, gran uint64, opt ContentionOptions) (released, inversions int) {
	publishAll(q, packets, opt)

	var last uint64
	drainEach(q, horizon, func(p *pkt.Packet) {
		qr := p.Rank / gran
		if released > 0 && qr < last {
			inversions++
		}
		last = qr
		released++
	})
	return released, inversions
}

// InversionStats is the approximation column of the experiment tables:
// rank-inversion accounting for one fully-eligible drain, measured against
// the exact oracle order. With every packet release-eligible the oracle
// replay is simply nondecreasing raw rank, so a running maximum over the
// drain sequence finds every inversion without materialising the oracle:
// a packet emerging with rank r below the running maximum M was overtaken
// by at least one higher-rank packet, an inversion of magnitude M-r rank
// units.
type InversionStats struct {
	// Released counts packets drained.
	Released int
	// Inversions counts packets that emerged below the running maximum.
	Inversions int
	// MaxMagnitude is the largest single inversion, in raw rank units —
	// the number an approximate backend's analytic bound caps.
	MaxMagnitude uint64
	// SumMagnitude accumulates every inversion's magnitude.
	SumMagnitude uint64
}

// AvgMagnitude returns the mean inversion magnitude, 0 when none.
func (s InversionStats) AvgMagnitude() float64 {
	if s.Inversions == 0 {
		return 0
	}
	return float64(s.SumMagnitude) / float64(s.Inversions)
}

// Note folds one drained rank into the accounting. runMax carries the
// running maximum between calls; feed ranks in drain order. Exported so
// the experiment harness can run the same accounting over raw scheduler
// backends, where there is no Qdisc to replay through.
func (s *InversionStats) Note(runMax *uint64, rank uint64) {
	if s.Released > 0 && rank < *runMax {
		s.Inversions++
		mag := *runMax - rank
		s.SumMagnitude += mag
		if mag > s.MaxMagnitude {
			s.MaxMagnitude = mag
		}
	} else {
		*runMax = rank
	}
	s.Released++
}

// ReplayInversions loads q from concurrent producers exactly as
// ReplayPriorityFidelityOpts does, then drains it fully eligible and
// returns the inversion accounting: count, maximum magnitude, and total
// magnitude against the exact oracle replay. Exact backends stay within
// bucket quantization; approximate backends must stay within their
// analytic bound (shardq.GradSchedBound, shardq.RIFOSchedBound) — the
// property tests assert both.
func ReplayInversions(q Qdisc, packets [][]*pkt.Packet, opt ContentionOptions) InversionStats {
	publishAll(q, packets, opt)

	var st InversionStats
	var runMax uint64
	drainEach(q, horizon, func(p *pkt.Packet) { st.Note(&runMax, p.Rank) })
	return st
}

// RunContention builds a fresh workload and replays it; see
// ReplayContention.
func RunContention(q Qdisc, producers, perProducer int) ContentionResult {
	return ReplayContention(q, ContentionPackets(producers, perProducer))
}

// enqueuer is the producer-side surface produce needs — satisfied by every
// Qdisc and by the multi-consumer egress fronts, which expose no
// single-consumer Dequeue.
type enqueuer interface {
	Enqueue(p *pkt.Packet, now int64)
}

// produce pushes one packet set through the qdisc, in set order, honoring
// the ProducerBatch knob.
func produce(q enqueuer, set []*pkt.Packet, opt ContentionOptions) {
	if be, ok := q.(BatchEnqueuer); ok && opt.ProducerBatch > 1 {
		for i := 0; i < len(set); i += opt.ProducerBatch {
			j := i + opt.ProducerBatch
			if j > len(set) {
				j = len(set)
			}
			be.EnqueueBatch(set[i:j], 0)
		}
		return
	}
	for _, p := range set {
		q.Enqueue(p, 0)
	}
}

// publishAll pushes every packet set through q from its own goroutine and
// returns once all of them have finished.
func publishAll(q enqueuer, packets [][]*pkt.Packet, opt ContentionOptions) {
	var wg sync.WaitGroup
	for w := range packets {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			produce(q, packets[w], opt)
		}(w)
	}
	wg.Wait()
}

// drainEach pops q until a pop comes back empty, at a fixed now, handing
// every packet to visit in release order — through DequeueBatch when q
// has one (batching qdiscs get their intended drain path).
func drainEach(q Qdisc, now int64, visit func(*pkt.Packet)) {
	if bd, ok := q.(BatchDequeuer); ok {
		out := make([]*pkt.Packet, 1024)
		for k := bd.DequeueBatch(now, out); k > 0; k = bd.DequeueBatch(now, out) {
			for _, p := range out[:k] {
				visit(p)
			}
		}
		return
	}
	for p := q.Dequeue(now); p != nil; p = q.Dequeue(now) {
		visit(p)
	}
}

// ReplayContention replays the §4 many-senders scenario against q with
// per-packet admission; see ReplayContentionOpts.
func ReplayContention(q Qdisc, packets [][]*pkt.Packet) ContentionResult {
	return ReplayContentionOpts(q, packets, ContentionOptions{})
}

// ReplayContentionOpts replays the §4 many-senders scenario against q: one
// goroutine per packet set enqueues its packets in order (per packet, or
// in ProducerBatch-sized runs through the qdisc's batch admission) while
// one consumer concurrently drains until every packet has come back out.
// The workload is identical for every qdisc, so Locked vs sharded-front
// numbers are directly comparable — this is the repo's locked-vs-sharded
// experiment substrate. Packets must be detached (as they are after a full
// prior replay), so a benchmark can replay one workload repeatedly.
func ReplayContentionOpts(q Qdisc, packets [][]*pkt.Packet, opt ContentionOptions) ContentionResult {
	producers := len(packets)
	total := 0
	for _, set := range packets {
		total += len(set)
	}

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			produce(q, packets[w], opt)
		}(w)
	}

	var producersDone atomic.Bool
	go func() { wg.Wait(); producersDone.Store(true) }()

	now := horizon // beyond every SendAt: everything is always eligible
	consumed := 0
	if bd, ok := q.(BatchDequeuer); ok {
		out := make([]*pkt.Packet, 1024)
		for consumed < total {
			k := bd.DequeueBatch(now, out)
			consumed += k
			if k == 0 {
				if producersDone.Load() && q.Len() == 0 && consumed < total {
					// Defensive: a correct qdisc can't get here.
					panic("qdisc: contention run lost packets")
				}
				runtime.Gosched()
			}
		}
	} else {
		for consumed < total {
			if p := q.Dequeue(now); p != nil {
				consumed++
				continue
			}
			if producersDone.Load() && q.Len() == 0 && consumed < total {
				panic("qdisc: contention run lost packets")
			}
			runtime.Gosched()
		}
	}
	elapsed := time.Since(start)
	wg.Wait()
	return ContentionResult{Packets: total, Elapsed: elapsed}
}

// --- Parallel-egress contention replays (the egress experiment substrate) ---

// EgressResult reports one parallel-egress contention replay.
type EgressResult struct {
	// Packets is the total number of packets pushed through the qdisc.
	Packets int
	// Elapsed is the wall time from first enqueue to last dequeue.
	Elapsed time.Duration
	// PerGroup is how many packets each group's worker drained.
	PerGroup []int64
}

// Mpps returns aggregate million packets per second through the qdisc.
func (r EgressResult) Mpps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Packets) / r.Elapsed.Seconds() / 1e6
}

// ReplayEgress replays the many-senders scenario against a parallel-
// egress front: one goroutine per packet set enqueues (per packet or in
// ProducerBatch runs) while one drain worker PER CONSUMER GROUP
// concurrently pops its group until every packet has come back out. The
// workload contract matches ReplayContentionOpts — detached packets,
// replayable — so locked, single-consumer, and multi-consumer rows are
// directly comparable.
func ReplayEgress(m *Front, packets [][]*pkt.Packet, opt ContentionOptions) EgressResult {
	total := 0
	for _, set := range packets {
		total += len(set)
	}

	var wg sync.WaitGroup
	start := time.Now()
	for w := range packets {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			produce(m, packets[w], opt)
		}(w)
	}
	var producersDone atomic.Bool
	go func() { wg.Wait(); producersDone.Store(true) }()

	now := horizon // beyond every SendAt: everything is always eligible
	G := m.NumGroups()
	perGroup := make([]int64, G)
	var consumed atomic.Int64
	var cwg sync.WaitGroup
	for g := 0; g < G; g++ {
		cwg.Add(1)
		go func(g int) {
			defer cwg.Done()
			out := make([]*pkt.Packet, 1024)
			var suspectSince time.Time
			for {
				k := m.GroupDequeueBatch(g, now, out)
				if k > 0 {
					perGroup[g] += int64(k) // worker-private slot; read after join
					consumed.Add(int64(k))
					suspectSince = time.Time{}
					continue
				}
				if consumed.Load() >= int64(total) {
					return
				}
				if producersDone.Load() && m.Len() == 0 && consumed.Load() < int64(total) {
					// Looks like lost packets — but unlike the single-consumer
					// replay, this observation RACES the other workers: a peer
					// may have popped the final batch (Len is already 0) and
					// not yet added it to consumed. That window closes as soon
					// as the peer runs again, so only a condition that
					// PERSISTS is a real loss. Defensive: a correct front
					// can't get here durably.
					if suspectSince.IsZero() {
						suspectSince = time.Now()
					} else if time.Since(suspectSince) > 2*time.Second {
						panic("qdisc: egress replay lost packets")
					}
				} else {
					suspectSince = time.Time{}
				}
				runtime.Gosched()
			}
		}(g)
	}
	cwg.Wait()
	elapsed := time.Since(start)
	wg.Wait()
	return EgressResult{Packets: total, Elapsed: elapsed, PerGroup: perGroup}
}

// ReplayEgressFidelity checks the parallel-egress ordering contract: every
// packet set enqueues from its own goroutine; once everything is
// published, one worker per group drains concurrently, each recording
// which packets it released and in what order. It returns how many
// packets came out, how many left their flow's publish order
// (orderViolations — per-flow order must survive parallel egress exactly,
// EgressPackets having made each flow's eligible order well defined), and
// how many flows were released by a group other than the one that owns
// them (groupViolations — the partition invariant: a flow has exactly one
// egress worker).
func ReplayEgressFidelity(m *Front, packets [][]*pkt.Packet, opt ContentionOptions) (released, orderViolations, groupViolations int) {
	expected := map[uint64][]uint64{}
	for _, set := range packets {
		for _, p := range set {
			expected[p.Flow] = append(expected[p.Flow], p.ID)
		}
	}
	publishAll(m, packets, opt)

	type rec struct {
		flow, id uint64
	}
	G := m.NumGroups()
	seqs := make([][]rec, G) // worker-private; merged after the join
	var cwg sync.WaitGroup
	for g := 0; g < G; g++ {
		cwg.Add(1)
		go func(g int) {
			defer cwg.Done()
			out := make([]*pkt.Packet, 1024)
			for {
				k := m.GroupDequeueBatch(g, horizon, out)
				if k == 0 {
					return // quiescent publish: an empty pop means the group is drained
				}
				for _, p := range out[:k] {
					seqs[g] = append(seqs[g], rec{p.Flow, p.ID})
				}
			}
		}(g)
	}
	cwg.Wait()

	flowGroup := map[uint64]int{}
	pos := map[uint64]int{}
	for g, seq := range seqs {
		for _, r := range seq {
			if owner, seen := flowGroup[r.flow]; !seen {
				flowGroup[r.flow] = g
				if m.GroupFor(r.flow) != g {
					groupViolations++
				}
			} else if owner != g {
				groupViolations++
			}
			ids := expected[r.flow]
			if i := pos[r.flow]; i >= len(ids) || ids[i] != r.id {
				orderViolations++
			}
			pos[r.flow]++
			released++
		}
	}
	return released, orderViolations, groupViolations
}
