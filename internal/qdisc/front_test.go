package qdisc

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"eiffel/internal/pkt"
	"eiffel/internal/shardq"
)

// This file is the one front contract: every preset of the sharded Front,
// at G=1 and G=2, through per-packet, batched and bounded-admit admission,
// must keep per-flow order exact, never release a packet before SendAt −
// granule, agree between concurrent group workers and a serial drain,
// and conserve admitted == tx'd + dropped + released through Close→Drain
// and through CloseForce. What is specific to one scheduler (priority
// order, share accuracy, reservation service, timer answers) is tested
// beside that preset; what every configuration owes is tested here once.

const (
	contractHorizon  = int64(1 << 20)
	contractBuckets  = 1 << 10
	contractGranule  = contractHorizon / (2 * contractBuckets)
	contractFlowsPer = 40
	contractPerProd  = 1600
	contractProds    = 2
)

// horizon is the shaping horizon of the 2 s fronts; draining at it makes
// every packet whose release time lies inside it eligible.
const horizon = int64(2e9)

// frontOpts is the sizing the contract varies.
type frontOpts struct {
	groups, bound int
	ringBits      uint
}

// frontCase is one preset under the contract.
type frontCase struct {
	name     string
	wantName string
	shaped   bool // packets carry a release time the front must honour
	mk       func(t *testing.T, o frontOpts) *Front
	// stamp sets the scheduler annotations of a flow's seq-th packet (of
	// perFlow) so that the preset's own order within a flow IS arrival
	// order: a constant priority per flow, or pFabric's decreasing
	// remaining size.
	stamp func(p *pkt.Packet, seq, perFlow int)
}

func mkPolicyCase(name, spec string) frontCase {
	return frontCase{
		name: name, wantName: "Eiffel+policy-shards",
		mk: func(t *testing.T, o frontOpts) *Front {
			q, err := NewPolicySharded(PolicyShardedOptions{
				Policy: spec, Shards: 4, Groups: o.groups, RingBits: o.ringBits, ShardBound: o.bound,
			})
			if err != nil {
				t.Fatal(err)
			}
			return q.Front
		},
		stamp: func(p *pkt.Packet, seq, perFlow int) {
			p.Class = int32(p.Flow % 2)
			p.Rank = uint64(perFlow-seq) * 1500 // remaining bytes, decreasing
		},
	}
}

// mkTimerCase is the timer preset; a non-zero ringBits overrides the
// contract's ring size.
func mkTimerCase(name string, ringBits uint) frontCase {
	return frontCase{
		name: name, wantName: "Eiffel+shards", shaped: true,
		mk: func(t *testing.T, o frontOpts) *Front {
			if ringBits != 0 {
				o.ringBits = ringBits
			}
			return NewMultiSharded(MultiShardedOptions{
				ShardedOptions: ShardedOptions{
					Shards: 4, Buckets: contractBuckets, HorizonNs: contractHorizon,
					RingBits: o.ringBits, ShardBound: o.bound,
				},
				Groups: o.groups,
			})
		},
		stamp: func(*pkt.Packet, int, int) {},
	}
}

var frontCases = []frontCase{
	mkTimerCase("timer", 0),
	{
		name: "shaped", wantName: "Eiffel+shaped-shards", shaped: true,
		mk: func(t *testing.T, o frontOpts) *Front {
			return NewMultiShaped(MultiShapedOptions{
				ShapedShardedOptions: ShapedShardedOptions{
					Shards: 4, ShaperBuckets: contractBuckets, HorizonNs: contractHorizon,
					SchedBuckets: 256, RankSpan: 1 << 16, RingBits: o.ringBits, ShardBound: o.bound,
				},
				Groups: o.groups,
			})
		},
		stamp: func(p *pkt.Packet, _, _ int) { p.Rank = (p.Flow * 7919) % (1 << 16) },
	},
	mkPolicyCase("policy-pfabric", PolicySpecPFabric),
	mkPolicyCase("policy-lqf", PolicySpecLQF),
	mkPolicyCase("policy-fifo", `
root ranker=strict
leaf ff parent=root kind=flow policy=fifo buckets=4096 gran=64
`),
	{
		name: "hier", wantName: "Eiffel+hier-shards",
		mk: func(t *testing.T, o frontOpts) *Front {
			q, err := NewHierSharded(HierShardedOptions{
				Spec: hierTestSpec(), Shards: 4, Groups: o.groups, RingBits: o.ringBits, ShardBound: o.bound,
			})
			if err != nil {
				t.Fatal(err)
			}
			return q.Front
		},
		stamp: func(p *pkt.Packet, _, _ int) {
			p.Class = int32(p.Flow % 4) // tenant 3 orders by rank: constant per flow
			p.Rank = (p.Flow * 7919) % (1 << 16)
		},
	},
	{
		// The 3:1 two-class weighted hierarchy with FIFO classes
		// (PolicySpecHWFQ's shape) on its sharded home.
		name: "hier-wfq", wantName: "Eiffel+hier-shards",
		mk: func(t *testing.T, o frontOpts) *Front {
			q, err := NewHierSharded(HierShardedOptions{
				Spec:   shardq.HierSpec{Tenants: []shardq.HierTenant{{Weight: 3}, {Weight: 1}}},
				Shards: 4, Groups: o.groups, RingBits: o.ringBits, ShardBound: o.bound,
			})
			if err != nil {
				t.Fatal(err)
			}
			return q.Front
		},
		stamp: func(p *pkt.Packet, _, _ int) { p.Class = int32(p.Flow % 2) },
	},
	// 16-slot rings: most packets settle into the cFFS through the
	// producers' ring-full fallback, so the due-bypass finds due packets in
	// the queues AND in the rings and must serve the former first.
	mkTimerCase("timer-small-ring", 4),
}

// contractPackets builds one packet set per producer over disjoint flow
// ranges, round-robin across the set's flows. Seq counts along each flow
// from 1, and shaped cases get release times spread over the horizon and
// strictly increasing along every flow.
func contractPackets(c frontCase) [][]*pkt.Packet {
	sets := make([][]*pkt.Packet, contractProds)
	perFlow := contractPerProd / contractFlowsPer
	step := (contractHorizon - 1) / contractPerProd
	for w := range sets {
		pool := pkt.NewPool(contractPerProd) // pools are not shared: one per set
		sets[w] = make([]*pkt.Packet, contractPerProd)
		for i := range sets[w] {
			p := pool.Get()
			p.Flow = uint64(w*contractFlowsPer + i%contractFlowsPer)
			p.Seq = uint32(i/contractFlowsPer) + 1
			p.Size = 1500
			if c.shaped {
				p.SendAt = int64(i)*step + int64(w)
			}
			c.stamp(p, i/contractFlowsPer, perFlow)
			sets[w][i] = p
		}
	}
	return sets
}

const (
	modePerPacket = "per-packet"
	modeBatched   = "batched"
	modeAdmit     = "admit"
)

// admitSet publishes set through the mode's admission path and returns
// how many packets the front took. In admit mode the front is bounded, so
// some are refused; offered == admitted + refused must hold per call.
func admitSet(t *testing.T, f *Front, set []*pkt.Packet, mode string) (admitted int) {
	const run = 64
	switch mode {
	case modePerPacket:
		for _, p := range set {
			if !f.TryEnqueue(p, 0) {
				t.Error("TryEnqueue refused on an open, unbounded front")
			}
		}
		return len(set)
	case modeBatched:
		for i := 0; i < len(set); i += run {
			f.EnqueueBatch(set[i:min(i+run, len(set))], 0)
		}
		return len(set)
	}
	var rej []*pkt.Packet
	for i := 0; i < len(set); i += run {
		ps := set[i:min(i+run, len(set))]
		var n int
		n, rej = f.EnqueueBatchAdmit(ps, 0, rej[:0])
		if n+len(rej) != len(ps) {
			t.Errorf("EnqueueBatchAdmit: admitted %d + refused %d != offered %d", n, len(rej), len(ps))
		}
		admitted += n
	}
	return admitted
}

// publish admits every set from its own goroutine and returns the total
// admitted.
func publish(t *testing.T, f *Front, sets [][]*pkt.Packet, mode string) int {
	counts := make([]int, len(sets))
	var wg sync.WaitGroup
	for w := range sets {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			counts[w] = admitSet(t, f, sets[w], mode)
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

// flowLog records each flow's release sequence and checks the per-packet
// clauses of the contract as packets come out.
type flowLog struct {
	seqs  map[uint64][]uint32
	early int
}

func (l *flowLog) note(c frontCase, p *pkt.Packet, now int64) {
	if c.shaped && p.SendAt-contractGranule > now {
		l.early++
	}
	l.seqs[p.Flow] = append(l.seqs[p.Flow], p.Seq)
}

// check asserts per-flow order: exactly 1..n when nothing was refused,
// strictly increasing otherwise (a refusal leaves a gap, never a swap).
func (l *flowLog) check(t *testing.T, gaps bool) (released int) {
	t.Helper()
	if l.early != 0 {
		t.Errorf("%d packets released before SendAt - granule", l.early)
	}
	for flow, seqs := range l.seqs {
		for i, s := range seqs {
			if (gaps && i > 0 && s <= seqs[i-1]) || (!gaps && s != uint32(i+1)) {
				t.Fatalf("flow %d: packet seq %d at position %d (sequence %v)", flow, s, i, seqs)
			}
		}
		released += len(seqs)
	}
	return released
}

// drainTo pops until backlog() is empty, starting the clock at zero and
// stepping it whenever nothing is eligible — so shaped cases are drained
// at many partial-eligibility instants, and clocked backends see a moving
// clock.
func drainTo(t *testing.T, pop func(now int64) int, backlog func() int) {
	t.Helper()
	now := int64(0)
	for stalls := 0; ; {
		if pop(now) > 0 {
			continue
		}
		if backlog() == 0 {
			return
		}
		now += contractHorizon / 16
		if stalls++; stalls > 1<<16 {
			t.Fatalf("drain stalled with backlog %d at now=%d", backlog(), now)
		}
	}
}

// drainGroups drains every group with its own concurrent worker and
// returns the merged log. A packet released by a group that does not own
// its flow panics the worker.
func drainGroups(t *testing.T, c frontCase, f *Front) *flowLog {
	logs := make([]*flowLog, f.NumGroups())
	var wg sync.WaitGroup
	for g := range logs {
		logs[g] = &flowLog{seqs: map[uint64][]uint32{}}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]*pkt.Packet, 48)
			drainTo(t, func(now int64) int {
				k := f.GroupDequeueBatch(g, now, out)
				for _, p := range out[:k] {
					if f.GroupFor(p.Flow) != g {
						panic("packet released by a group that does not own its flow")
					}
					logs[g].note(c, p, now)
				}
				return k
			}, func() int { return f.GroupLen(g) })
		}(g)
	}
	wg.Wait()
	merged := &flowLog{seqs: map[uint64][]uint32{}}
	for _, l := range logs {
		merged.early += l.early
		for flow, seqs := range l.seqs {
			if len(merged.seqs[flow]) > 0 {
				t.Fatalf("flow %d drained by two groups", flow)
			}
			merged.seqs[flow] = seqs
		}
	}
	return merged
}

// serialQdisc is a Front driven as a Qdisc from one goroutine: Dequeue is
// a one-slot GroupDequeueBatch over the groups in order, NextTimer the
// soonest GroupNextTimer. It buffers nothing, so Len stays the front's.
// The locked-oracle harnesses drive fronts through it.
type serialQdisc struct{ *Front }

func serial(f *Front) Qdisc { return serialQdisc{f} }

func (s serialQdisc) Dequeue(now int64) *pkt.Packet {
	var one [1]*pkt.Packet
	for g := range s.groups {
		if s.GroupDequeueBatch(g, now, one[:]) == 1 {
			return one[0]
		}
	}
	return nil
}

func (s serialQdisc) NextTimer(now int64) (int64, bool) {
	t, ok := int64(0), false
	for g := range s.groups {
		if gt, gok := s.GroupNextTimer(g, now); gok && (!ok || gt < t) {
			t, ok = gt, true
		}
	}
	return t, ok
}

// drainSerial drains f packet by packet through serial, checking on the
// way that Len counts exactly what is left. It returns the log and the
// release sequence.
func drainSerial(t *testing.T, c frontCase, f *Front, admitted int) (*flowLog, []*pkt.Packet) {
	log := &flowLog{seqs: map[uint64][]uint32{}}
	var order []*pkt.Packet
	q := serial(f)
	drainTo(t, func(now int64) int {
		p := q.Dequeue(now)
		if p == nil {
			return 0
		}
		log.note(c, p, now)
		order = append(order, p)
		if f.Len() != admitted-len(order) {
			t.Fatalf("Len = %d with %d of %d released", f.Len(), len(order), admitted)
		}
		return 1
	}, f.Len)
	if _, ok := q.NextTimer(contractHorizon); ok {
		t.Fatal("NextTimer ok on a fully drained front")
	}
	return log, order
}

func TestFrontContract(t *testing.T) {
	for _, c := range frontCases {
		for _, groups := range []int{1, 2} {
			// refSeq is the serial release sequence of the per-packet run,
			// by (flow, seq): batched admission is a transport
			// optimization and must reproduce it exactly.
			var refSeq []uint64
			for _, mode := range []string{modePerPacket, modeBatched, modeAdmit} {
				t.Run(fmt.Sprintf("%s/G=%d/%s", c.name, groups, mode), func(t *testing.T) {
					bound := 0
					if mode == modeAdmit {
						bound = 300
					}
					mk := func() *Front { return c.mk(t, frontOpts{groups: groups, bound: bound}) }

					// Group-worker surface, concurrent producers.
					f := mk()
					if f.Name() != c.wantName || f.NumShards() != 4 || f.NumGroups() != groups {
						t.Fatalf("front %q shards=%d groups=%d", f.Name(), f.NumShards(), f.NumGroups())
					}
					admitted := publish(t, f, contractPackets(c), mode)
					if mode == modeAdmit && admitted == contractProds*contractPerProd {
						t.Fatal("the bound never refused: the admit path is untested")
					}
					if f.Len() != admitted || f.Admitted() != uint64(admitted) {
						t.Fatalf("Len = %d, Admitted = %d, want %d", f.Len(), f.Admitted(), admitted)
					}
					if mode != modePerPacket && f.Stats().BulkClaims == 0 {
						t.Fatal("batched admission performed no bulk claims")
					}
					byGroup := drainGroups(t, c, f)
					if got := byGroup.check(t, mode == modeAdmit); got != admitted {
						t.Fatalf("group workers released %d of %d", got, admitted)
					}
					if f.Len() != 0 {
						t.Fatalf("Len = %d after the group drain", f.Len())
					}
					for g := range f.groups {
						for i, n := range f.groups[g].scratch {
							if n != nil {
								t.Fatalf("group %d scratch[%d] still pins a released packet's node", g, i)
							}
						}
					}

					// Serial drain, one deterministic producer: it must agree
					// with the concurrent group workers on every flow's order.
					f = mk()
					admitted = 0
					for _, set := range contractPackets(c) {
						admitted += admitSet(t, f, set, mode)
					}
					serialLog, order := drainSerial(t, c, f, admitted)
					if got := serialLog.check(t, mode == modeAdmit); got != admitted {
						t.Fatalf("serial drain released %d of %d", got, admitted)
					}
					if mode != modeAdmit {
						for flow, want := range serialLog.seqs {
							if got := byGroup.seqs[flow]; fmt.Sprint(got) != fmt.Sprint(want) {
								t.Fatalf("flow %d: group workers released %v, serial drain %v", flow, got, want)
							}
						}
					}
					seq := make([]uint64, len(order))
					for i, p := range order {
						seq[i] = p.Flow<<32 | uint64(p.Seq)
					}
					switch mode {
					case modePerPacket:
						refSeq = seq
					case modeBatched:
						if fmt.Sprint(seq) != fmt.Sprint(refSeq) {
							t.Fatal("batched admission changed the serial release sequence")
						}
					}

					// Close → Drain: exact conservation, refusals after Close.
					f = mk()
					sets := contractPackets(c)
					admitted = publish(t, f, sets, mode)
					if f.State() != StateRunning {
						t.Fatalf("state %v before Close", f.State())
					}
					f.Close()
					if f.State() != StateDraining || f.TryEnqueue(sets[0][0], 0) {
						t.Fatalf("state %v after Close, or a closed front admitted", f.State())
					}
					if n, rej := f.EnqueueBatchAdmit(sets[0][:4], 0, nil); n != 0 || len(rej) != 4 {
						t.Fatalf("closed front admitted %d of a batch, refused %d", n, len(rej))
					}
					sinks, counts := countingSinks(f.NumGroups())
					rep := f.Drain(sinks, ServeOptions{})
					if !rep.Conserved() || rep.Admitted != uint64(admitted) || rep.Txd != uint64(admitted) ||
						rep.Drained != admitted || rep.Dropped != 0 || rep.Released != 0 {
						t.Fatalf("drain of %d admitted: %s", admitted, rep)
					}
					if got := sinkTotal(counts); got != int64(admitted) {
						t.Fatalf("sinks saw %d of %d", got, admitted)
					}
					if f.State() != StateClosed || f.Len() != 0 || f.Admitted() != rep.Admitted {
						t.Fatalf("state=%v len=%d admitted=%d after drain", f.State(), f.Len(), f.Admitted())
					}

					// CloseForce after one packet was drained: that one is the
					// caller's, everything else comes back through release,
					// once.
					f = mk()
					admitted = publish(t, f, contractPackets(c), mode)
					var taken *pkt.Packet
					for now := int64(0); taken == nil; now += contractHorizon / 16 {
						taken = serial(f).Dequeue(now)
					}
					seen := map[*pkt.Packet]bool{taken: true}
					rep = f.CloseForce(func(p *pkt.Packet) {
						if seen[p] {
							t.Fatalf("flow %d seq %d released twice (or after Dequeue returned it)", p.Flow, p.Seq)
						}
						seen[p] = true
					})
					if rep.Released != uint64(admitted-1) || len(seen) != admitted || rep.Txd != 0 {
						t.Fatalf("force close of %d admitted (1 taken): %s, release saw %d", admitted, rep, len(seen)-1)
					}
					if f.State() != StateClosed || f.Len() != 0 {
						t.Fatalf("state=%v len=%d after force close", f.State(), f.Len())
					}
				})
			}
		}
	}
}

// TestFrontCacheLines pins Front's layout: it fills whole 64-byte lines,
// and the counter every admission bumps sits on a different line from the
// ones every drain worker's batch bumps.
func TestFrontCacheLines(t *testing.T) {
	var f Front
	if size := unsafe.Sizeof(f); size%64 != 0 {
		t.Fatalf("Front is %d bytes, not whole 64-byte lines: resize its trailing pad", size)
	}
	if a, e := unsafe.Offsetof(f.admitted), unsafe.Offsetof(f.eg); a/64 == e/64 {
		t.Fatalf("admitted (offset %d) shares a cache line with eg (offset %d)", a, e)
	}
}

func countingSinks(n int) ([]EgressSink, []*CountingSink) {
	sinks, counts := make([]EgressSink, n), make([]*CountingSink, n)
	for g := range sinks {
		counts[g] = &CountingSink{}
		sinks[g] = counts[g]
	}
	return sinks, counts
}

func sinkTotal(counts []*CountingSink) (n int64) {
	for _, c := range counts {
		n += c.Count()
	}
	return n
}

// TestFrontConcurrentProducersAndConsumer races producers against a
// draining group worker on every preset, through small rings so the
// producer fallback path runs: nothing lost, nothing duplicated, every
// flow in order.
func TestFrontConcurrentProducersAndConsumer(t *testing.T) {
	for _, c := range frontCases {
		t.Run(c.name, func(t *testing.T) {
			f := c.mk(t, frontOpts{groups: 1, ringBits: 6})
			sets := contractPackets(c)
			total := contractProds * contractPerProd
			var wg sync.WaitGroup
			for w := range sets {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i, p := range sets[w] {
						if i%3 == 0 {
							f.EnqueueBatch(sets[w][i:i+1], 0)
						} else {
							f.Enqueue(p, 0)
						}
					}
				}(w)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()

			log := &flowLog{seqs: map[uint64][]uint32{}}
			out := make([]*pkt.Packet, 64)
			released, now := 0, contractHorizon
			for released < total {
				now++ // every drain advances the clock: clocked backends see SetNow each batch
				k := f.GroupDequeueBatch(0, now, out)
				for _, p := range out[:k] {
					log.note(c, p, now)
				}
				released += k
				if k == 0 {
					select {
					case <-done:
						if f.Len() == 0 && released < total {
							t.Fatalf("lost packets: released %d of %d", released, total)
						}
					default:
					}
				}
			}
			if got := log.check(t, false); got != total {
				t.Fatalf("released %d of %d", got, total)
			}
			if f.Len() != 0 {
				t.Fatalf("Len = %d after drain", f.Len())
			}
			if c.name == "shaped" && f.Stats().Migrated == 0 {
				t.Fatal("no packet migrated shaper→scheduler")
			}
			t.Logf("paths taken: %s", f.Stats())
		})
	}
}

// TestFrontBufferKeepsMergeOrder: a group drain into a one-slot out
// buffer stops mid-merge; the drain that follows continues the
// cross-shard merge where it stopped, so the scheduler's order (release
// time on the timer preset, rank on the shaped one) is ascending across
// both calls. On the timer preset that order belongs to packets the
// consumer saw BEFORE they were due (one drain at t=0 parks them); packets
// it first sees overdue follow every parked due packet, in arrival order —
// the "now slot".
func TestFrontBufferKeepsMergeOrder(t *testing.T) {
	for _, c := range frontCases[:2] { // timer, shaped
		t.Run(c.name, func(t *testing.T) {
			timer := c.name == "timer"
			f := c.mk(t, frontOpts{groups: 1})
			pool := pkt.NewPool(30)
			for i := 19; i >= 0; i-- { // worst key first
				p := pool.Get()
				p.Flow, p.SendAt, p.Rank = uint64(i), 10, uint64(i)<<8 // one key per scheduler bucket
				if timer {
					p.SendAt = int64(i+1) * contractGranule
				}
				f.Enqueue(p, 0)
			}
			want := 20
			if timer {
				if k := f.GroupDequeueBatch(0, 0, make([]*pkt.Packet, 1)); k != 0 {
					t.Fatalf("%d packets released at t=0", k)
				}
				for i := 0; i < 10; i++ { // first seen at the horizon, latest release time first
					p := pool.Get()
					p.Flow, p.SendAt = uint64(20+i), int64(10-i)
					f.Enqueue(p, 0)
				}
				want = 30
			}
			out := make([]*pkt.Packet, 32)
			if k := f.GroupDequeueBatch(0, contractHorizon, out[:1]); k != 1 {
				t.Fatalf("one-slot drain = %d, want 1", k)
			}
			if k := f.GroupDequeueBatch(0, contractHorizon, out[1:]); k != want-1 {
				t.Fatalf("drain = %d after a one-slot drain of %d, want %d", k, want, want-1)
			}
			lastOfShard := map[int]uint64{}
			for i, p := range out[:want] {
				if i >= 20 { // the now slot: arrival order, which is per ring
					sh := f.rt.ShardFor(p.Flow)
					if p.Flow < 20 || p.Flow < lastOfShard[sh] {
						t.Fatalf("position %d: flow %d after flow %d of shard %d — want arrival order behind every parked packet",
							i, p.Flow, lastOfShard[sh], sh)
					}
					lastOfShard[sh] = p.Flow
				} else if p.Flow != uint64(i) {
					t.Fatalf("position %d: flow %d (SendAt %d, rank %d) — merge order broken across the two drains",
						i, p.Flow, p.SendAt, p.Rank)
				}
			}
			if timer && f.Stats().Direct != 10 {
				t.Fatalf("Direct = %d, want the 10 packets first seen overdue", f.Stats().Direct)
			}
		})
	}
}

// TestTimerBypassKeepsFlowOrder is TestMigrateKeepsFlowOrder's scenario on
// the timer front: p1 parks in the cFFS before its release time, p2 of the
// same flow is still in the ring when both are due. Ring-first release (the
// retired DirectDue mode) hands out p2, p1; the due-bypass serves what is
// settled first.
func TestTimerBypassKeepsFlowOrder(t *testing.T) {
	f := NewMultiSharded(MultiShardedOptions{
		ShardedOptions: ShardedOptions{Shards: 1, HorizonNs: 1 << 30},
		Groups:         1,
	})
	pool := pkt.NewPool(2)
	p1, p2 := pool.Get(), pool.Get()
	p1.Flow, p1.Seq, p1.SendAt = 7, 1, 1_000_000
	p2.Flow, p2.Seq, p2.SendAt = 7, 2, 1_200_000
	out := make([]*pkt.Packet, 4)

	f.Enqueue(p1, 0)
	if k := f.GroupDequeueBatch(0, 500_000, out); k != 0 { // nothing due: p1 parks in the cFFS
		t.Fatalf("released %d packets before any release time", k)
	}
	f.Enqueue(p2, 0)
	if k := f.GroupDequeueBatch(0, 2_000_000, out); k != 2 || out[0] != p1 || out[1] != p2 {
		t.Fatalf("released %d packets, seq order %d,%d — want p1 then p2", k, out[0].Seq, out[1].Seq)
	}
}

// TestMigrateKeepsFlowOrder is the deterministic reproduction of the
// shaper→scheduler reorder (benchmark/README.md, finding 1): a packet
// whose ring wait straddles its release time must not overtake its parked
// predecessor of the same flow. The settle pass therefore moves the
// shaper's due packets into the scheduler BEFORE sending already-due ring
// entries straight to it.
func TestMigrateKeepsFlowOrder(t *testing.T) {
	f := NewMultiShaped(MultiShapedOptions{
		ShapedShardedOptions: ShapedShardedOptions{Shards: 1, HorizonNs: 1 << 30},
		Groups:               1,
	})
	pool := pkt.NewPool(2)
	p1, p2 := pool.Get(), pool.Get()
	p1.Flow, p1.Seq, p1.SendAt = 7, 1, 1_000_000
	p2.Flow, p2.Seq, p2.SendAt = 7, 2, 1_200_000
	out := make([]*pkt.Packet, 4)

	f.Enqueue(p1, 0)
	if k := f.GroupDequeueBatch(0, 500_000, out); k != 0 { // nothing due: p1 parks in the shaper
		t.Fatalf("released %d packets before any release time", k)
	}
	f.Enqueue(p2, 0)
	if k := f.GroupDequeueBatch(0, 2_000_000, out); k != 2 || out[0] != p1 || out[1] != p2 {
		t.Fatalf("released %d packets, seq order %d,%d — want p1 then p2", k, out[0].Seq, out[1].Seq)
	}
}

// TestPresetsHonourOptions pins the G>1 presets to everything their
// embedded option structs declare (at the parent commit NewMultiSharded
// dropped ShardBound/Admit/Tenants and NewMultiShaped dropped those and
// the scheduler backend selection).
func TestPresetsHonourOptions(t *testing.T) {
	t.Run("timer bound", func(t *testing.T) {
		const bound, offered = 32, 4000
		f := NewMultiSharded(MultiShardedOptions{
			ShardedOptions: ShardedOptions{Shards: 4, HorizonNs: horizon, ShardBound: bound},
			Groups:         2,
		})
		pool := pkt.NewPool(offered)
		admitted, refused := 0, 0
		for i := 0; i < offered; i++ {
			p := pool.Get()
			p.Flow = uint64(i % 64)
			if f.TryEnqueue(p, 0) {
				admitted++
			} else {
				refused++
			}
		}
		if refused == 0 || admitted > 4*bound {
			t.Fatalf("admitted %d refused %d past a bound of %d per shard", admitted, refused, bound)
		}
		if admitted+refused != offered || f.Admitted() != uint64(admitted) ||
			f.Stats().Rejected != uint64(refused) || f.Len() != admitted {
			t.Fatalf("offered %d != admitted %d (front %d, len %d) + refused %d (runtime %d)",
				offered, admitted, f.Admitted(), f.Len(), refused, f.Stats().Rejected)
		}
	})
	t.Run("shaped backend", func(t *testing.T) {
		opt := ShapedShardedOptions{
			Shards: 4, ShaperBuckets: 2048, HorizonNs: horizon,
			SchedBuckets: 8, RankSpan: 1 << 20,
		}
		f := NewMultiShaped(MultiShapedOptions{ShapedShardedOptions: opt, Groups: 2})
		for _, set := range shapedPackets(2, 3000, 1<<20) {
			for _, p := range set {
				f.Enqueue(p, 0)
			}
		}
		// Everything eligible: within one group's drain the store releases
		// in rank order to its bucket width, so the coarse width the
		// options set shows, and stays within its own bound.
		var n int
		var worst uint64
		for g := 0; g < f.NumGroups(); g++ {
			gn, gw := inversions(drainRanks(func(out []*pkt.Packet) int { return f.GroupDequeueBatch(g, horizon, out) }), 1)
			n, worst = n+gn, max(worst, gw)
		}
		fine := opt
		fine.SchedBuckets = 2048
		if worst <= fine.SchedInversionBound() || worst > opt.SchedInversionBound() {
			t.Fatalf("%d inversions, worst %d: want beyond the fine store's bound %d yet within the coarse bound %d",
				n, worst, fine.SchedInversionBound(), opt.SchedInversionBound())
		}
	})
}
