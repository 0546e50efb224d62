package qdisc

import (
	"math/rand"
	"runtime"
	"testing"

	"eiffel/internal/pkt"
	"eiffel/internal/workload"
)

func newChurnQdisc(t testing.TB, bound, evict int) *PolicySharded {
	t.Helper()
	q, err := NewPolicySharded(PolicyShardedOptions{
		Policy:     PolicySpecPFabric,
		Shards:     8,
		ShardBound: bound,
		Admit:      AdmitDropTail,
		Tenants:    4,
		EvictAfter: evict,
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// release is one observed dequeue for the lockstep oracles below.
type release struct {
	flow uint64
	seq  uint32
}

// churnDrive is one deterministic single-goroutine run of open-world flow
// churn: each cycle, every stream offers one batch from its own
// workload.ChurnGen (a disjoint flow-id space; the stream is the tenant)
// through EnqueueBatchAdmit, refusals go back to the pool, and q drains
// back to a standing backlog of one batch per stream so ordering is
// non-trivial; a final drain empties it. Ranks are pFabric's remaining
// bytes.
type churnDrive struct {
	seed       int64
	streams    int    // generators (0 = 1)
	live       int    // concurrent flows per stream
	idBase     uint64 // offsets every stream's flow-id space
	batch      int    // packets each stream offers per cycle
	cycles     int    // cycles to run, unless flows is set:
	flows      uint64 // run until the streams have started this many flows
	epochEvery int    // advance q's flow epoch every epochEvery cycles (0 = never)
	record     bool   // keep the complete release sequence
	stamp      func(p *pkt.Packet, i int)
}

// churnOutcome is what a churn run observed. misorders counts releases
// whose Seq ran backwards within their flow (a refusal leaves a gap, never
// a swap); lost counts admitted packets never released.
type churnOutcome struct {
	rels                                 []release
	offered, admitted, refused, released uint64
	misorders, lost, flows               uint64
}

// churnFront is what a churn run drives: a one-group Front, or a
// PolicySharded when the run advances its flow epochs.
type churnFront interface {
	EnqueueBatchAdmit(ps []*pkt.Packet, now int64, rej []*pkt.Packet) (int, []*pkt.Packet)
	GroupDequeueBatch(g int, now int64, out []*pkt.Packet) int
	Len() int
}

func (d churnDrive) run(q churnFront) churnOutcome {
	streams := max(d.streams, 1)
	gens := make([]*workload.ChurnGen, streams)
	for w := range gens {
		rng := rand.New(rand.NewSource(d.seed + int64(w)*7919))
		gens[w] = workload.NewChurnGen(rng, d.live, 8, 1.2, d.idBase+uint64(w)+1)
	}
	started := func() (n uint64) {
		for _, g := range gens {
			n += g.CumulativeFlows()
		}
		return n
	}
	// One entry per flow in flight, dropped once the generator has expired
	// the flow and every admitted packet is out, so the map is sized by the
	// live window, not by cumulative flows.
	type track struct {
		floor              uint32 // the next release's Seq must not be below this
		admitted, released uint32
		done               bool // the flow's last packet was offered
	}
	tracks := map[uint64]track{}
	store := func(flow uint64, tr track) {
		if tr.done && tr.released == tr.admitted {
			delete(tracks, flow)
		} else {
			tracks[flow] = tr
		}
	}
	pool := pkt.NewPool(3 * streams * d.batch)
	burst := make([]*pkt.Packet, d.batch)
	rej := make([]*pkt.Packet, 0, d.batch)
	out := make([]*pkt.Packet, 64)
	evicter, _ := q.(interface{ AdvanceFlowEpoch() })
	var o churnOutcome
	drain := func(to int) {
		for q.Len() > to {
			k := q.GroupDequeueBatch(0, 1<<40, out)
			if k == 0 {
				break
			}
			o.released += uint64(k)
			for i, p := range out[:k] {
				if d.record {
					o.rels = append(o.rels, release{p.Flow, p.Seq})
				}
				tr := tracks[p.Flow]
				if p.Seq < tr.floor {
					o.misorders++
				}
				tr.floor, tr.released = p.Seq+1, tr.released+1
				store(p.Flow, tr)
				out[i] = nil
				pool.Put(p)
			}
		}
	}
	for c := 0; d.flows > 0 && started() < d.flows || d.flows == 0 && c < d.cycles; c++ {
		for w, g := range gens {
			for i := range burst {
				flow, seq, remaining := g.Next()
				p := pool.Get()
				p.Flow, p.Seq, p.Size, p.Class = flow, seq, 1500, int32(w)
				p.Rank = uint64(remaining+1) * 1500
				if d.stamp != nil {
					d.stamp(p, (c*streams+w)*d.batch+i)
				}
				burst[i] = p
				tr := tracks[flow]
				tr.admitted++
				tr.done = remaining == 0
				tracks[flow] = tr
			}
			var n int
			n, rej = q.EnqueueBatchAdmit(burst, 0, rej[:0])
			o.offered += uint64(len(burst))
			o.admitted += uint64(n)
			o.refused += uint64(len(rej))
			for _, p := range rej {
				tr := tracks[p.Flow]
				tr.admitted--
				tracks[p.Flow] = tr
			}
			for _, p := range burst { // a flow whose last packets were refused may be over already
				if tr, ok := tracks[p.Flow]; ok {
					store(p.Flow, tr)
				}
			}
			for i, p := range rej {
				rej[i] = nil
				pool.Put(p)
			}
		}
		drain(streams * d.batch)
		if d.epochEvery > 0 && evicter != nil && c%d.epochEvery == 0 {
			evicter.AdvanceFlowEpoch()
		}
	}
	drain(0)
	for _, tr := range tracks {
		o.lost += uint64(tr.admitted - tr.released)
	}
	o.flows = started()
	return o
}

// quiescentHeap returns HeapAlloc after two collections: sync.Pool
// contents (a front's pooled producers, and through them its flow table)
// survive one collection in the victim cache, and a baseline taken over
// that garbage would forgive a real leak of the same size.
func quiescentHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// churnHeapCeiling is how far the quiescent heap of an evicting, bounded
// front may rise over its pre-churn baseline.
const churnHeapCeiling = 64 << 20

// checkChurn asserts what every verified churn run owes: offered ==
// admitted + refused, every admitted packet released once and in its
// flow's order, and an empty front at quiescence.
func checkChurn(t *testing.T, q churnFront, o churnOutcome) {
	t.Helper()
	if o.offered != o.admitted+o.refused || o.released != o.admitted {
		t.Fatalf("accounting: offered %d, admitted %d, refused %d, released %d", o.offered, o.admitted, o.refused, o.released)
	}
	if o.misorders != 0 || o.lost != 0 {
		t.Fatalf("misorders %d lost %d, want 0/0", o.misorders, o.lost)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d at quiescence, want 0", q.Len())
	}
}

// TestChurnReplayQuiescence runs churn once with the bound and eviction
// armed and checks exact accounting, exact per-flow order among admitted
// packets, no lost packets, and an empty qdisc at quiescence — with both
// the bound and the evictor actually exercised, and the qdisc's own
// admission block (aggregate and per tenant) agreeing with the driver.
func TestChurnReplayQuiescence(t *testing.T) {
	q := newChurnQdisc(t, 384, 2)
	base := quiescentHeap()
	o := churnDrive{seed: 3, streams: 4, live: 1024, batch: 256, flows: 30_000, epochEvery: 4}.run(q)
	checkChurn(t, q, o)
	if o.refused == 0 {
		t.Fatal("bound never triggered; the test exercised nothing")
	}
	if _, _, evicted := q.FlowStats(); evicted == 0 {
		t.Fatal("eviction never fired; the test exercised nothing")
	}
	adm := q.Admission()
	if adm.Offered() != o.offered || adm.Admitted() != o.admitted || adm.Dropped() != o.refused {
		t.Fatalf("qdisc admission block %d/%d/%d disagrees with the driver's %d/%d/%d",
			adm.Offered(), adm.Admitted(), adm.Dropped(), o.offered, o.admitted, o.refused)
	}
	var tenantDrops uint64
	for w := int32(0); w < 4; w++ {
		tenantDrops += adm.TenantDrops(w)
	}
	if tenantDrops != o.refused {
		t.Fatalf("per-tenant drop buckets sum to %d, want %d", tenantDrops, o.refused)
	}
	if heap := quiescentHeap(); heap > base+churnHeapCeiling {
		t.Fatalf("quiescent heap %d exceeds its base %d by more than %d", heap, base, churnHeapCeiling)
	}
	t.Logf("%d flows: offered %d, refused %d", o.flows, o.offered, o.refused)
}

// TestChurnStressMillionFlows is the survival test: one qdisc instance
// survives over a million cumulative short-lived flows, driven in cycles
// with fresh id spaces, per-flow order exact throughout, Len == 0 after
// every cycle, and the quiescent heap under the ceiling after every cycle
// and flat across them (the paper's kernel-FQ indictment is exactly that
// it is not).
func TestChurnStressMillionFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("million-flow churn stress skipped in -short mode")
	}
	q := newChurnQdisc(t, 384, 2)
	const cycles = 5
	const perCycle = 220_000 // 5 cycles x 220k = 1.1M cumulative flows
	base := quiescentHeap()
	var cum uint64
	heaps := make([]uint64, 0, cycles)
	for c := 0; c < cycles; c++ {
		o := churnDrive{
			seed: int64(100 + c), streams: 4, live: 1024, batch: 256,
			idBase: uint64(c * 16), // fresh flow-id space per cycle
			flows:  perCycle, epochEvery: 4,
		}.run(q)
		checkChurn(t, q, o)
		cum += o.flows
		heaps = append(heaps, quiescentHeap())
		if heaps[c] > base+churnHeapCeiling {
			t.Fatalf("cycle %d: quiescent heap %d exceeds its base %d by more than %d", c, heaps[c], base, churnHeapCeiling)
		}
	}
	if cum < 1_000_000 {
		t.Fatalf("cumulative flows = %d, want >= 1M", cum)
	}
	// Flat heap across cycles: the quiescent heap after the last cycle may
	// not exceed the first cycle's by more than a small slack — if retained
	// flow state grew with cumulative flows, it would show up here.
	const slack = 8 << 20
	if heaps[len(heaps)-1] > heaps[0]+slack {
		t.Fatalf("quiescent heap grew across cycles: %d -> %d (slack %d); flow state is leaking",
			heaps[0], heaps[len(heaps)-1], uint64(slack))
	}
	t.Logf("%d cumulative flows; quiescent heap %d before, %d after the first cycle, %d after the last",
		cum, base, heaps[0], heaps[len(heaps)-1])
}

// TestChurnEvictionOrderOracle is the eviction property test: aggressive
// idle-flow eviction with readmission must be invisible to dequeue order —
// the COMPLETE release sequence (cross-shard merge included) must be
// byte-identical to a no-eviction oracle fed the same traffic, which also
// proves no admitted packet is ever lost to a reclaimed slot.
func TestChurnEvictionOrderOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		oracle := newChurnQdisc(t, 0, 0) // retain-forever reference
		evict := newChurnQdisc(t, 0, 1)  // reclaim after a single idle epoch
		run := churnDrive{seed: seed, live: 256, batch: 256, cycles: 200, epochEvery: 1, record: true}
		ref, ev := run.run(oracle), run.run(evict)
		if ref.refused != 0 || ev.refused != 0 {
			t.Fatalf("seed %d: unbounded runs refused %d/%d packets", seed, ref.refused, ev.refused)
		}
		_, _, evicted := evict.FlowStats()
		if evicted == 0 {
			t.Fatalf("seed %d: eviction never fired; oracle proves nothing", seed)
		}
		want, got := ref.rels, ev.rels
		if len(got) != len(want) {
			t.Fatalf("seed %d: released %d packets with eviction, oracle released %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: release %d diverges: evicting %+v, oracle %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestChurnAdmitPushbackEquivalence is the admission property test: a
// bound so large it never triggers must be indistinguishable from bound 0
// (the legacy unbounded spill) — byte-identical release sequences on
// deterministic single-threaded runs — across all three bounded-admission
// runtimes.
func TestChurnAdmitPushbackEquivalence(t *testing.T) {
	const hugeBound = 1 << 30
	cases := []struct {
		name  string
		mk    func(bound int) churnFront
		stamp func(p *pkt.Packet, i int)
	}{
		{
			name: "sharded",
			mk: func(bound int) churnFront {
				return NewMultiSharded(MultiShardedOptions{ShardedOptions: ShardedOptions{
					Shards: 8, HorizonNs: 1 << 30, RingBits: 10, ShardBound: bound,
				}})
			},
			// Timer runtime: release times inside the horizon, all due by
			// the drain clock.
			stamp: func(p *pkt.Packet, i int) { p.SendAt = int64(i % 4096) },
		},
		{
			name: "shaped-sharded",
			mk: func(bound int) churnFront {
				return NewMultiShaped(MultiShapedOptions{ShapedShardedOptions: ShapedShardedOptions{
					Shards: 8, HorizonNs: 1 << 30, RingBits: 10, ShardBound: bound,
				}})
			},
			stamp: func(p *pkt.Packet, i int) { p.SendAt = int64(i % 4096) },
		},
		{
			name: "policy-sharded",
			mk: func(bound int) churnFront {
				q, err := NewPolicySharded(PolicyShardedOptions{
					Policy: PolicySpecPFabric, Shards: 8, ShardBound: bound, EvictAfter: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				return q
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := churnDrive{seed: 9, live: 256, batch: 256, cycles: 120, epochEvery: 4, record: true, stamp: c.stamp}
			unbounded, bounded := run.run(c.mk(0)), run.run(c.mk(hugeBound))
			if unbounded.refused != 0 || bounded.refused != 0 {
				t.Fatalf("refused %d/%d packets on never-triggering bounds", unbounded.refused, bounded.refused)
			}
			want, got := unbounded.rels, bounded.rels
			if len(got) != len(want) {
				t.Fatalf("bounded released %d packets, unbounded %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("release %d diverges: bounded %+v, unbounded %+v", i, got[i], want[i])
				}
			}
		})
	}
}
