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

// TestChurnReplayQuiescence runs the churn harness once with the bound and
// eviction armed and checks every invariant the harness reports: exact
// accounting, exact per-flow order among admitted packets, no lost packets,
// and an empty qdisc at quiescence — with both the bound and the evictor
// actually exercised.
func TestChurnReplayQuiescence(t *testing.T) {
	q := newChurnQdisc(t, 384, 2)
	r := ReplayChurn(q, ChurnOptions{
		Flows: 30_000, EpochEvery: 4, Seed: 3, VerifyOrder: true, HeapCeiling: 64 << 20,
	})
	if r.Offered != r.Admitted+r.Dropped {
		t.Fatalf("accounting: offered %d != admitted %d + dropped %d", r.Offered, r.Admitted, r.Dropped)
	}
	if r.Released != r.Admitted {
		t.Fatalf("released %d != admitted %d", r.Released, r.Admitted)
	}
	if r.Misorders != 0 || r.Lost != 0 {
		t.Fatalf("misorders %d lost %d, want 0/0", r.Misorders, r.Lost)
	}
	if r.LenEnd != 0 {
		t.Fatalf("LenEnd = %d at quiescence, want 0", r.LenEnd)
	}
	if r.Dropped == 0 {
		t.Fatal("bound never triggered; the test exercised nothing")
	}
	if r.Evicted == 0 {
		t.Fatal("eviction never fired; the test exercised nothing")
	}
	if r.CeilingExceeded {
		t.Fatalf("heap ceiling exceeded: peak %d base %d", r.PeakHeap, r.BaseHeap)
	}
	adm := q.Admission()
	if adm.Offered() != r.Offered || adm.Admitted() != r.Admitted || adm.Dropped() != r.Dropped {
		t.Fatalf("qdisc admission block %d/%d/%d disagrees with harness %d/%d/%d",
			adm.Offered(), adm.Admitted(), adm.Dropped(), r.Offered, r.Admitted, r.Dropped)
	}
	var tenantDrops uint64
	for w := int32(0); w < 4; w++ {
		tenantDrops += adm.TenantDrops(w)
	}
	if tenantDrops != r.Dropped {
		t.Fatalf("per-tenant drop buckets sum to %d, want %d", tenantDrops, r.Dropped)
	}
}

// TestChurnStressMillionFlows is the survival satellite: one qdisc
// instance survives over a million cumulative short-lived flows, replayed
// in cycles with fresh id spaces, with the quiescent heap flat across
// cycles (the paper's kernel-FQ indictment is exactly that it is not),
// per-flow order exact throughout, and Len == 0 after every cycle.
func TestChurnStressMillionFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("million-flow churn stress skipped in -short mode")
	}
	q := newChurnQdisc(t, 384, 2)
	const cycles = 5
	const perCycle = 220_000 // 5 cycles x 220k = 1.1M cumulative flows
	var cum uint64
	var ms runtime.MemStats
	heaps := make([]uint64, 0, cycles)
	for c := 0; c < cycles; c++ {
		r := ReplayChurn(q, ChurnOptions{
			Flows:       perCycle,
			EpochEvery:  4,
			Seed:        int64(100 + c),
			IDBase:      uint64(c * 16), // fresh flow-id space per cycle
			VerifyOrder: true,
			HeapCeiling: 64 << 20,
		})
		if r.Offered != r.Admitted+r.Dropped || r.Released != r.Admitted {
			t.Fatalf("cycle %d: accounting %d/%d/%d released %d", c, r.Offered, r.Admitted, r.Dropped, r.Released)
		}
		if r.Misorders != 0 || r.Lost != 0 {
			t.Fatalf("cycle %d: misorders %d lost %d", c, r.Misorders, r.Lost)
		}
		if r.LenEnd != 0 || q.Len() != 0 {
			t.Fatalf("cycle %d: qdisc not empty at quiescence (LenEnd %d, Len %d)", c, r.LenEnd, q.Len())
		}
		if r.CeilingExceeded {
			t.Fatalf("cycle %d: heap ceiling exceeded (peak %d base %d)", c, r.PeakHeap, r.BaseHeap)
		}
		cum += r.CumulativeFlows
		runtime.GC()
		runtime.GC() // second pass flushes sync.Pool victim caches
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, ms.HeapAlloc)
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
}

// release is one observed dequeue for the lockstep oracles below.
type release struct {
	flow uint64
	seq  uint32
}

// churnReleases drives deterministic single-goroutine churn bursts through
// q via the bounded-admission surface and returns the complete release
// sequence. refused reports how many packets came back; epochEvery > 0
// advances the flow epoch on that burst cadence when q supports it.
func churnReleases(t *testing.T, q AdmitQdisc, seed int64, bursts, batch, epochEvery int,
	stamp func(p *pkt.Packet, i int)) (rels []release, refused int) {
	t.Helper()
	g := workload.NewChurnGen(rand.New(rand.NewSource(seed)), 256, 8, 1.2, 1)
	pool := pkt.NewPool(4 * batch)
	burst := make([]*pkt.Packet, batch)
	rej := make([]*pkt.Packet, 0, batch)
	out := make([]*pkt.Packet, 64)
	evicter, _ := q.(FlowEvicter)
	drain := func(to int) {
		for q.Len() > to {
			k := q.DequeueBatch(1<<40, out)
			if k == 0 {
				break
			}
			for i := 0; i < k; i++ {
				rels = append(rels, release{out[i].Flow, out[i].Seq})
				pool.Put(out[i])
				out[i] = nil
			}
		}
	}
	for b := 0; b < bursts; b++ {
		for i := range burst {
			flow, seq, remaining := g.Next()
			p := pool.Get()
			p.Flow, p.Seq, p.Size = flow, seq, 1500
			p.Rank = uint64(remaining+1) * 1500
			if stamp != nil {
				stamp(p, b*batch+i)
			}
			burst[i] = p
		}
		var r []*pkt.Packet
		_, r = q.EnqueueBatchAdmit(burst, 0, rej[:0])
		refused += len(r)
		for i, p := range r {
			r[i] = nil
			pool.Put(p)
		}
		drain(batch) // keep a standing backlog so ordering is non-trivial
		if epochEvery > 0 && evicter != nil && b%epochEvery == 0 {
			evicter.AdvanceFlowEpoch()
		}
	}
	drain(0)
	return rels, refused
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
		want, wrefused := churnReleases(t, oracle, seed, 200, 256, 1, nil)
		got, grefused := churnReleases(t, evict, seed, 200, 256, 1, nil)
		if wrefused != 0 || grefused != 0 {
			t.Fatalf("seed %d: unbounded runs refused %d/%d packets", seed, wrefused, grefused)
		}
		_, _, evicted := evict.FlowStats()
		if evicted == 0 {
			t.Fatalf("seed %d: eviction never fired; oracle proves nothing", seed)
		}
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
		mk    func(bound int) AdmitQdisc
		stamp func(p *pkt.Packet, i int)
	}{
		{
			name: "sharded",
			mk: func(bound int) AdmitQdisc {
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
			mk: func(bound int) AdmitQdisc {
				return NewMultiShaped(MultiShapedOptions{ShapedShardedOptions: ShapedShardedOptions{
					Shards: 8, HorizonNs: 1 << 30, RingBits: 10, ShardBound: bound,
				}})
			},
			stamp: func(p *pkt.Packet, i int) { p.SendAt = int64(i % 4096) },
		},
		{
			name: "policy-sharded",
			mk: func(bound int) AdmitQdisc {
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
			want, wrefused := churnReleases(t, c.mk(0), 9, 120, 256, 4, c.stamp)
			got, grefused := churnReleases(t, c.mk(hugeBound), 9, 120, 256, 4, c.stamp)
			if wrefused != 0 || grefused != 0 {
				t.Fatalf("refused %d/%d packets on never-triggering bounds", wrefused, grefused)
			}
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
