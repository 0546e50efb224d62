package qdisc_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"eiffel/internal/pkt"
	"eiffel/internal/qdisc"
)

// The equivalence suites run the canonical programs the benchmark and
// examples run, so what ships is what is proven order-exact.
const (
	pfabricSpec = qdisc.PolicySpecPFabric
	lqfSpec     = qdisc.PolicySpecLQF
)

// policyWorkload builds a deterministic random replay: packets of nFlows
// flows in a shuffled global order, each flow's packets carrying pFabric-
// style decreasing remaining-size ranks and FIFO-consistent IDs.
func policyWorkload(t testing.TB, rng *rand.Rand, nFlows, perFlow int) []*pkt.Packet {
	t.Helper()
	pool := pkt.NewPool(nFlows * perFlow)
	order := make([]uint64, 0, nFlows*perFlow)
	for f := 0; f < nFlows; f++ {
		for j := 0; j < perFlow; j++ {
			order = append(order, uint64(f))
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	sent := make([]int, nFlows)
	ps := make([]*pkt.Packet, len(order))
	for i, f := range order {
		p := pool.Get()
		p.Flow = f
		p.Size = 1500
		p.Class = int32(f % 2)
		p.Rank = uint64(perFlow-sent[f]) * 1500 // remaining bytes, decreasing
		sent[f]++
		ps[i] = p
	}
	return ps
}

// drainIDsByFlow pops at now 0 until pop returns nil and returns each
// flow's dequeue sequence of packet IDs; it must release exactly total
// packets.
func drainIDsByFlow(t *testing.T, pop func(now int64) *pkt.Packet, total int) map[uint64][]uint64 {
	t.Helper()
	got := map[uint64][]uint64{}
	released := 0
	for p := pop(0); p != nil; p = pop(0) {
		got[p.Flow] = append(got[p.Flow], p.ID)
		released++
	}
	if released != total {
		t.Fatalf("released %d of %d packets", released, total)
	}
	return got
}

// popOne pops f's group 0 one packet a call.
func popOne(f *qdisc.Front) func(now int64) *pkt.Packet {
	var one [1]*pkt.Packet
	return func(now int64) *pkt.Packet {
		if f.GroupDequeueBatch(0, now, one[:]) == 0 {
			return nil
		}
		return one[0]
	}
}

// TestPolicyShardedFlowOrderMatchesLockedTree is the flow-local exactness
// property: under the same replay, PolicySharded's per-flow dequeue order
// is identical to the single locked pifo.Tree's, for every program —
// per-flow ranking and on-dequeue transactions run shard-confined, and a
// flow never spans shards, so sharding cannot reorder a flow. The last case
// splits the replay over eight concurrent producers with disjoint flows,
// admitting through EnqueueBatch, so per-flow order must also survive their
// interleaving and the batched ring claims.
func TestPolicyShardedFlowOrderMatchesLockedTree(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec string
	}{
		{"pfabric", pfabricSpec},
		{"lqf", lqfSpec},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// check replays ps into the locked tree sequentially and into a
			// fresh PolicySharded through publish, then compares every flow.
			check := func(label string, ps []*pkt.Packet, publish func(sh *qdisc.PolicySharded)) {
				t.Helper()
				tree, err := qdisc.NewPolicyTree(tc.spec, "")
				if err != nil {
					t.Fatalf("NewPolicyTree: %v", err)
				}
				for _, p := range ps {
					tree.Enqueue(p, 0)
				}
				want := drainIDsByFlow(t, tree.Dequeue, len(ps))

				sh, err := qdisc.NewPolicySharded(qdisc.PolicyShardedOptions{
					Policy: tc.spec, Shards: 8,
				})
				if err != nil {
					t.Fatalf("NewPolicySharded: %v", err)
				}
				publish(sh)
				got := drainIDsByFlow(t, popOne(sh.Front), len(ps))

				if len(got) != len(want) {
					t.Fatalf("%s: flow sets differ: %d vs %d", label, len(got), len(want))
				}
				for f, ids := range want {
					g := got[f]
					if len(g) != len(ids) {
						t.Fatalf("%s: flow %d released %d packets, want %d", label, f, len(g), len(ids))
					}
					for i := range ids {
						if g[i] != ids[i] {
							t.Fatalf("%s: flow %d position %d: packet %d, want %d",
								label, f, i, g[i], ids[i])
						}
					}
				}
			}

			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 5; trial++ {
				nFlows := 2 + rng.Intn(40)
				perFlow := 1 + rng.Intn(30)
				ps := policyWorkload(t, rng, nFlows, perFlow)
				check(fmt.Sprintf("trial %d", trial), ps, func(sh *qdisc.PolicySharded) {
					for _, p := range ps {
						sh.Enqueue(p, 0)
					}
				})
			}

			const producers, run = 8, 64
			ps := policyWorkload(t, rng, 256, 40)
			check("concurrent batched", ps, func(sh *qdisc.PolicySharded) {
				sets := make([][]*pkt.Packet, producers)
				for _, p := range ps {
					sets[p.Flow%producers] = append(sets[p.Flow%producers], p)
				}
				var wg sync.WaitGroup
				for _, set := range sets {
					wg.Add(1)
					go func(set []*pkt.Packet) {
						defer wg.Done()
						for i := 0; i < len(set); i += run {
							sh.EnqueueBatch(set[i:min(i+run, len(set))], 0)
						}
					}(set)
				}
				wg.Wait()
			})
		})
	}
}

// TestPolicyShardedWFQShareError bounds the fairness error of the
// hierarchical WFQ program on the locked tree: with both classes
// continuously backlogged, serving half the backlog must split 3:1 within
// 0.05. The sharded form of the same 3:1 hierarchy is HierSharded's, and
// TestHierShardedShareError bounds it.
func TestPolicyShardedWFQShareError(t *testing.T) {
	const (
		flowsPerClass = 64
		perFlow       = 50
		wantGold      = 0.75 // weight 3 of 4
	)
	rng := rand.New(rand.NewSource(11))
	ps := policyWorkload(t, rng, 2*flowsPerClass, perFlow) // Class = flow%2

	q, err := qdisc.NewPolicyTree(qdisc.PolicySpecHWFQ, "")
	if err != nil {
		t.Fatalf("NewPolicyTree: %v", err)
	}
	for _, p := range ps {
		q.Enqueue(p, 0)
	}
	var gold, total int
	for total < len(ps)/2 {
		p := q.Dequeue(0)
		if p == nil {
			t.Fatalf("%s stalled after %d packets", q.Name(), total)
		}
		if p.Class == 0 {
			gold++
		}
		total++
	}
	if e := math.Abs(float64(gold)/float64(total) - wantGold); e > 0.05 {
		t.Fatalf("locked tree WFQ share error %.3f > 0.05", e)
	}
}

// TestNewPolicyShardedErrors covers the construction error surface: bad
// programs fail loudly, not at first packet, and every program but one
// packet-free flow leaf under the root is refused with a pointer to where
// it runs instead. The four packet-free flow policies build.
func TestNewPolicyShardedErrors(t *testing.T) {
	const refused = "run class hierarchies on HierSharded, or the program single-threaded on PolicyTree"
	cases := []struct {
		name string
		spec string
		want []string
	}{
		{"empty program", "", []string{"no root"}},
		{"bad grammar", "root ranker=nope", []string{"unknown child ranker"}},
		{"no leaf", "root ranker=wfq", []string{"no leaf"}},
		{"hierarchy", qdisc.PolicySpecHWFQ, []string{"class hierarchy", refused}},
		{"rate-limited leaf", `
root ranker=strict
leaf pf parent=root kind=flow policy=pfabric rate=10M
`, []string{"rate-limited", refused}},
		{"packet leaf", `
root ranker=strict
leaf edf parent=root kind=packet ranker=edf
`, []string{`leaf "edf" is not a packet-free flow leaf on a cffs queue`, refused}},
		{"heap flow leaf", `
root ranker=strict
leaf pf parent=root kind=flow policy=pfabric queue=heap
`, []string{`leaf "pf" is not a packet-free flow leaf on a cffs queue`, refused}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := qdisc.NewPolicySharded(qdisc.PolicyShardedOptions{Policy: tc.spec})
			if err == nil {
				t.Fatalf("NewPolicySharded succeeded (%v), want an error", q)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error %q does not mention %q", err, w)
				}
			}
		})
	}
	for _, pol := range []string{"pfabric", "lqf", "sqf", "fifo"} {
		spec := "root ranker=strict\nleaf f parent=root kind=flow policy=" + pol
		if _, err := qdisc.NewPolicySharded(qdisc.PolicyShardedOptions{Policy: spec}); err != nil {
			t.Fatalf("policy=%s: %v", pol, err)
		}
	}
}

// TestNewPolicyTreeLeafSelection covers the leaf pin only the
// single-tree form takes: an unknown or internal class fails at
// construction, and a tree pinned to a named leaf serves every packet.
func TestNewPolicyTreeLeafSelection(t *testing.T) {
	for _, tc := range []struct{ leaf, want string }{
		{"missing", "no class"},
		{"gold", "not a leaf"},
	} {
		if _, err := qdisc.NewPolicyTree(qdisc.PolicySpecHWFQ, tc.leaf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("leaf %q: error %v, want one mentioning %q", tc.leaf, err, tc.want)
		}
	}
	q, err := qdisc.NewPolicyTree(qdisc.PolicySpecHWFQ, "gold0")
	if err != nil {
		t.Fatalf("explicit leaf: %v", err)
	}
	ps := policyWorkload(t, rand.New(rand.NewSource(3)), 8, 4)
	for _, p := range ps {
		q.Enqueue(p, 0)
	}
	drainIDsByFlow(t, q.Dequeue, len(ps))
}

// TestPolicyShardedClockAdvanceConcurrent began as the regression test
// for a data race between the consumer's clock propagation and producers
// flushing into the same backend under the shard mutex. The policy backend
// has no clock now, but the test still drives what that race rode on:
// tiny rings force producers onto the ring-full fallback flush while the
// consumer drains the same shards with a moving clock, and the race
// detector (CI's -race job runs this package) fails on any
// unsynchronized touch of the flow leaves.
func TestPolicyShardedClockAdvanceConcurrent(t *testing.T) {
	const (
		producers = 4
		perProd   = 2000
	)
	sh, err := qdisc.NewPolicySharded(qdisc.PolicyShardedOptions{
		Policy: pfabricSpec, Shards: 2, RingBits: 4,
	})
	if err != nil {
		t.Fatalf("NewPolicySharded: %v", err)
	}
	pool := pkt.NewPool(producers * perProd)
	sets := make([][]*pkt.Packet, producers)
	for w := range sets {
		set := make([]*pkt.Packet, perProd)
		for i := range set {
			p := pool.Get()
			p.Flow = uint64(w*64 + i%64)
			p.Rank = uint64((perProd - i) * 100)
			set[i] = p
		}
		sets[w] = set
	}

	var wg sync.WaitGroup
	for w := range sets {
		wg.Add(1)
		go func(set []*pkt.Packet) {
			defer wg.Done()
			for _, p := range set {
				sh.Enqueue(p, 0)
			}
		}(sets[w])
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	released, now := 0, int64(0)
	out := make([]*pkt.Packet, 64)
	for released < producers*perProd {
		now++ // a moving clock, as a serving worker's
		released += sh.GroupDequeueBatch(0, now, out)
		if _, ok := sh.GroupNextTimer(0, now); !ok {
			select {
			case <-done:
				if sh.Len() == 0 && released < producers*perProd {
					t.Fatalf("lost packets: %d of %d", released, producers*perProd)
				}
			default:
			}
		}
	}
}
