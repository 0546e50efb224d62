package policy_test

import (
	"math/rand"
	"testing"

	"eiffel/internal/pifo"
	"eiffel/internal/pkt"
	"eiffel/internal/policy"
	"eiffel/internal/queue"
)

func smallQ() queue.Config { return queue.Config{NumBuckets: 1 << 12, Granularity: 1} }

func tree(root pifo.ChildRanker) *pifo.Tree {
	return pifo.NewTree(pifo.TreeOptions{RootRanker: root, RootQueue: smallQ()})
}

func drainFlows(t *pifo.Tree) []uint64 {
	var got []uint64
	for {
		p := t.Dequeue(0)
		if p == nil {
			return got
		}
		got = append(got, p.Flow)
	}
}

func mk(pool *pkt.Pool, flow uint64, size uint32) *pkt.Packet {
	p := pool.Get()
	p.Flow = flow
	p.Size = size
	return p
}

func TestEDFRankIsDeadline(t *testing.T) {
	p := &pkt.Packet{Deadline: 12345}
	if got := (policy.EDF{}).Rank(p, 0); got != 12345 {
		t.Fatalf("EDF rank = %d", got)
	}
}

func TestStrictPacketRankIsClass(t *testing.T) {
	p := &pkt.Packet{Class: 5}
	if got := (policy.StrictPacket{}).Rank(p, 0); got != 5 {
		t.Fatalf("rank = %d", got)
	}
}

func TestFIFOMonotone(t *testing.T) {
	f := &policy.FIFO{}
	last := uint64(0)
	for i := 0; i < 100; i++ {
		r := f.Rank(nil, 0)
		if r <= last {
			t.Fatal("FIFO ranks must increase")
		}
		last = r
	}
}

func TestLSTFSlack(t *testing.T) {
	l := policy.LSTF{LinkBps: 1e9}
	p := &pkt.Packet{Size: 1250, Deadline: 100_000} // tx = 10us
	// slack at now=0: 100us - 0 - 10us = 90us.
	if got := l.Rank(p, 0); got != 90_000 {
		t.Fatalf("slack = %d, want 90000", got)
	}
	// Past-deadline packets clamp at zero (most urgent).
	if got := l.Rank(p, 200_000); got != 0 {
		t.Fatalf("negative slack should clamp, got %d", got)
	}
}

func TestRankAnnotation(t *testing.T) {
	p := &pkt.Packet{Rank: 999}
	if got := (policy.RankAnnotation{}).Rank(p, 0); got != 999 {
		t.Fatalf("rank = %d", got)
	}
}

func TestStrictChildPreemption(t *testing.T) {
	tr := tree(policy.StrictChild{})
	hi := tr.NewPacketLeaf(nil, &policy.FIFO{}, pifo.ClassOptions{Name: "hi", Priority: 0, Queue: smallQ()})
	lo := tr.NewPacketLeaf(nil, &policy.FIFO{}, pifo.ClassOptions{Name: "lo", Priority: 9, Queue: smallQ()})
	pool := pkt.NewPool(16)
	tr.Enqueue(lo, mk(pool, 2, 100), 0)
	tr.Enqueue(hi, mk(pool, 1, 100), 0)
	tr.Enqueue(lo, mk(pool, 2, 100), 0)
	got := drainFlows(tr)
	if got[0] != 1 {
		t.Fatalf("order %v: high priority must come first", got)
	}
}

func TestRRChildAlternates(t *testing.T) {
	tr := tree(&policy.RRChild{})
	a := tr.NewPacketLeaf(nil, &policy.FIFO{}, pifo.ClassOptions{Name: "a", Queue: smallQ()})
	b := tr.NewPacketLeaf(nil, &policy.FIFO{}, pifo.ClassOptions{Name: "b", Queue: smallQ()})
	pool := pkt.NewPool(32)
	for i := 0; i < 4; i++ {
		tr.Enqueue(a, mk(pool, 1, 100), 0)
		tr.Enqueue(b, mk(pool, 2, 100), 0)
	}
	got := drainFlows(tr)
	// Strict alternation after the first service.
	for i := 2; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Fatalf("round robin broke: %v", got)
		}
	}
}

func TestSQFServesShortest(t *testing.T) {
	tr := tree(policy.WFQ{})
	leaf := tr.NewFlowLeaf(nil, policy.SQF{}, pifo.ClassOptions{Name: "sqf", Queue: smallQ()})
	pool := pkt.NewPool(32)
	for i := 0; i < 5; i++ {
		tr.Enqueue(leaf, mk(pool, 1, 100), 0)
	}
	tr.Enqueue(leaf, mk(pool, 2, 100), 0)
	got := drainFlows(tr)
	if got[0] != 2 {
		t.Fatalf("SQF should serve the shortest flow first: %v", got)
	}
}

func TestFlowFIFOOrdersByFirstArrival(t *testing.T) {
	tr := tree(policy.WFQ{})
	leaf := tr.NewFlowLeaf(nil, &policy.FlowFIFO{}, pifo.ClassOptions{Name: "ff", Queue: smallQ()})
	pool := pkt.NewPool(32)
	tr.Enqueue(leaf, mk(pool, 1, 100), 0)
	tr.Enqueue(leaf, mk(pool, 2, 100), 0)
	tr.Enqueue(leaf, mk(pool, 1, 100), 0) // more of flow 1: still behind flow 1's slot
	got := drainFlows(tr)
	want := []uint64{1, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestPFabricRankFollowsRemaining(t *testing.T) {
	tr := tree(policy.WFQ{})
	leaf := tr.NewFlowLeaf(nil, policy.PFabric{}, pifo.ClassOptions{Name: "pf", Queue: queue.Config{NumBuckets: 1 << 14, Granularity: 1}})
	pool := pkt.NewPool(32)
	// Flow 1 shrinking remaining: 5000, 4000, 3000.
	for _, r := range []uint64{5000, 4000, 3000} {
		p := mk(pool, 1, 1000)
		p.Rank = r
		tr.Enqueue(leaf, p, 0)
	}
	// Flow 2 with remaining 3500. Figure 14 on-dequeue semantics: after
	// flow 1's rank-3000 head departs, its rank becomes
	// min(p.rank=5000, front.rank=4000) = 4000 — so flow 2 (3500) takes
	// the next slot, then flow 1 drains.
	p := mk(pool, 2, 1000)
	p.Rank = 3500
	tr.Enqueue(leaf, p, 0)
	got := drainFlows(tr)
	want := []uint64{1, 2, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestLQFMaxLenClamp(t *testing.T) {
	l := policy.LQF{MaxLen: 4}
	tr := tree(policy.WFQ{})
	leaf := tr.NewFlowLeaf(nil, l, pifo.ClassOptions{Name: "lqf", Queue: smallQ()})
	pool := pkt.NewPool(32)
	for i := 0; i < 8; i++ { // longer than MaxLen: rank clamps at 0
		tr.Enqueue(leaf, mk(pool, 1, 100), 0)
	}
	tr.Enqueue(leaf, mk(pool, 2, 100), 0)
	got := drainFlows(tr)
	if got[0] != 1 {
		t.Fatalf("longest flow must still win: %v", got)
	}
	if len(got) != 9 {
		t.Fatalf("drained %d packets", len(got))
	}
}

func TestWFQZeroWeightDefaultsSafely(t *testing.T) {
	tr := tree(policy.WFQ{})
	// Weight 0 in options defaults to 1 inside the tree; the ranker must
	// not divide by zero.
	leaf := tr.NewPacketLeaf(nil, &policy.FIFO{}, pifo.ClassOptions{Name: "w0", Queue: smallQ()})
	pool := pkt.NewPool(8)
	tr.Enqueue(leaf, mk(pool, 1, 1500), 0)
	if p := tr.Dequeue(0); p == nil {
		t.Fatal("packet lost")
	}
}

// twinPolicy runs every transaction the tree asks of a flow in both forms
// from the same flow state: the FlowPolicy form at an arbitrary clock,
// then, with the flow's registers put back, the RankFlowPolicy form on the
// rank annotations alone. The two must return the same rank and leave the
// same registers; the FlowPolicy form's answer is the one the tree keeps.
type twinPolicy struct {
	t     *testing.T
	rng   *rand.Rand
	pol   pifo.FlowPolicy
	rpol  pifo.RankFlowPolicy
	calls int
}

type flowRegs struct{ rank, u0, u1 uint64 }

func regsOf(f *pifo.Flow) flowRegs     { return flowRegs{f.Rank, f.U0, f.U1} }
func setRegs(f *pifo.Flow, r flowRegs) { f.Rank, f.U0, f.U1 = r.rank, r.u0, r.u1 }

func (w *twinPolicy) check(op string, f *pifo.Flow, want, got uint64, wantRegs flowRegs) {
	w.t.Helper()
	w.calls++
	if got != want || regsOf(f) != wantRegs {
		w.t.Fatalf("%s #%d (len %d): rank form %d %+v, flow form %d %+v",
			op, w.calls, f.Len(), got, regsOf(f), want, wantRegs)
	}
}

func (w *twinPolicy) OnEnqueue(f *pifo.Flow, p *pkt.Packet, _ int64) uint64 {
	in := regsOf(f)
	want := w.pol.OnEnqueue(f, p, w.rng.Int63())
	out := regsOf(f)
	setRegs(f, in)
	w.check("enqueue", f, want, w.rpol.OnEnqueueRank(f, p.Rank), out)
	return want
}

func (w *twinPolicy) OnDequeue(f *pifo.Flow, p *pkt.Packet, _ int64) uint64 {
	var front uint64
	if f.Len() > 0 {
		front = f.Front().Rank
	}
	in := regsOf(f)
	want := w.pol.OnDequeue(f, p, w.rng.Int63())
	out := regsOf(f)
	setRegs(f, in)
	w.check("dequeue", f, want, w.rpol.OnDequeueRank(f, p.Rank, front), out)
	return want
}

// TestRankFlowPolicyMatchesFlowPolicy is why the packet-free form may drop
// the clock: on random enqueue/dequeue runs of one flow, every packet-free
// policy's RankFlowPolicy transactions return exactly what its FlowPolicy
// transactions return at any clock.
func TestRankFlowPolicyMatchesFlowPolicy(t *testing.T) {
	cases := []struct {
		name string
		mk   func() pifo.FlowPolicy
	}{
		{"pfabric", func() pifo.FlowPolicy { return policy.PFabric{} }},
		{"lqf", func() pifo.FlowPolicy { return policy.LQF{MaxLen: 16} }},
		{"sqf", func() pifo.FlowPolicy { return policy.SQF{} }},
		{"flow-fifo", func() pifo.FlowPolicy { return &policy.FlowFIFO{} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			// Two instances kept in lockstep: FlowFIFO carries state of
			// its own, and each form must see only its own calls.
			w := &twinPolicy{t: t, rng: rng, pol: c.mk(), rpol: c.mk().(pifo.RankFlowPolicy)}
			tr := tree(policy.WFQ{})
			leaf := tr.NewFlowLeaf(nil, w, pifo.ClassOptions{Name: c.name, Queue: smallQ()})
			pool := pkt.NewPool(64)
			queued := 0
			for i := 0; i < 4000; i++ {
				if queued < 64 && (queued == 0 || rng.Intn(2) == 0) {
					p := mk(pool, 1, 100)
					p.Rank = uint64(rng.Intn(10000))
					tr.Enqueue(leaf, p, rng.Int63())
					queued++
					continue
				}
				p := tr.Dequeue(rng.Int63())
				if p == nil {
					t.Fatalf("op %d: dequeue of a backlogged flow returned nil", i)
				}
				pool.Put(p)
				queued--
			}
			if w.calls < 4000 {
				t.Fatalf("only %d transactions ran", w.calls)
			}
		})
	}
}
