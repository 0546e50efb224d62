package shardq

import (
	"math"
	"testing"

	"eiffel/internal/bucket"
	"eiffel/internal/pkt"
)

// TestHierAuxRoundTrip: the aux layout is the one EnqueueAux splits — the
// tenant comes back from the low half, the length from the high half, at
// both ends of both ranges.
func TestHierAuxRoundTrip(t *testing.T) {
	for _, tenant := range []uint32{0, 1, math.MaxUint32} {
		for _, size := range []uint32{1, 1500, math.MaxUint32} {
			aux := HierAux(tenant, size)
			if got := uint32(aux); got != tenant {
				t.Fatalf("HierAux(%d,%d): low half %d", tenant, size, got)
			}
			if got := uint32(aux >> 32); got != size {
				t.Fatalf("HierAux(%d,%d): high half %d", tenant, size, got)
			}
		}
	}
	if HierAux(7, 0) != 7 {
		t.Fatal("a zero length must leave the bare tenant id: that is the fallback's trigger")
	}
}

// TestHierTenantRingKeepsSizeWithNode: the fifo ring hands every node back
// with the length it was pushed with, across wrap-around and growth.
func TestHierTenantRingKeepsSizeWithNode(t *testing.T) {
	var ht hierTenant
	var one [1]*bucket.Node
	nodes := make([]bucket.Node, 200)
	pushed, popped := 0, 0
	pop := func() {
		n, size := ht.pop(&one)
		if n != &nodes[popped] || size != uint32(popped+1) {
			t.Fatalf("pop %d: node %p size %d, want %p size %d", popped, n, size, &nodes[popped], popped+1)
		}
		popped++
	}
	// 5 in, 3 out per round: head walks off slot 0 before every doubling.
	for pushed < len(nodes) {
		for i := 0; i < 5 && pushed < len(nodes); i++ {
			ht.push(&nodes[pushed], 0, uint32(pushed+1))
			pushed++
		}
		for i := 0; i < 3; i++ {
			pop()
		}
	}
	for popped < pushed {
		pop()
	}
	if c := len(ht.fifo); c&(c-1) != 0 || len(ht.size) != c {
		t.Fatalf("ring capacities %d/%d, want one power of two", c, len(ht.size))
	}
}

// fuzzHierSpec is the tree both fuzzed instances compile: two plain
// weighted tenants, one reservation holder, one tenant whose limit binds
// at the clock steps the ops take (1500 B cost it 1.2 ms).
func fuzzHierSpec() HierSpec {
	return HierSpec{Tenants: []HierTenant{
		{Weight: 1},
		{Weight: 3},
		{ResBps: 50e6, Weight: 1},
		{LimitBps: 10e6, Weight: 2},
	}}
}

var fuzzHierSizes = [4]uint32{64, 576, 1500, 9000}

// FuzzHierSched drives TWO HierSched instances over the same tree with the
// same op sequence — one fed packed aux (HierAux), one the bare tenant id
// (the fallback benchmark/layers.go's twin relies on) — and requires them
// to agree on every Min, every SetNow verdict, every popped packet and
// every TenantLen; a naive model (one FIFO of IDs per flow) checks per-flow
// order and conservation on top. Each op is two bytes (code, arg):
//
//	code&3 == 0  enqueue 1+(code>>2)&7 packets: tenant arg&3, flow (arg>>2)&3 of it, size arg>>4&3
//	code&3 == 1  clock += arg<<14 ns                (never backwards)
//	code&3 == 2  DequeueBatch of up to 1+arg&31, bounded by Min+(code>>2) when code&0x80, else unbounded
//	code&3 == 3  Min
func FuzzHierSched(f *testing.F) {
	f.Add([]byte{0x1c, 0x02, 0x1c, 0x13, 0x02, 0x1f, 0x03, 0x00})                         // two tenants, drain, Min
	f.Add([]byte{0x1c, 0x23, 0x02, 0x07, 0x01, 0x10, 0x02, 0x07, 0x01, 0xff, 0x02, 0x1f}) // the limited tenant parks and wakes
	f.Add([]byte{0x1c, 0x32, 0x1c, 0x01, 0x01, 0x40, 0x82, 0x1f, 0x03, 0x00, 0x02, 0x1f}) // reservation against a bounded drain
	f.Add([]byte{0x1c, 0x30, 0x1c, 0x01, 0x1c, 0x35, 0x1c, 0x11, 0x86, 0x03, 0x02, 0x1f}) // 9000 B against 64 B, growth past 16 slots
	f.Fuzz(runHierPair)
}

func runHierPair(t *testing.T, ops []byte) {
	var inst [2]*HierSched
	for i := range inst {
		b, err := NewHierSched(fuzzHierSpec())
		if err != nil {
			t.Fatal(err)
		}
		inst[i] = b
	}
	pools := [2]*pkt.Pool{pkt.NewPool(0), pkt.NewPool(0)}
	const tenants = 4
	model := map[uint64][]uint64{} // flow -> unreleased IDs, oldest first
	var perTenant [tenants]int
	queued, nextID, now := 0, uint64(0), int64(0)
	var out [2][32]*bucket.Node

	check := func(when string) {
		t.Helper()
		r0, ok0 := inst[0].Min()
		r1, ok1 := inst[1].Min()
		if r0 != r1 || ok0 != ok1 {
			t.Fatalf("%s: Min packed (%d,%v), tenant-only (%d,%v)", when, r0, ok0, r1, ok1)
		}
		for i, b := range inst {
			if b.Len() != queued {
				t.Fatalf("%s: instance %d Len %d, model %d", when, i, b.Len(), queued)
			}
			for tn, want := range perTenant {
				if got := b.TenantLen(tn); got != want {
					t.Fatalf("%s: instance %d tenant %d holds %d, model %d", when, i, tn, got, want)
				}
			}
		}
	}
	drain := func(k int, maxRank uint64) int {
		t.Helper()
		m := inst[0].DequeueBatch(maxRank, out[0][:k])
		if m1 := inst[1].DequeueBatch(maxRank, out[1][:k]); m1 != m {
			t.Fatalf("drain(%d, %d) at %d: packed popped %d, tenant-only %d", k, maxRank, now, m, m1)
		}
		for j := 0; j < m; j++ {
			p, p1 := pkt.FromSchedNode(out[0][j]), pkt.FromSchedNode(out[1][j])
			if p.ID != p1.ID {
				t.Fatalf("pop %d at %d: packed released ID %d, tenant-only ID %d", j, now, p.ID, p1.ID)
			}
			q := model[p.Flow]
			if len(q) == 0 || q[0] != p.ID {
				t.Fatalf("flow %d released ID %d, model's head is %v", p.Flow, p.ID, q)
			}
			model[p.Flow] = q[1:]
			perTenant[p.Class]--
			queued--
		}
		if m == 0 {
			// The Scheduler contract mergeRuns' progress rests on.
			for i, b := range inst {
				if r, ok := b.Min(); ok && r <= maxRank {
					t.Fatalf("instance %d: drain popped 0 but Min = %d <= bound %d", i, r, maxRank)
				}
			}
		}
		return m
	}

	for i := 0; i+1 < len(ops); i += 2 {
		code, arg := ops[i], ops[i+1]
		switch code & 3 {
		case 0:
			tenant := uint32(arg & 3)
			flow := uint64(tenant) + tenants*uint64(arg>>2&3)
			size := fuzzHierSizes[arg>>4&3]
			for n := 0; n <= int(code>>2&7); n++ {
				for j, b := range inst {
					p := pools[j].Get()
					p.ID, p.Flow, p.Class, p.Size = nextID, flow, int32(tenant), size
					aux := uint64(tenant)
					if j == 0 {
						aux = HierAux(tenant, size)
					}
					b.EnqueueAux(&p.SchedNode, 0, aux)
				}
				model[flow] = append(model[flow], nextID)
				perTenant[tenant]++
				queued++
				nextID++
			}
		case 1:
			now += int64(arg) << 14
			if a, b := inst[0].SetNow(now), inst[1].SetNow(now); a != b {
				t.Fatalf("SetNow(%d): packed repeek %v, tenant-only %v", now, a, b)
			}
		case 2:
			maxRank := ^uint64(0)
			if code&0x80 != 0 {
				inst[1].Min() // keep the pair's Min side effects (stall flag) in step
				if r, ok := inst[0].Min(); ok {
					maxRank = r + uint64(code>>2&31)
				}
			}
			drain(1+int(arg&31), maxRank)
		}
		check("after op")
	}

	// Everything admitted comes out: step the clock past every limit and
	// reservation clock until both instances are empty. The slowest packet
	// (9000 B at 10 Mbps) parks its tenant for seven 1 ms steps.
	for step, limit := 0, 8*queued+64; queued > 0; step++ {
		if step > limit {
			t.Fatalf("final drain stuck with %d queued at %d", queued, now)
		}
		if drain(len(out[0]), ^uint64(0)) == 0 {
			now += 1 << 20
			inst[0].SetNow(now)
			inst[1].SetNow(now)
		}
	}
	check("drained")
}
