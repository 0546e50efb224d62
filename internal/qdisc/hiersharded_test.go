package qdisc

import (
	"fmt"
	"math/rand"
	"testing"

	"eiffel/internal/hclock"
	"eiffel/internal/pkt"
	"eiffel/internal/shardq"
)

// hierTestSpec is the 4-tenant spec the hiersharded tests share: two
// plain weighted tenants, one reservation holder, one rank-policy tenant
// — every engine feature on one table.
func hierTestSpec() shardq.HierSpec {
	return shardq.HierSpec{
		Tenants: []shardq.HierTenant{
			{Weight: 3},
			{Weight: 1},
			{ResBps: 200e6, Weight: 1},
			{Weight: 2, Policy: "rank", Buckets: 4096, RankGran: 64},
		},
	}
}

// hierRandomSets builds a randomized workload: producers sets over
// disjoint flow ranges (so concurrent enqueues keep each flow's arrival
// order well defined), random sizes, random tenants, random in-tenant
// ranks, sequential per-flow IDs.
func hierRandomSets(rng *rand.Rand, producers, perProducer, flowsPer, tenants int) [][]*pkt.Packet {
	sets := make([][]*pkt.Packet, producers)
	for w := range sets {
		pool := pkt.NewPool(perProducer)
		set := make([]*pkt.Packet, perProducer)
		seq := make(map[uint64]uint64)
		for i := range set {
			p := pool.Get()
			f := uint64(w*flowsPer + rng.Intn(flowsPer))
			p.Flow = f
			p.Size = uint32(64 + rng.Intn(1437))
			p.Class = int32(f % uint64(tenants)) // tenant is a flow property
			p.Rank = uint64(rng.Intn(1 << 18))
			p.ID = seq[f]
			seq[f]++
			set[i] = p
		}
		sets[w] = set
	}
	return sets
}

// hierRow is one deployment the sharded hClock tables run: a tag-index
// backend, a consumer-group count, and the producers' admission path.
type hierRow struct {
	backend hclock.Backend
	groups  int
	mode    string // modePerPacket or modeBatched
}

// hierRows crosses the two tag-index backends with one and two
// consumer groups under per-packet admission; the Eiffel backend also
// admits in batches.
var hierRows = []hierRow{
	{hclock.BackendEiffel, 1, modePerPacket},
	{hclock.BackendEiffel, 2, modePerPacket},
	{hclock.BackendEiffel, 1, modeBatched},
	{hclock.BackendEiffel, 2, modeBatched},
	{hclock.BackendHeap, 1, modePerPacket},
	{hclock.BackendHeap, 2, modePerPacket},
}

func (r hierRow) String() string { return fmt.Sprintf("%s/G=%d/%s", r.backend, r.groups, r.mode) }

// mk builds the row's sharded front over spec.
func (r hierRow) mk(t *testing.T, spec shardq.HierSpec) *HierSharded {
	t.Helper()
	spec.Backend = r.backend
	q, err := NewHierSharded(HierShardedOptions{Spec: spec, Shards: 8, Groups: r.groups})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// hierServe returns q's release function in its deployment's drain
// topology: Dequeue on one group; on several, one thread standing in for
// the group workers by alternating small GroupDequeueBatch pulls. (A
// serial front's Dequeue drains group 0 to exhaustion before group 1 — a
// drain order, not a schedule — so a share measured through it would
// report each group's composition instead of the weighted service.)
func hierServe(q Qdisc) func(now int64) *pkt.Packet {
	f, ok := q.(serialQdisc)
	if !ok || f.NumGroups() == 1 {
		return q.Dequeue
	}
	buf := make([]*pkt.Packet, 8)
	have, next, g := 0, 0, 0
	return func(now int64) *pkt.Packet {
		for tries := 0; next >= have && tries < f.NumGroups(); tries++ {
			g = (g + 1) % f.NumGroups()
			next, have = 0, f.GroupDequeueBatch(g, now, buf)
		}
		if next >= have {
			return nil
		}
		next++
		return buf[next-1]
	}
}

// drainOrders drains q at a steadily advancing clock and returns each
// flow's release sequence of IDs.
func drainOrders(t *testing.T, q Qdisc, total int) map[uint64][]uint64 {
	t.Helper()
	serve := hierServe(q)
	orders := make(map[uint64][]uint64)
	now, got, stalls := int64(0), 0, 0
	for got < total {
		p := serve(now)
		if p == nil {
			// Nothing eligible (a reservation-only phase boundary at tag
			// granularity): advance the clock and retry.
			now += 1 << 20
			if stalls++; stalls > 1<<20 {
				t.Fatalf("drain stalled at %d of %d", got, total)
			}
			continue
		}
		orders[p.Flow] = append(orders[p.Flow], p.ID)
		got++
		now += int64(p.Size) * 8 // ~1 Gbps pacing
	}
	return orders
}

// TestHierShardedPerFlowOrderMatchesLocked is the randomized equivalence
// property: for every flow, the sharded hierarchical path releases the
// flow's packets in EXACTLY the order the locked whole-tree hClock does —
// across fifo and rank in-tenant policies, random sizes, concurrent
// producers, every tag-index backend, and one or two consumer groups.
func TestHierShardedPerFlowOrderMatchesLocked(t *testing.T) {
	const producers, perProducer, flowsPer = 4, 3000, 64
	for _, row := range hierRows {
		t.Run(row.String(), func(t *testing.T) {
			spec := hierTestSpec()
			spec.Backend = row.backend
			sets := hierRandomSets(rand.New(rand.NewSource(7)), producers, perProducer, flowsPer, len(spec.Tenants))
			total := producers * perProducer

			tree, err := NewHierTree(spec)
			if err != nil {
				t.Fatal(err)
			}
			locked := NewLocked(tree)
			for _, set := range sets {
				for _, p := range set {
					locked.Enqueue(p, 0)
				}
			}
			want := drainOrders(t, locked, total)

			sharded := row.mk(t, spec)
			publish(t, sharded.Front, sets, row.mode)
			got := drainOrders(t, serial(sharded.Front), total)

			if len(got) != len(want) {
				t.Fatalf("sharded released %d flows, locked %d", len(got), len(want))
			}
			for f, w := range want {
				if g := got[f]; fmt.Sprint(g) != fmt.Sprint(w) {
					t.Fatalf("flow %d: sharded released IDs %v, locked %v", f, g, w)
				}
			}
		})
	}
}

// TestHierShardedReservationConservation: under overload, every tenant
// with a due reservation is served within a bounded window — the
// reservation-first preference survives the cross-shard merge — and the
// reservation holders' aggregate service meets their configured rates
// within the shard-granularity error bound, on every row.
func TestHierShardedReservationConservation(t *testing.T) {
	// Two reservation holders against two heavyweight share tenants. At
	// the 1 Gbps paced drain below, tenant 2 is owed 20% of service and
	// tenant 3 is owed 10%; on weights alone they would split ~2/34 of it.
	spec := shardq.HierSpec{
		Tenants: []shardq.HierTenant{
			{Weight: 16},
			{Weight: 16},
			{ResBps: 200e6, Weight: 1},
			{ResBps: 100e6, Weight: 1},
		},
	}
	const flows, per, producers = 64, 500, 4 // 32k packets, every tenant saturated
	for _, row := range hierRows {
		t.Run(row.String(), func(t *testing.T) {
			q := row.mk(t, spec)
			sets := make([][]*pkt.Packet, producers)
			for w := range sets {
				pool := pkt.NewPool(flows * per / producers) // pools are single-producer
				for i := 0; i < flows*per/producers; i++ {
					p := pool.Get()
					f := uint64(w*(flows/producers) + i%(flows/producers))
					p.Flow, p.Size, p.Class = f, 1500, int32(f%4)
					sets[w] = append(sets[w], p)
				}
			}
			publish(t, q.Front, sets, row.mode)

			const total = flows * per
			// Measure shares over the first half of the schedule: every tenant
			// is still backlogged there (each holds exactly 25% of the offered
			// load, so nobody can drain before the halfway mark), which makes
			// the window a genuine contention measurement rather than a tail
			// artifact.
			const window = total / 2
			serve := hierServe(serial(q.Front))
			windowServed := [4]int{}
			lastServed := [4]int{2: 0, 3: 0}
			maxGap := [4]int{}
			now := int64(0)
			for i := 0; i < total; i++ {
				p := serve(now)
				if p == nil {
					t.Fatalf("work-conserving drain stalled at %d of %d", i, total)
				}
				tn := int(p.Class)
				if i < window {
					windowServed[tn]++
				}
				if tn >= 2 {
					maxGap[tn] = max(maxGap[tn], i-lastServed[tn])
					lastServed[tn] = i
				}
				now += 12_000 // 1500B at 1 Gbps
			}
			res2 := float64(windowServed[2]) / float64(window)
			res3 := float64(windowServed[3]) / float64(window)
			if res2 < 0.20*0.9 || res3 < 0.10*0.9 {
				t.Fatalf("reservation holders served %.3f and %.3f of the link under contention, need >= 0.20 and 0.10 (-10%% bound)", res2, res3)
			}
			// Bounded window: a due reservation is never starved for more than
			// a few merge batches (per-shard runs).
			if maxGap[2] > 256 || maxGap[3] > 256 {
				t.Fatalf("reservation service gaps %d/%d packets, want <= 256", maxGap[2], maxGap[3])
			}
			t.Logf("reservation shares %.3f/%.3f, gaps %d/%d packets", res2, res3, maxGap[2], maxGap[3])
		})
	}
}

// TestHierShardedShareError: the weight-3 tenant's service share after
// serving half a two-tenant backlog stays within ±0.10 of the ideal 0.75
// on every row — the cross-shard share-error bound.
func TestHierShardedShareError(t *testing.T) {
	spec := shardq.HierSpec{Tenants: []shardq.HierTenant{{Weight: 3}, {Weight: 1}}}
	const producers, perProducer, flowsPer = 8, 5000, 64
	for _, row := range hierRows {
		t.Run(row.String(), func(t *testing.T) {
			q := row.mk(t, spec)
			// One set per producer over disjoint flow ranges; a flow's class
			// is its parity, so both tenants are backlogged throughout.
			sets := make([][]*pkt.Packet, producers)
			for w := range sets {
				pool := pkt.NewPool(perProducer)
				for i := 0; i < perProducer; i++ {
					p := pool.Get()
					f := i % flowsPer
					p.Flow, p.Size, p.Class = uint64(w*flowsPer+f), 1500, int32(f%2)
					sets[w] = append(sets[w], p)
				}
			}
			total := publish(t, q.Front, sets, row.mode)
			serve := hierServe(serial(q.Front))
			gold := 0
			for served := 0; served < total/2; served++ {
				p := serve(horizon)
				if p == nil {
					t.Fatal("drain stalled with backlog")
				}
				if p.Class == 0 {
					gold++
				}
			}
			share := float64(gold) / float64(total/2)
			if share < 0.65 || share > 0.85 {
				t.Fatalf("weight-3 share %.3f, want 0.75 +/- 0.10", share)
			}
			t.Logf("weight-3 share %.4f", share)
		})
	}
}

// TestHierShardedNextTimer: with every tenant parked over its limit, the
// front reports the earliest release instead of claiming readiness, and
// serving resumes at that time.
func TestHierShardedNextTimer(t *testing.T) {
	spec := shardq.HierSpec{Tenants: []shardq.HierTenant{
		{LimitBps: 800e6, Weight: 1}, // 8 shards: 100 Mbps per shard slice
	}}
	hs, err := NewHierSharded(HierShardedOptions{Spec: spec, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := serial(hs.Front)
	pool := pkt.NewPool(8)
	for i := 0; i < 4; i++ {
		p := pool.Get()
		p.Flow = 1 // one flow -> one shard -> one engine's limit clock
		p.Size = 1500
		q.Enqueue(p, 0)
	}
	if p := q.Dequeue(0); p == nil {
		t.Fatal("first packet not served")
	}
	if p := q.Dequeue(1); p != nil {
		t.Fatal("over-limit packet served")
	}
	ev, ok := q.NextTimer(1)
	if !ok || ev <= 1 {
		t.Fatalf("NextTimer = %d,%v, want a future release", ev, ok)
	}
	if p := q.Dequeue(ev + 2048); p == nil {
		t.Fatal("parked tenant not served at its release time")
	}
}

// TestHierChargesPublishedSize: the engine charges the length a packet
// PUBLISHED (the ring's aux word), not whatever its memory holds at the
// drain. Two fifo tenants at 1:1 both publish 1500 B packets; shrinking
// tenant 0's packets afterwards must not buy it a single extra turn. (A
// drain that re-reads the packet charges tenant 0 64 B a turn and serves
// it ~23 packets for each of tenant 1's.)
func TestHierChargesPublishedSize(t *testing.T) {
	spec := shardq.HierSpec{Tenants: []shardq.HierTenant{{Weight: 1}, {Weight: 1}}}
	hs, err := NewHierSharded(HierShardedOptions{Spec: spec, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := serial(hs.Front)
	const per = 400
	pool := pkt.NewPool(2 * per)
	var shrunk []*pkt.Packet
	for i := 0; i < per; i++ {
		for tn := 0; tn < 2; tn++ {
			p := pool.Get()
			p.Flow, p.Class, p.Size = uint64(tn), int32(tn), 1500
			q.Enqueue(p, 0)
			if tn == 0 {
				shrunk = append(shrunk, p)
			}
		}
	}
	for _, p := range shrunk {
		p.Size = 64
	}
	served := [2]int{}
	for i := 0; i < per; i++ { // both tenants stay backlogged throughout
		p := q.Dequeue(0)
		if p == nil {
			t.Fatalf("drain stalled at %d", i)
		}
		served[p.Class]++
		if d := served[0] - served[1]; d < -1 || d > 1 {
			t.Fatalf("after %d packets tenant 0 was served %d times, tenant 1 %d times: equal weights and equal PUBLISHED sizes must alternate",
				i+1, served[0], served[1])
		}
	}
}

// TestHierMixedSizesMatchLocked: 64 / 1500 / 9000 B packets, weights 1:4
// and a binding reservation. The sharded front and the locked tree release
// every flow in the same order, both split the two share tenants' BYTES
// within 0.10 of 4:1, and both give the reservation holder its rate — the
// published lengths reach the engine intact on both deployments.
func TestHierMixedSizesMatchLocked(t *testing.T) {
	spec := shardq.HierSpec{Tenants: []shardq.HierTenant{
		{Weight: 1},
		{Weight: 4},
		{ResBps: 300e6, Weight: 1}, // weights alone would give it 1/6 of the 1 Gbps drain
	}}
	sizes := [3]uint32{64, 1500, 9000}
	const flows, per = 48, 400
	build := func() []*pkt.Packet {
		rng := rand.New(rand.NewSource(11))
		pool := pkt.NewPool(flows * per)
		ps := make([]*pkt.Packet, 0, flows*per)
		for i := 0; i < per; i++ {
			for f := 0; f < flows; f++ {
				p := pool.Get()
				p.Flow, p.Class, p.ID = uint64(f), int32(f%3), uint64(i)
				p.Size = sizes[rng.Intn(3)]
				ps = append(ps, p)
			}
		}
		return ps
	}
	// run drains q at a 1 Gbps pace and returns each flow's release order
	// plus the per-tenant bytes served while every tenant was backlogged.
	run := func(q Qdisc) (map[uint64][]uint64, [3]float64) {
		ps := build()
		var offered [3]uint64
		for _, p := range ps {
			q.Enqueue(p, 0)
			offered[p.Class] += uint64(p.Size)
		}
		orders := make(map[uint64][]uint64)
		var bytes [3]uint64
		window := true
		now := int64(0)
		for got := 0; got < len(ps); {
			p := q.Dequeue(now)
			if p == nil {
				now += 1 << 16
				continue
			}
			got++
			orders[p.Flow] = append(orders[p.Flow], p.ID)
			// The contention window closes when the first tenant is half
			// drained: until then every shard still holds all three.
			if window {
				bytes[p.Class] += uint64(p.Size)
				window = bytes[p.Class] < offered[p.Class]/2
			}
			now += int64(p.Size) * 8
		}
		total := float64(bytes[0] + bytes[1] + bytes[2])
		return orders, [3]float64{float64(bytes[0]) / total, float64(bytes[1]) / total, float64(bytes[2]) / total}
	}

	tree, err := NewHierTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder, treeShare := run(NewLocked(tree))
	sharded, err := NewHierSharded(HierShardedOptions{Spec: spec, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	gotOrder, shardShare := run(serial(sharded.Front))

	for f, w := range wantOrder {
		g := gotOrder[f]
		if len(g) != len(w) {
			t.Fatalf("flow %d: sharded released %d packets, locked %d", f, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("flow %d position %d: sharded ID %d, locked ID %d", f, i, g[i], w[i])
			}
		}
	}
	for name, s := range map[string][3]float64{"locked tree": treeShare, "sharded": shardShare} {
		if heavy := s[1] / (s[0] + s[1]); heavy < 0.70 || heavy > 0.90 {
			t.Fatalf("%s: weight-4 tenant took %.3f of the share tenants' bytes, want 0.80 +/- 0.10", name, heavy)
		}
		if s[2] < 0.30*0.9 {
			t.Fatalf("%s: reservation holder took %.3f of the link's bytes, reservation needs >= 0.30 (-10%% bound)", name, s[2])
		}
	}
}
