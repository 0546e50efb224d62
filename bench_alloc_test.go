package eiffel_test

import (
	"sync"
	"testing"

	"eiffel"
)

// Steady-state hot-path benchmarks: each iteration publishes a fixed
// burst through the enqueue pipeline and drains it back out, reusing one
// runtime, one element set, and one output buffer — so after the first
// lap warms every internal buffer, allocs/op MUST be zero. CI runs these
// with -benchmem and fails the build on any nonzero allocs/op
// (scripts/check_bench_allocs.sh); TestEnqueueHotPathAllocationFree
// asserts the same property without the bench runner.

const hotBurst = 1024

// hotDrain empties q through the reused out buffer.
func hotDrain(b *testing.B, q *eiffel.ShardedQueue, out []*eiffel.Node) {
	for q.Len() > 0 {
		if q.GroupDequeueBatch(0, ^uint64(0), out) == 0 {
			b.Fatal("drain stalled with elements queued")
		}
	}
}

func BenchmarkHotPathEnqueuePerElement(b *testing.B) {
	q := eiffel.NewShardedQueue(eiffel.ShardedOptions{NumShards: 8})
	nodes := make([]eiffel.Node, hotBurst)
	out := make([]*eiffel.Node, 256)
	lap := func() {
		for j := range nodes {
			q.Enqueue(uint64(j), &nodes[j], uint64(j%4096))
		}
		hotDrain(b, q, out)
	}
	lap() // warm every internal buffer to its steady-state capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lap()
	}
}

func BenchmarkHotPathEnqueueBatched(b *testing.B) {
	q := eiffel.NewShardedQueue(eiffel.ShardedOptions{NumShards: 8})
	prod := q.NewProducer(64)
	nodes := make([]eiffel.Node, hotBurst)
	out := make([]*eiffel.Node, 256)
	lap := func() {
		for j := range nodes {
			prod.Enqueue(uint64(j), &nodes[j], uint64(j%4096), 0)
		}
		prod.Flush()
		hotDrain(b, q, out)
	}
	lap() // warm every internal buffer to its steady-state capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lap()
	}
}

// BenchmarkHotPathGroupDrain holds the MULTI-consumer drain path to the
// same zero-allocs/op bar as the single-consumer paths: four persistent
// group workers (spawned before the timer so goroutine startup never
// lands in an op) each drain their consumer group's shards concurrently,
// one publish→parallel-drain lap per op. The workers coordinate through
// pre-allocated channels and a WaitGroup — nothing on the lap allocates
// once the first warming lap has grown every internal buffer.
func BenchmarkHotPathGroupDrain(b *testing.B) {
	const groups = 4
	q := eiffel.NewShardedQueue(eiffel.ShardedOptions{NumShards: 8, NumGroups: groups})
	prod := q.NewProducer(64)
	nodes := make([]eiffel.Node, hotBurst)

	var wg sync.WaitGroup
	start := make([]chan struct{}, groups)
	for g := 0; g < groups; g++ {
		start[g] = make(chan struct{}, 1)
		go func(g int) {
			out := make([]*eiffel.Node, 256)
			for range start[g] {
				for q.GroupDequeueBatch(g, ^uint64(0), out) > 0 {
				}
				wg.Done()
			}
		}(g)
	}
	lap := func() {
		for j := range nodes {
			prod.Enqueue(uint64(j), &nodes[j], uint64(j%4096), 0)
		}
		prod.Flush()
		wg.Add(groups)
		for g := range start {
			start[g] <- struct{}{}
		}
		wg.Wait()
		if q.Len() != 0 {
			b.Fatal("group drain left elements queued")
		}
	}
	lap() // warm every internal buffer to its steady-state capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lap()
	}
	b.StopTimer()
	for g := range start {
		close(start[g])
	}
}

// BenchmarkHotPathShapedEnqueueBatched holds the whole shaped pipeline to
// the bar, the shaper stage included: every lap admits its burst AHEAD of
// the release times, polls once so the burst parks in the per-shard shaper
// stores, and drains once the last packet is due — park, migrate and merged
// drain all run. Laps step through time, so the stores' windows rotate
// under the gate too; their chunk pools reach the burst's size on the
// warming lap.
func BenchmarkHotPathShapedEnqueueBatched(b *testing.B) {
	q := eiffel.NewMultiShaped(eiffel.MultiShapedOptions{ShapedShardedOptions: eiffel.ShapedShardedOptions{
		Shards: 8, HorizonNs: 1 << 20, RankSpan: 1 << 20,
	}})
	pool := eiffel.NewPool(hotBurst)
	ps := make([]*eiffel.Packet, hotBurst)
	for i := range ps {
		p := pool.Get()
		p.Flow = uint64(i)
		p.Rank = uint64((i * 131) % (1 << 20))
		ps[i] = p
	}
	out := make([]*eiffel.Packet, 256)
	const lapNs = 1 << 18
	now := int64(0)
	lap := func() {
		for i, p := range ps {
			p.SendAt = now + lapNs/2 + int64((i*257)%(lapNs/2)) // whole buckets ahead
		}
		q.EnqueueBatch(ps, now)
		if next, ok := q.GroupNextTimer(0, now); !ok || next <= now {
			b.Fatalf("GroupNextTimer(%d) = (%d,%v): the burst did not park", now, next, ok)
		}
		now += lapNs
		for q.Len() > 0 {
			if q.GroupDequeueBatch(0, now, out) == 0 {
				b.Fatal("drain stalled with packets queued")
			}
		}
	}
	lap() // warm every internal buffer to its steady-state capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lap()
	}
	b.StopTimer()
	if pool.Allocs() != hotBurst {
		b.Fatalf("packet pool allocated beyond its pre-population: %d", pool.Allocs())
	}
}

// BenchmarkHotPathPolicyBatched holds the sharded pFabric leaf to the bar.
// Its ranks span 64 of the leaf's 512 KiB windows (32 MiB, the reach of
// web-search remaining sizes), so the lap runs the cFFS's coarse level:
// built on the warming lap, then put to, moved in from and removed from.
func BenchmarkHotPathPolicyBatched(b *testing.B) {
	q, err := eiffel.NewPolicySharded(eiffel.PolicyShardedOptions{
		Policy: `
			root ranker=strict
			leaf pf parent=root kind=flow policy=pfabric buckets=4096 gran=64
		`,
		Shards: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	pool := eiffel.NewPool(hotBurst)
	ps := make([]*eiffel.Packet, hotBurst)
	for i := range ps {
		p := pool.Get()
		p.Flow = uint64(i % 64)
		p.Size = 1500
		p.Rank = uint64(hotBurst-i) << 15
		ps[i] = p
	}
	out := make([]*eiffel.Packet, 256)
	lap := func() {
		q.EnqueueBatch(ps, 0)
		for q.Len() > 0 {
			if q.GroupDequeueBatch(0, 0, out) == 0 {
				b.Fatal("drain stalled with packets queued")
			}
		}
	}
	lap() // warm flow tables, rings, and staging to steady-state capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lap()
	}
	b.StopTimer()
	if pool.Allocs() != hotBurst {
		b.Fatalf("packet pool allocated beyond its pre-population: %d", pool.Allocs())
	}
}

// BenchmarkHotPathHierSched holds the sharded hierarchical-QoS path to
// the zero-allocs/op bar: each lap admits a burst spanning a weighted
// tenant, a reservation holder, and a ranked-policy tenant (so the lap
// covers the three-tag charge cycle, the timed migrate/reservation
// checks, the FIFO and rank-queue in-tenant paths, and the cross-shard
// share-time merge) and drains it back out through GroupDequeueBatch.
// The burst cycles two packet sizes, so the length slot that rides the aux
// word into the tenant FIFOs (and is what the drain charges) is on the lap
// too.
func BenchmarkHotPathHierSched(b *testing.B) {
	q, err := eiffel.NewHierSharded(eiffel.HierShardedOptions{
		Spec: eiffel.HierSpec{
			Tenants: []eiffel.HierTenant{
				{Weight: 3},
				{ResBps: 200e6, Weight: 1},
				{Weight: 2, Policy: "rank", Buckets: 4096, RankGran: 64},
			},
		},
		Shards: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	pool := eiffel.NewPool(hotBurst)
	ps := make([]*eiffel.Packet, hotBurst)
	for i := range ps {
		p := pool.Get()
		p.Flow = uint64(i % 64)
		p.Size = [2]uint32{1500, 64}[i/3%2]
		p.Class = int32(i % 3)
		p.Rank = uint64((hotBurst - i) * 1500 % (1 << 18))
		ps[i] = p
	}
	out := make([]*eiffel.Packet, 256)
	lap := func() {
		q.EnqueueBatch(ps, 0)
		for q.Len() > 0 {
			if q.GroupDequeueBatch(0, 0, out) == 0 {
				b.Fatal("drain stalled with packets queued")
			}
		}
	}
	lap() // warm tenant FIFOs, rank queues, rings, and staging
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lap()
	}
	b.StopTimer()
	if pool.Allocs() != hotBurst {
		b.Fatalf("packet pool allocated beyond its pre-population: %d", pool.Allocs())
	}
}

// tryCountSink is a FallibleSink that always accepts everything — the
// fault-free path BenchmarkHotPathEgressTx measures.
type tryCountSink struct{ n int }

func (s *tryCountSink) TryTx(ps []*eiffel.Packet) (int, error) {
	s.n += len(ps)
	return len(ps), nil
}

// BenchmarkHotPathEgressTx holds the RESILIENT egress path to the
// zero-allocs/op bar on its fault-free fast path: each lap admits a
// burst through the parallel front's refusable TryEnqueue and drains it
// group by group through a ResilientSink whose underlying TryTx accepts
// every batch first try — so the lap covers the full retry machinery's
// entry (progress cursor, egress accounting: two atomic adds per batch)
// without ever touching the failure path (no clock reads, no backoff,
// no drops). Any allocation is a regression in the admission path, the
// group drain — both halves of the timer rule's: ring bypass and staged
// park — or the retry wrapper itself. Laps step through time by a whole
// horizon, so the per-shard timer stores' windows rotate under the gate and
// their chunk pools serve buckets no earlier lap used.
func BenchmarkHotPathEgressTx(b *testing.B) {
	var opt eiffel.MultiShardedOptions
	opt.Shards = 8
	opt.HorizonNs = 1 << 20
	opt.Groups = 2
	q := eiffel.NewMultiSharded(opt)
	inner := &tryCountSink{}
	sink := eiffel.NewResilientSink(inner, eiffel.RetryPolicy{}, nil)
	pool := eiffel.NewPool(hotBurst)
	ps := make([]*eiffel.Packet, hotBurst)
	for i := range ps {
		p := pool.Get()
		p.Flow = uint64(i)
		ps[i] = p
	}
	out := make([]*eiffel.Packet, 256)
	base := int64(0)
	lap := func() {
		for i, p := range ps {
			p.SendAt = base + int64(i%(1<<18))
			if !q.TryEnqueue(p, base+1<<19) {
				b.Fatal("TryEnqueue refused on an open unbounded front")
			}
		}
		// Two clocks: at the first, half the burst is overdue on first sight
		// and leaves straight off the rings (the timer front's due-bypass)
		// while the other half parks in the timer stores in staged runs; the
		// second releases those.
		for _, at := range [...]int64{base + 1<<17, base + 1<<20} {
			for g := 0; g < q.NumGroups(); g++ {
				for {
					k := q.GroupDequeueBatch(g, at, out)
					if k == 0 {
						break
					}
					sink.Tx(out[:k])
				}
			}
		}
		if q.Len() != 0 {
			b.Fatal("drain left packets queued")
		}
		base += 1 << 20
	}
	lap() // warm rings, buckets, and the drain scratch to steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lap()
	}
	b.StopTimer()
	if got := sink.Egress().Txd(); got != uint64((b.N+1)*hotBurst) {
		b.Fatalf("egress accounting txd=%d, want %d", got, (b.N+1)*hotBurst)
	}
	if inner.n != (b.N+1)*hotBurst {
		b.Fatalf("sink saw %d packets, want %d", inner.n, (b.N+1)*hotBurst)
	}
}

// BenchmarkHotPathChurnAdmit holds the bounded-admission path to the
// zero-allocs/op bar: each lap offers a burst through EnqueueBatchAdmit
// against a shard bound tight enough that a slice of every burst is
// REFUSED (so the refusal bookkeeping — the runtime's reject buffer, the
// qdisc's returned slice, the per-tenant drop counters — is on the
// measured path, not just the happy path), then drains the admitted
// backlog. After the warming lap grows both reusable reject buffers to
// their steady-state capacity, allocs/op must be zero.
func BenchmarkHotPathChurnAdmit(b *testing.B) {
	q, err := eiffel.NewPolicySharded(eiffel.PolicyShardedOptions{
		Policy: `
			root ranker=strict
			leaf pf parent=root kind=flow policy=pfabric buckets=4096 gran=64
		`,
		Shards:     8,
		ShardBound: 96, // 1024-packet bursts over 8 shards: ~128 offered per shard
		Admit:      eiffel.AdmitDropTail,
		Tenants:    4,
		EvictAfter: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	pool := eiffel.NewPool(hotBurst)
	ps := make([]*eiffel.Packet, hotBurst)
	for i := range ps {
		p := pool.Get()
		p.Flow = uint64(i % 64)
		p.Size = 1500
		p.Class = int32(i % 4)
		p.Rank = uint64((hotBurst - i) * 1500 % (1 << 19))
		ps[i] = p
	}
	rej := make([]*eiffel.Packet, 0, hotBurst)
	out := make([]*eiffel.Packet, 256)
	lap := func() {
		var admitted int
		admitted, rej = q.EnqueueBatchAdmit(ps, 0, rej[:0])
		if admitted+len(rej) != hotBurst {
			b.Fatalf("admitted %d + rejected %d != offered %d", admitted, len(rej), hotBurst)
		}
		if len(rej) == 0 {
			b.Fatal("bound never triggered; the refusal path is unmeasured")
		}
		for q.Len() > 0 {
			if q.GroupDequeueBatch(0, 0, out) == 0 {
				b.Fatal("drain stalled with packets queued")
			}
		}
	}
	lap() // warm rings, flow tables, and both reject buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lap()
	}
	b.StopTimer()
	if pool.Allocs() != hotBurst {
		b.Fatalf("packet pool allocated beyond its pre-population: %d", pool.Allocs())
	}
}
