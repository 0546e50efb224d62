package eiffel_test

import (
	"testing"

	"eiffel"
)

// TestEnqueueHotPathAllocationFree is the tentpole's allocation assertion
// outside the bench runner: a steady-state publish→drain lap through the
// batched producer pipeline — packet pool, staged batch admission,
// multi-slot ring claims, merged drain, pool recycling — must allocate
// NOTHING, and the packet pool must stay flat (no pool misses).
func TestEnqueueHotPathAllocationFree(t *testing.T) {
	const burst = 512
	q := eiffel.NewMultiShaped(eiffel.MultiShapedOptions{ShapedShardedOptions: eiffel.ShapedShardedOptions{
		Shards: 4, HorizonNs: 1 << 20, RankSpan: 1 << 20,
	}})
	pool := eiffel.NewPool(burst)
	ps := make([]*eiffel.Packet, burst)
	out := make([]*eiffel.Packet, 128)
	now := int64(1 << 19)

	lap := func() {
		for i := range ps {
			p := pool.Get()
			p.Flow = uint64(i)
			p.SendAt = int64(i % (1 << 18))
			p.Rank = uint64((i * 131) % (1 << 20))
			ps[i] = p
		}
		q.EnqueueBatch(ps, now)
		drained := 0
		for drained < burst {
			k := q.GroupDequeueBatch(0, 1<<20, out)
			if k == 0 {
				t.Fatalf("drain stalled at %d of %d", drained, burst)
			}
			for _, p := range out[:k] {
				pool.Put(p)
			}
			drained += k
		}
	}

	lap() // warm internal buffers (staging, scratch, vector buckets)
	lap()
	base := pool.Allocs()
	if avg := testing.AllocsPerRun(50, lap); avg != 0 {
		t.Fatalf("steady-state lap allocates %.1f objects, want 0", avg)
	}
	if got := pool.Allocs(); got != base {
		t.Fatalf("packet pool grew from %d to %d allocations in steady state", base, got)
	}
}
