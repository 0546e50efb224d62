package ffsq

import (
	"testing"

	"eiffel/internal/bucket"
)

// TestShaperStoreChunkPoolFollowsBacklog sweeps the window over several
// full horizons under a small standing backlog: every bucket of both
// halves is used and emptied again and again, and the pool must stay at
// what the backlog needs at once — not grow with the buckets visited, as
// one backing array per bucket would.
func TestShaperStoreChunkPoolFollowsBacklog(t *testing.T) {
	const nb, gran, lead = 1 << 10, 1, 40
	s := NewShaperStore(nb, gran, 0)
	ns := make([]*bucket.Node, 256)
	ranks := make([]uint64, 256)
	nodes := make([]bucket.Node, 8)
	for now := uint64(0); now < 5*2*nb; now++ {
		// Eight arrivals per tick, released lead ticks later: a backlog of
		// ~8*lead elements over ~lead live buckets.
		for i := range nodes {
			ns[i] = &nodes[i]
			ranks[i] = now + lead
		}
		s.EnqueueBatch(ns[:len(nodes)], ranks[:len(nodes)], ranks[:len(nodes)])
		for s.DequeueBatch(now, ns, ranks) > 0 {
		}
	}
	// One partly filled chunk per live bucket, plus one slab of slack.
	if limit := lead + 1 + chunkSlab; s.chunks > limit {
		t.Fatalf("%d chunks allocated after the sweep, want at most %d (2*nb = %d buckets were visited)", s.chunks, limit, 2*nb)
	}
	for s.DequeueBatch(^uint64(0), ns, ranks) > 0 {
	}
	free := 0
	for ch := s.free; ch != nil; ch = ch.next {
		free++
	}
	if free != s.chunks || s.Len() != 0 {
		t.Fatalf("drained store: %d of %d chunks free, Len %d", free, s.chunks, s.Len())
	}
}
