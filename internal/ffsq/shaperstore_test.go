package ffsq

import (
	"fmt"
	"math/rand"
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
	if limit := lead + 1 + chunkSlab; s.pool.chunks > limit {
		t.Fatalf("%d chunks allocated after the sweep, want at most %d (2*nb = %d buckets were visited)", s.pool.chunks, limit, 2*nb)
	}
	for s.DequeueBatch(^uint64(0), ns, ranks) > 0 {
	}
	free := 0
	for ch := s.pool.free; ch != nil; ch = ch.next {
		free++
	}
	if free != s.pool.chunks || s.Len() != 0 {
		t.Fatalf("drained store: %d of %d chunks free, Len %d", free, s.pool.chunks, s.Len())
	}
}

// TestShaperStoreMovesEachElementBoundedTimes is the store's twin of
// TestCFFSMovesEachElementBoundedTimes: an element beyond the window moves
// at most twice per coarse level it waits at (taken in, or sent back up
// from the bucket straddling the window's end and taken in on the next
// move), not once per window move. Release times spread over 4 to 256
// windows (a window is 2·numBuckets buckets) drain by a clock stepping an
// eighth of a half at a time; then a timer whose horizon is short of its
// backlog takes paced arrivals up to 64 windows ahead of a clock that keeps
// moving. Counts only.
func TestShaperStoreMovesEachElementBoundedTimes(t *testing.T) {
	const nb, gran, elems = 4096, 64, 1000
	out := make([]*bucket.Node, 256)
	ranks := make([]uint64, len(out))
	type subject interface {
		DequeueBatch(maxRank uint64, ns []*bucket.Node, ranks []uint64) int
		Len() int
		Moves() uint64
		CoarseClamped() uint64
		AuditChunks() error
	}
	drain := func(s subject, now uint64, name string) {
		for {
			k := s.DequeueBatch(now, out, ranks)
			for _, r := range ranks[:k] {
				if r/gran*gran > now {
					t.Fatalf("%s: release time %d left at %d", name, r, now)
				}
			}
			if k < len(out) {
				return
			}
		}
	}
	check := func(s subject, name string, elems int) {
		per := float64(s.Moves()) / float64(elems)
		t.Logf("%s: %.2f moves per element", name, per)
		if per > 4 { // two coarse levels span 4096 windows, more than any here
			t.Errorf("%s: %.1f moves per element, want at most 2 per coarse level, 4", name, per)
		}
		if k := s.CoarseClamped(); k != 0 {
			t.Errorf("%s: the coarse levels clamped %d arrivals", name, k)
		}
		if err := s.AuditChunks(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	nodes := make([]bucket.Node, elems)
	for _, spread := range []uint64{4, 16, 64, 256} {
		name := fmt.Sprintf("spread over %d windows", spread)
		s := NewShaperStore(nb, gran, 0)
		rng := rand.New(rand.NewSource(int64(spread)))
		for i := range nodes {
			at := uint64(rng.Int63n(int64(spread * 2 * nb * gran)))
			s.EnqueueBatch([]*bucket.Node{&nodes[i]}, []uint64{at}, []uint64{at})
		}
		for now := uint64(0); s.Len() > 0; now += nb * gran / 8 {
			drain(s, now, name)
		}
		check(s, name, elems)
	}

	s := NewTimerStore(nb, gran, 0)
	rng := rand.New(rand.NewSource(1))
	const ticks, perTick = 4000, 4
	ns := make([]*bucket.Node, perTick)
	ats := make([]uint64, perTick)
	now := uint64(0)
	for tick := 0; tick < ticks; tick++ {
		for i := range ns {
			ns[i] = &nodes[(tick*perTick+i)%elems]
			ats[i] = now + uint64(rng.Int63n(64*2*nb*gran))
		}
		s.EnqueueBatch(ns, ats, ats)
		now += nb * gran / 8
		drain(s, now, "paced timer")
	}
	for s.Len() > 0 {
		now += nb * gran / 8
		drain(s, now, "paced timer")
	}
	check(s, "paced timer", ticks*perTick)
}
