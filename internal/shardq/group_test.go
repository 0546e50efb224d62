package shardq

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eiffel/internal/bucket"
	"eiffel/internal/queue"
)

func TestGroupDefaultsAndRounding(t *testing.T) {
	forEachView(t, func(t *testing.T, v view) {
		if got := v.mk(viewOpts{shards: 8}).NumGroups(); got != 1 {
			t.Fatalf("default NumGroups = %d, want 1", got)
		}
		if got := v.mk(viewOpts{shards: 8, groups: 3}).NumGroups(); got != 4 {
			t.Fatalf("NumGroups(3) rounded to %d, want 4", got)
		}
		if got := v.mk(viewOpts{shards: 8, groups: 64}).NumGroups(); got != 8 {
			t.Fatalf("NumGroups(64) with 8 shards = %d, want clamp to 8", got)
		}
		c := v.mk(viewOpts{shards: 8, groups: 4})
		seen := make(map[int]bool)
		for g := 0; g < c.NumGroups(); g++ {
			lo, hi := c.GroupShards(g)
			if hi-lo != 2 {
				t.Fatalf("group %d owns [%d,%d), want 2 shards", g, lo, hi)
			}
			for i := lo; i < hi; i++ {
				if seen[i] {
					t.Fatalf("shard %d owned by two groups", i)
				}
				seen[i] = true
			}
		}
		if len(seen) != 8 {
			t.Fatalf("groups cover %d shards, want all 8", len(seen))
		}
		for flow := uint64(0); flow < 4096; flow++ {
			g := c.GroupFor(flow)
			lo, hi := c.GroupShards(g)
			if s := c.ShardFor(flow); s < lo || s >= hi {
				t.Fatalf("flow %d: shard %d outside GroupFor's range [%d,%d)", flow, s, lo, hi)
			}
		}
	})
}

// TestGroupPartitionInvariant is the randomized group-partition property
// test: many flows publish concurrently, four group workers drain
// concurrently, and every element must come out of exactly the group its
// flow hashes to — the invariant that makes parallel egress order-safe
// with zero cross-worker synchronization.
func TestGroupPartitionInvariant(t *testing.T) {
	const (
		producers = 4
		perProd   = 3000
		flows     = 257 // co-prime with everything in sight
	)
	forEachView(t, func(t *testing.T, v view) {
		c := v.mk(viewOpts{shards: 8, groups: 4, ringBits: 6})
		flowOf := make([]uint64, producers*perProd) // by element id; each producer writes its own range

		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w) + 99))
				for _, e := range mkElems(perProd) {
					e.id += w * perProd
					flow := uint64(w*flows + rng.Intn(flows))
					flowOf[e.id] = flow
					v.enq(c, flow, e, uint64(rng.Intn(1<<11)))
				}
			}(w)
		}
		wg.Wait()

		G := c.NumGroups()
		drained := make([][]*bucket.Node, G)
		var cwg sync.WaitGroup
		for g := 0; g < G; g++ {
			cwg.Add(1)
			go func(g int) {
				defer cwg.Done()
				out := make([]*bucket.Node, 97)
				for {
					k := c.GroupDequeueBatch(g, 0, ^uint64(0), out)
					if k == 0 {
						return // quiescent publish: empty pop == group drained
					}
					drained[g] = append(drained[g], out[:k]...)
				}
			}(g)
		}
		cwg.Wait()

		seen := make(map[int]bool, producers*perProd)
		for g := range drained {
			for _, n := range drained[g] {
				id := n.Data.(*elem).id
				if seen[id] {
					t.Fatalf("element %d drained twice", id)
				}
				seen[id] = true
				if want := c.GroupFor(flowOf[id]); want != g {
					t.Fatalf("flow %d drained by group %d, owned by group %d", flowOf[id], g, want)
				}
			}
		}
		if len(seen) != producers*perProd {
			t.Fatalf("drained %d, want %d", len(seen), producers*perProd)
		}
		if c.Len() != 0 {
			t.Fatalf("Len = %d after full drain", c.Len())
		}
	})
}

// TestGroupDrainMatchesSingleConsumerPerFlow publishes one identical
// element stream into a single-group runtime and a four-group runtime,
// then drains the first with one consumer and the second with four
// concurrent group workers: every flow's dequeue order must be IDENTICAL.
// This is the ordering half of the parallel-egress contract — groups
// relax only the interleaving across flows that hash to different groups.
func TestGroupDrainMatchesSingleConsumerPerFlow(t *testing.T) {
	const n = 12000
	const flows = 173
	rng := rand.New(rand.NewSource(5))
	type ev struct {
		flow, rank uint64
	}
	evs := make([]ev, n)
	for i := range evs {
		evs[i] = ev{flow: uint64(rng.Intn(flows)), rank: uint64(rng.Intn(1 << 11))}
	}

	forEachView(t, func(t *testing.T, v view) {
		perFlow := func(groups int) map[uint64][]int {
			c := v.mk(viewOpts{shards: 8, groups: groups, ringBits: 6})
			for i, e := range mkElems(n) {
				v.enq(c, evs[i].flow, e, evs[i].rank)
			}
			seq := make(map[uint64][]int)
			var mu sync.Mutex
			var wg sync.WaitGroup
			for g := 0; g < groups; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					out := make([]*bucket.Node, 64)
					local := make(map[uint64][]int)
					for {
						k := c.GroupDequeueBatch(g, 0, ^uint64(0), out)
						if k == 0 {
							break
						}
						for _, nd := range out[:k] {
							id := nd.Data.(*elem).id
							local[evs[id].flow] = append(local[evs[id].flow], id)
						}
					}
					mu.Lock()
					for f, s := range local {
						if len(seq[f]) > 0 {
							mu.Unlock()
							panic("flow drained by two groups")
						}
						seq[f] = s
					}
					mu.Unlock()
				}(g)
			}
			wg.Wait()
			return seq
		}

		single := perFlow(1)
		grouped := perFlow(4)
		if len(single) != len(grouped) {
			t.Fatalf("flow sets differ: %d vs %d", len(single), len(grouped))
		}
		for f, want := range single {
			got := grouped[f]
			if len(got) != len(want) {
				t.Fatalf("flow %d: %d elements under groups, %d under single consumer", f, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("flow %d position %d: element %d under groups, %d under single consumer",
						f, i, got[i], want[i])
				}
			}
		}
	})
}

// TestLenNeverNegativeDuringChurn is the qlen/occupancy regression test:
// producers squeezed through a tiny ring hammer the fallback-flush path
// while a consumer drains and a reader samples Len the whole time. Len
// must never go negative (the ring occupancy subtraction once loaded the
// cursors in an order that let a racing drain-publish-refill wrap it
// negative) and must return exactly to zero at quiescence — the mirror
// may transiently over-count, but never under-count or stick.
func TestLenNeverNegativeDuringChurn(t *testing.T) {
	const producers = 2
	const perProd = 30000
	forEachView(t, func(t *testing.T, v view) {
		c := v.mk(viewOpts{shards: 2, ringBits: 2}) // 4 slots: constant fallback + drain races

		var stopRead atomic.Bool
		var negative atomic.Int64
		var rwg sync.WaitGroup
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for !stopRead.Load() {
				if l := c.Len(); l < 0 {
					negative.Store(int64(l))
					return
				}
			}
		}()

		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perProd; i++ {
					v.enq(c, uint64(w*perProd+i), newElem(0, 0), uint64(i&1023))
				}
			}(w)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()

		out := make([]*bucket.Node, 128)
		consumed := 0
		producersDone := false
		deadline := time.Now().Add(20 * time.Second)
		for consumed < producers*perProd {
			k := drainAll(c, 0, ^uint64(0), out)
			consumed += k
			if k > 0 {
				continue
			}
			if producersDone {
				t.Fatalf("consumed %d of %d with producers done", consumed, producers*perProd)
			}
			if time.Now().After(deadline) {
				t.Fatal("churn run wedged")
			}
			select {
			case <-done:
				producersDone = true
			default:
			}
			runtime.Gosched()
		}
		stopRead.Store(true)
		rwg.Wait()
		if n := negative.Load(); n != 0 {
			t.Fatalf("Len went negative during churn: %d", n)
		}
		if l := c.Len(); l != 0 {
			t.Fatalf("Len = %d at quiescence, want exactly 0", l)
		}
	})
}

// TestShapedGroupPartitionAndOrder is the shaped runtime's group test:
// elements with release times and priorities publish across two groups,
// each group's worker migrates and drains on its own clock, and the
// output must keep (a) the flow→group partition, (b) release gating
// (nothing before its sendAt bucket), and (c) priority order within each
// group's drain.
func TestShapedGroupPartitionAndOrder(t *testing.T) {
	const n = 6000
	q := NewShaped(ShapedOptions{
		NumShards: 4,
		NumGroups: 2,
		RingBits:  6,
		Shaper:    queue.Config{NumBuckets: 1 << 12, Granularity: 1},
		Sched:     queue.Config{NumBuckets: 1 << 12, Granularity: 1},
		Pair:      pairElem,
	})
	rng := rand.New(rand.NewSource(11))
	elems := make(map[*bucket.Node]*elem, n) // keyed by SCHED handle (drains return it)
	flowOfSched := make(map[*bucket.Node]uint64, n)
	for i := 0; i < n; i++ {
		e := newElem(uint64(rng.Intn(1<<10)), uint64(rng.Intn(1<<11)))
		flow := uint64(rng.Intn(211))
		elems[&e.sched] = e
		flowOfSched[&e.sched] = flow
		q.Enqueue(flow, &e.timer, e.sendAt, e.rank)
	}

	now := uint64(1 << 10) // everything due
	var wg sync.WaitGroup
	drained := make([][]*bucket.Node, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]*bucket.Node, 128)
			for {
				k := q.GroupDequeueBatch(g, now, ^uint64(0), out)
				if k == 0 {
					return
				}
				drained[g] = append(drained[g], out[:k]...)
			}
		}(g)
	}
	wg.Wait()

	total := 0
	for g := range drained {
		last := uint64(0)
		for i, nd := range drained[g] {
			e, ok := elems[nd]
			if !ok {
				t.Fatalf("group %d drained an unknown handle", g)
			}
			if want := q.GroupFor(flowOfSched[nd]); want != g {
				t.Fatalf("flow %d drained by group %d, owned by group %d", flowOfSched[nd], g, want)
			}
			if i > 0 && e.rank < last {
				t.Fatalf("group %d: priority inversion %d after %d", g, e.rank, last)
			}
			last = e.rank
			total++
		}
	}
	if total != n {
		t.Fatalf("drained %d, want %d", total, n)
	}
	if q.Len() != 0 {
		t.Fatalf("Len=%d after full drain", q.Len())
	}
	for g := 0; g < 2; g++ {
		if _, _, ok := q.GroupPeek(g, now); ok {
			t.Fatalf("group %d still reports a head after full drain", g)
		}
	}
}
