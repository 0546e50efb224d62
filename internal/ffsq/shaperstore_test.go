package ffsq

import (
	"math/rand"
	"sort"
	"testing"

	"eiffel/internal/bucket"
)

// storeModel is the reference a ShaperStore is checked against: every
// queued element with the bucket it must leave from, kept in arrival order.
// An element's bucket is its own (at/gran), or the window's first bucket as
// of its arrival when its own lies behind that — the one thing the model
// takes from the store — and a drain must return exactly the elements whose
// bucket starts at or below the bound, by (bucket, arrival), up to its
// room. The checks that need no window position at all — never early,
// never held at a bound that has passed the element's own bucket, the
// window never ahead of the largest bound served — are asserted beside it.
type storeModel struct {
	t     *testing.T
	s     *ShaperStore
	nodes []bucket.Node // handle i is element i
	q     []modelElem
	bound uint64 // largest drain bound served, or the store's start
	ns    []*bucket.Node
	ranks []uint64
}

type modelElem struct {
	id      int
	at, key uint64
}

func newStoreModel(t *testing.T, nb int, gran, start uint64) *storeModel {
	return &storeModel{
		t: t, s: NewShaperStore(nb, gran, start), bound: start,
		nodes: make([]bucket.Node, 0, 1<<12),
		ns:    make([]*bucket.Node, 256), ranks: make([]uint64, 256),
	}
}

func modelRank(id int) uint64 { return uint64(id)*7 + 1 }

func (m *storeModel) enqueue(at uint64) {
	if len(m.nodes) == cap(m.nodes) {
		m.t.Fatal("model out of handles (they must not move)")
	}
	id := len(m.nodes)
	m.nodes = m.nodes[:id+1]
	key := at / m.s.gran
	if len(m.q) > 0 && key < m.s.hIndex {
		key = m.s.hIndex
	}
	m.q = append(m.q, modelElem{id, at, key})
	m.s.EnqueueBatch([]*bucket.Node{&m.nodes[id]}, []uint64{at}, []uint64{modelRank(id)})
	m.check()
}

// dequeue drains up to room elements at bound, which must not step back.
func (m *storeModel) dequeue(bound uint64, room int) int {
	t, gran := m.t, m.s.gran
	if bound > m.bound {
		m.bound = bound
	}
	order := make([]int, len(m.q))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return m.q[order[a]].key < m.q[order[b]].key })
	var want []int
	for _, i := range order {
		if len(want) < room && m.q[i].key*gran <= bound {
			want = append(want, i)
		}
	}
	k := m.s.DequeueBatch(bound, m.ns[:room], m.ranks)
	if k != len(want) {
		t.Fatalf("DequeueBatch(%d, room %d) = %d elements, model says %d", bound, room, k, len(want))
	}
	gone := make(map[int]bool, k)
	for j, i := range want {
		e := m.q[i]
		if m.ns[j] != &m.nodes[e.id] || m.ranks[j] != modelRank(e.id) {
			t.Fatalf("DequeueBatch(%d) position %d: not element %d with its rank", bound, j, e.id)
		}
		if e.at/gran*gran > bound {
			t.Fatalf("element %d (at %d) left at bound %d, before its bucket", e.id, e.at, bound)
		}
		gone[i] = true
	}
	rest := m.q[:0]
	for i, e := range m.q {
		if !gone[i] {
			rest = append(rest, e)
		}
	}
	m.q = rest
	if k < room {
		for _, e := range m.q {
			if e.at/gran*gran <= bound {
				t.Fatalf("element %d (at %d) held back at bound %d with room to spare", e.id, e.at, bound)
			}
		}
	}
	m.check()
	return k
}

// check holds the store to the model's length and head, Min to a pure
// peek, the window to the bounds served, and the chunk pool to handing
// every chunk to exactly one owner.
func (m *storeModel) check() {
	t, s := m.t, m.s
	if s.Len() != len(m.q) {
		t.Fatalf("Len = %d, model holds %d", s.Len(), len(m.q))
	}
	h, chunks := s.hIndex, s.chunks
	r1, ok1 := s.Min()
	r2, ok2 := s.Min()
	if r1 != r2 || ok1 != ok2 || s.hIndex != h || s.chunks != chunks {
		t.Fatalf("Min is not a pure peek: (%d,%v) then (%d,%v), window %d -> %d", r1, ok1, r2, ok2, h, s.hIndex)
	}
	want, ok := uint64(0), false
	for _, e := range m.q {
		if !ok || e.key < want {
			want, ok = e.key, true
		}
	}
	if ok1 != ok || r1 != want*s.gran {
		t.Fatalf("Min = (%d,%v), model says (%d,%v)", r1, ok1, want*s.gran, ok)
	}
	if s.hIndex > m.bound/s.gran {
		t.Fatalf("window starts at bucket %d, ahead of the largest bound served (%d)", s.hIndex, m.bound)
	}

	seen := map[*chunk]bool{}
	live := 0
	walk := func(l chain) {
		for ch := l.head; ch != nil; ch = ch.next {
			if seen[ch] {
				t.Fatal("a chunk is linked twice")
			}
			seen[ch] = true
			live += ch.n - ch.off
			if ch.next == nil && ch != l.tail {
				t.Fatal("a chain's tail is not its last chunk")
			}
		}
	}
	for i := range s.prim.b {
		walk(s.prim.b[i])
		walk(s.sec.b[i])
	}
	walk(s.over)
	for ch := s.free; ch != nil; ch = ch.next {
		if seen[ch] {
			t.Fatal("a chunk is in the free list and somewhere else")
		}
		seen[ch] = true
	}
	if live != s.count || len(seen) != s.chunks {
		t.Fatalf("chunk accounting: %d live elements (count %d), %d chunks reachable of %d allocated",
			live, s.count, len(seen), s.chunks)
	}
}

const fuzzMaxOps = 400

func satAdd(a, b uint64) uint64 {
	if a+b < a {
		return ^uint64(0)
	}
	return a + b
}

// storeGeometries are the windows the fuzz target picks from: a tiny one
// that rotates and overflows constantly, one with buckets wider than one
// rank, and the late-clamp reproduction's (64 buckets of 64 ns).
var storeGeometries = []struct {
	nb   int
	gran uint64
}{{4, 1}, {8, 4}, {64, 64}}

// FuzzShaperStore drives a store and its model with an op sequence:
// byte 0 picks the geometry, then three bytes per op — a kind and a 16-bit
// argument. Release times are taken relative to a clock that only moves
// forward, ahead of it, behind it, absolute, and down from the top of the
// rank space; drains run at the clock. A final drain at the largest rank
// must empty both.
func FuzzShaperStore(f *testing.F) {
	op := func(kind byte, arg uint16) []byte { return []byte{kind, byte(arg >> 8), byte(arg)} }
	seq := func(geom byte, ops ...[]byte) []byte {
		b := []byte{geom}
		for _, o := range ops {
			b = append(b, o...)
		}
		return b
	}
	// The shaped front's late-clamp sequence: a far release, a peek, then
	// earlier releases arriving behind it.
	f.Add(seq(2, op(0, 5000), op(7, 0), op(0, 100), op(5, 50), op(7, 63), op(0, 100), op(5, 150), op(7, 63)))
	// Ranks at 0 and at the top; the final drain has to reach the latter.
	f.Add(seq(0, op(3, 0), op(4, 0), op(4, 1), op(3, 0), op(7, 63), op(4, 0)))
	// Beyond the horizon: overflow chain, fast-forward, and a second
	// overflow generation left behind by the first jump.
	f.Add(seq(1, op(1, 16), op(1, 17), op(1, 400), op(1, 40), op(0, 3), op(6, 20), op(7, 63), op(6, 30), op(7, 0), op(6, 400), op(7, 63)))
	// Release times stepping backwards behind a window that has moved on.
	f.Add(seq(1, op(0, 60), op(6, 16), op(7, 63), op(0, 40), op(2, 50), op(2, 20), op(3, 1), op(7, 1), op(7, 63), op(2, 64)))
	// One bucket deeper than a chunk, drained a few at a time.
	big := []byte{0}
	for i := 0; i < 3*chunkLen+5; i++ {
		big = append(big, op(0, 2)...)
	}
	for i := 0; i < 40; i++ {
		big = append(big, op(5, 1)...)
		big = append(big, op(7, 6)...)
	}
	f.Add(big)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := storeGeometries[int(data[0])%len(storeGeometries)]
		m := newStoreModel(t, g.nb, g.gran, 0)
		now := uint64(0)
		// The model is quadratic in the ops: cap them so the mutator spends
		// its time on sequences, not on length.
		data = data[1:min(len(data), 1+3*fuzzMaxOps)]
		for ; len(data) >= 3; data = data[3:] {
			arg := uint64(data[1])<<8 | uint64(data[2])
			switch data[0] % 8 {
			case 0:
				m.enqueue(satAdd(now, arg))
			case 1:
				m.enqueue(satAdd(now, arg*g.gran))
			case 2:
				m.enqueue(now - min(arg, now))
			case 3:
				m.enqueue(arg)
			case 4:
				m.enqueue(^uint64(0) - arg)
			case 5:
				now = satAdd(now, arg)
			case 6:
				now = satAdd(now, arg*g.gran)
			case 7:
				m.dequeue(now, 1+int(arg%64))
			}
		}
		for len(m.q) > 0 {
			if m.dequeue(^uint64(0), 64) == 0 {
				t.Fatalf("final drain stalled with %d queued", len(m.q))
			}
		}
	})
}

// TestShaperStoreGatesAndOrders: nothing leaves before its bucket, buckets
// leave in ascending order, and a bucket leaves in arrival order with each
// handle's scheduler rank beside it.
func TestShaperStoreGatesAndOrders(t *testing.T) {
	m := newStoreModel(t, 16, 10, 0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		m.enqueue(uint64(rng.Intn(16 * 10 * 5))) // up to 2.5 horizons out
	}
	for now := uint64(0); len(m.q) > 0; now += 7 {
		m.dequeue(now, 1+rng.Intn(40))
	}
}

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

// TestShaperStoreIdleWindowFollowsClock: a store drained empty parks the
// next burst in its window however long it sat idle, instead of piling it
// into the overflow chain for a later jump to sort out.
func TestShaperStoreIdleWindowFollowsClock(t *testing.T) {
	m := newStoreModel(t, 8, 1, 0)
	m.enqueue(3)
	m.dequeue(5, 8)
	m.dequeue(1000, 8) // idle
	m.enqueue(1004)
	m.enqueue(1002)
	if m.s.over.head != nil {
		t.Fatal("a burst just ahead of the clock landed in the overflow chain")
	}
	m.dequeue(1003, 8)
	m.dequeue(1004, 8)
}
