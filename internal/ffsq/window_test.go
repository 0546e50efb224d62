package ffsq_test

import (
	"math/rand"
	"slices"
	"testing"

	"eiffel/internal/bucket"
	"eiffel/internal/ffsq"
	"eiffel/internal/gradq"
)

// windowModel is the executable statement of the window's rules (W1–W3 in
// ffsq.Window's doc), and the reference every queue over a Window is checked
// against. It holds the queued elements in arrival order, each with the
// bucket it must leave from — its own (rank/gran), or the window's first
// bucket as of its arrival when its own lay behind that — and its own copy
// of the window start, moved by the rules alone:
//
//   - an arrival at an empty window behind its start slides it back to
//     nb-1 buckets short of the arrival (W3);
//   - a drain that still has room and finds nothing in the primary half
//     [start, start+nb) moves on only if its bound has reached the lowest
//     bucket beyond: by nb when that bucket is in the secondary half, else
//     to nb-1 buckets short of it (W2); a pop is a drain with no bound;
//   - a clocked subject's bounded drain that empties the queue leaves start
//     at its bound; any other leaves it where it was (W3);
//   - nothing else moves it, a peek least of all (W1).
//
// Elements leave by (bucket, arrival). Because the model never reads the
// subject's window, a subject whose window ran ahead of the rules shows up
// as a peek or a drain that disagrees. Beside it the model asserts what
// must hold whatever the window does: nothing leaves before its own bucket,
// nothing stays when a bound no smaller than any before has passed its own
// bucket and there was room (late clamp cannot happen), and start is never
// ahead of the largest bound served.
type windowModel struct {
	t        *testing.T
	s        subject
	nb, gran uint64
	start    uint64
	served   uint64 // largest drain bound served (a pop serves its bucket)
	q        []modelElem
	nodes    []bucket.Node // handle i is element i; Data holds i
	out      []*bucket.Node
}

type modelElem struct {
	id        int
	rank, key uint64
}

// subject is a queue over a Window as the model drives it. An exact subject
// serves the lowest bucket; an approximate one (CApprox) serves a bucket of
// the lowest occupied half; a clocked one takes its drain bounds for a clock
// and lets an emptied window follow them. drain, pop, front and remove
// report ok=false when the subject has no such operation.
type subject interface {
	name() string
	exact() bool
	clocked() bool
	enqueue(n *bucket.Node, rank uint64)
	len() int
	peek() (uint64, bool)
	drain(bound uint64, out []*bucket.Node) (k int, ok bool)
	pop() (n *bucket.Node, ok bool)
	front() (n *bucket.Node, ok bool)
	remove(n *bucket.Node) bool
	audit() error
}

func schedRank(n *bucket.Node) uint64 { return uint64(n.Data.(int))*7 + 1 }

type cffsSubject struct{ q *ffsq.CFFS }

func (s cffsSubject) name() string                        { return "CFFS" }
func (s cffsSubject) exact() bool                         { return true }
func (s cffsSubject) clocked() bool                       { return false }
func (s cffsSubject) enqueue(n *bucket.Node, rank uint64) { s.q.Enqueue(n, rank) }
func (s cffsSubject) len() int                            { return s.q.Len() }
func (s cffsSubject) peek() (uint64, bool)                { return s.q.Min() }
func (s cffsSubject) pop() (*bucket.Node, bool)           { return s.q.DequeueMin(), true }
func (s cffsSubject) front() (*bucket.Node, bool)         { return s.q.FrontMin(), true }
func (s cffsSubject) remove(n *bucket.Node) bool          { s.q.Remove(n); return true }
func (s cffsSubject) audit() error                        { return nil }
func (s cffsSubject) drain(bound uint64, out []*bucket.Node) (int, bool) {
	return s.q.DequeueBatch(bound, out), true
}

// storeSubject carries a scheduler rank beside every handle and checks it
// comes back beside the same handle; a timer store's rank is the release
// time, which the handle records for the check.
type storeSubject struct {
	t     *testing.T
	q     parkStore
	ranks []uint64
	timer bool
}

// parkStore is ffsq.ShaperStore or ffsq.TimerStore.
type parkStore interface {
	EnqueueBatch(ns []*bucket.Node, ats, ranks []uint64)
	DequeueBatch(maxRank uint64, ns []*bucket.Node, ranks []uint64) int
	Min() (uint64, bool)
	Len() int
	AuditChunks() error
}

func newStoreSubject(t *testing.T, nb int, gran, start uint64, timer bool) storeSubject {
	if timer {
		return storeSubject{t, ffsq.NewTimerStore(nb, gran, start), make([]uint64, 256), true}
	}
	return storeSubject{t, ffsq.NewShaperStore(nb, gran, start), make([]uint64, 256), false}
}

func (s storeSubject) name() string {
	if s.timer {
		return "TimerStore"
	}
	return "ShaperStore"
}

func (s storeSubject) exact() bool                 { return true }
func (s storeSubject) clocked() bool               { return true }
func (s storeSubject) len() int                    { return s.q.Len() }
func (s storeSubject) peek() (uint64, bool)        { return s.q.Min() }
func (s storeSubject) pop() (*bucket.Node, bool)   { return nil, false }
func (s storeSubject) front() (*bucket.Node, bool) { return nil, false }
func (s storeSubject) remove(*bucket.Node) bool    { return false }
func (s storeSubject) audit() error                { return s.q.AuditChunks() }
func (s storeSubject) rank(n *bucket.Node) uint64 {
	if s.timer {
		return n.Rank()
	}
	return schedRank(n)
}
func (s storeSubject) enqueue(n *bucket.Node, rank uint64) {
	n.SetRank(rank)
	s.q.EnqueueBatch([]*bucket.Node{n}, []uint64{rank}, []uint64{s.rank(n)})
}
func (s storeSubject) drain(bound uint64, out []*bucket.Node) (int, bool) {
	k := s.q.DequeueBatch(bound, out, s.ranks)
	for j, n := range out[:k] {
		if s.ranks[j] != s.rank(n) {
			s.t.Fatalf("%s: element %d came back with scheduler rank %d", s.name(), n.Data, s.ranks[j])
		}
	}
	return k, true
}

type approxSubject struct{ q *gradq.CApprox }

func (s approxSubject) name() string                             { return "CApprox" }
func (s approxSubject) exact() bool                              { return false }
func (s approxSubject) clocked() bool                            { return false }
func (s approxSubject) enqueue(n *bucket.Node, rank uint64)      { s.q.Enqueue(n, rank) }
func (s approxSubject) len() int                                 { return s.q.Len() }
func (s approxSubject) peek() (uint64, bool)                     { return s.q.PeekMin() }
func (s approxSubject) pop() (*bucket.Node, bool)                { return s.q.DequeueMin(), true }
func (s approxSubject) front() (*bucket.Node, bool)              { return nil, false }
func (s approxSubject) remove(n *bucket.Node) bool               { s.q.Remove(n); return true }
func (s approxSubject) audit() error                             { return nil }
func (s approxSubject) drain(uint64, []*bucket.Node) (int, bool) { return 0, false }

func newSubjects(t *testing.T, nb int, gran, start uint64) []subject {
	return []subject{
		cffsSubject{ffsq.NewCFFS(ffsq.CFFSOptions{NumBuckets: nb, Granularity: gran, Start: start})},
		newStoreSubject(t, nb, gran, start, false),
		newStoreSubject(t, nb, gran, start, true),
		approxSubject{gradq.NewCApprox(gradq.CApproxOptions{NumBuckets: nb, Granularity: gran, Start: start})},
	}
}

func newWindowModel(t *testing.T, s subject, nb int, gran, start uint64) *windowModel {
	return &windowModel{
		t: t, s: s, nb: uint64(nb), gran: gran, start: start / gran, served: start,
		nodes: make([]bucket.Node, 0, 1<<12), out: make([]*bucket.Node, 256),
	}
}

// half is the part of the window bucket key lies in: 0 primary, 1
// secondary, 2 beyond (the overflow list).
func (m *windowModel) half(key uint64) int { return int(min((key-m.start)/m.nb, 2)) }

// head is the queue position of the element that leaves first — lowest
// bucket, earliest arrival — or -1.
func (m *windowModel) head() int {
	best := -1
	for i, e := range m.q {
		if best < 0 || e.key < m.q[best].key {
			best = i
		}
	}
	return best
}

// reach is the model's Step: with the primary half empty and a bound that
// has reached head's bucket, the window moves. It reports whether the
// primary half holds head afterwards.
func (m *windowModel) reach(head int, bound uint64) bool {
	key := m.q[head].key
	if key*m.gran > bound {
		return false
	}
	switch m.half(key) {
	case 1:
		m.start += m.nb
	case 2:
		m.start = key - min(key, m.nb-1)
	}
	m.serve(key * m.gran)
	return true
}

func (m *windowModel) serve(bound uint64) {
	m.served = max(m.served, bound)
	if m.start > m.served/m.gran {
		m.t.Fatalf("model window starts at bucket %d, ahead of the largest bound served (%d)", m.start, m.served)
	}
}

func (m *windowModel) enqueue(rank uint64) {
	if len(m.nodes) == cap(m.nodes) {
		m.t.Fatal("model out of handles (they must not move)")
	}
	id := len(m.nodes)
	m.nodes = append(m.nodes, bucket.Node{Data: id})
	key := rank / m.gran
	if key < m.start {
		if len(m.q) == 0 {
			m.start = key - min(key, m.nb-1)
		} else {
			key = m.start
		}
	}
	m.q = append(m.q, modelElem{id, rank, key})
	m.s.enqueue(&m.nodes[id], rank)
	m.check()
}

// took checks that n is an element the model lets leave now — head exactly,
// or for an approximate subject the first arrival of any bucket in head's
// half — at a bound that has reached its own bucket, and returns its queue
// position.
func (m *windowModel) took(n *bucket.Node, head int, bound uint64) int {
	t := m.t
	at := -1
	for i, e := range m.q {
		if &m.nodes[e.id] == n {
			at = i
			break
		}
	}
	if at < 0 {
		t.Fatalf("%s handed out a node that is not queued", m.s.name())
	}
	e := m.q[at]
	if m.s.exact() && at != head {
		t.Fatalf("%s handed out element %d (rank %d), model says %d (rank %d)", m.s.name(), e.id, e.rank, m.q[head].id, m.q[head].rank)
	}
	if m.half(e.key) != m.half(m.q[head].key) {
		t.Fatalf("%s served element %d (rank %d) before its half", m.s.name(), e.id, e.rank)
	}
	for _, o := range m.q[:at] {
		if o.key == e.key {
			t.Fatalf("%s served element %d ahead of %d, which arrived in its bucket first", m.s.name(), e.id, o.id)
		}
	}
	if e.rank/m.gran*m.gran > bound {
		t.Fatalf("%s: element %d (rank %d) left at bound %d, before its bucket", m.s.name(), e.id, e.rank, bound)
	}
	return at
}

func (m *windowModel) drop(at int) { m.q = append(m.q[:at], m.q[at+1:]...) }

// drain serves up to room elements at bound through the subject's bounded
// drain, or when it has none the way a clocked user of PeekMin/DequeueMin
// does: pop while the peek is due.
func (m *windowModel) drain(bound uint64, room int) int {
	t := m.t
	k, ok := m.s.drain(bound, m.out[:room])
	if !ok {
		for ; k < room; k++ {
			if r, ok := m.s.peek(); !ok || r > bound {
				break
			}
			m.pop()
		}
		return k
	}
	var want []int // ids, in leaving order
	for len(want) < room && len(m.q) > 0 {
		head := m.head()
		key := m.q[head].key
		if m.half(key) != 0 {
			if !m.reach(head, bound) {
				break
			}
			continue
		}
		if key*m.gran > bound {
			break
		}
		rest := m.q[:0]
		for _, e := range m.q {
			if e.key == key && len(want) < room {
				if e.rank/m.gran*m.gran > bound {
					t.Fatalf("model: element %d (rank %d) leaves at bound %d, before its bucket", e.id, e.rank, bound)
				}
				want = append(want, e.id)
			} else {
				rest = append(rest, e)
			}
		}
		m.q = rest
	}
	latest := bound >= m.served
	m.serve(bound)
	if len(m.q) == 0 && m.s.clocked() {
		m.start = max(m.start, bound/m.gran)
	}
	if k != len(want) {
		t.Fatalf("%s.DequeueBatch(%d, room %d) = %d elements, model says %d", m.s.name(), bound, room, k, len(want))
	}
	for j, id := range want {
		if m.out[j] != &m.nodes[id] {
			t.Fatalf("%s.DequeueBatch(%d) position %d: element %d, model says %d", m.s.name(), bound, j, m.out[j].Data, id)
		}
	}
	if k < room && latest {
		for _, e := range m.q {
			if e.rank/m.gran*m.gran <= bound {
				t.Fatalf("%s held element %d (rank %d) back at bound %d with room to spare", m.s.name(), e.id, e.rank, bound)
			}
		}
	}
	m.check()
	return k
}

// next moves the model's window as a pop or a front moves it and returns
// the queue position of the element they serve, or -1.
func (m *windowModel) next() int {
	head := m.head()
	if head >= 0 && m.half(m.q[head].key) != 0 {
		m.reach(head, ^uint64(0))
	}
	return head
}

func (m *windowModel) pop() {
	n, ok := m.s.pop()
	if !ok {
		return
	}
	head := m.next()
	switch {
	case head < 0:
		if n != nil {
			m.t.Fatalf("%s popped from an empty queue", m.s.name())
		}
		return
	case n == nil:
		m.t.Fatalf("%s popped nil with %d queued", m.s.name(), len(m.q))
	}
	at := m.took(n, head, ^uint64(0))
	m.serve(m.q[at].key * m.gran)
	m.drop(at)
	m.check()
}

func (m *windowModel) front() {
	n, ok := m.s.front()
	if !ok {
		return
	}
	head := m.next()
	if head < 0 {
		if n != nil {
			m.t.Fatalf("%s has a front with nothing queued", m.s.name())
		}
		return
	}
	m.took(n, head, ^uint64(0))
	m.serve(m.q[head].key * m.gran)
	m.check()
}

// remove detaches the element at queue position at.
func (m *windowModel) remove(at int) {
	if m.s.remove(&m.nodes[m.q[at].id]) {
		m.drop(at)
		m.check()
	}
}

// overflowMin is the queue position of the lowest element beyond the
// window, or -1.
func (m *windowModel) overflowMin() int {
	best := -1
	for i, e := range m.q {
		if m.half(e.key) == 2 && (best < 0 || e.key < m.q[best].key) {
			best = i
		}
	}
	return best
}

// check holds the subject to the model's length and — a pure peek, asked
// twice — to its head: exactly, or for an approximate subject to an occupied
// bucket of head's half (beyond the window, to the minimum exactly).
func (m *windowModel) check() {
	t, s := m.t, m.s
	if s.len() != len(m.q) {
		t.Fatalf("%s.Len = %d, model holds %d", s.name(), s.len(), len(m.q))
	}
	r1, ok1 := s.peek()
	r2, ok2 := s.peek()
	if r1 != r2 || ok1 != ok2 {
		t.Fatalf("%s: peek is not pure: (%d,%v) then (%d,%v)", s.name(), r1, ok1, r2, ok2)
	}
	head := m.head()
	if ok1 != (head >= 0) {
		t.Fatalf("%s: peek ok=%v with %d queued", s.name(), ok1, len(m.q))
	}
	if head >= 0 {
		want := m.q[head].key
		match := r1 == want*m.gran
		if h := m.half(want); !s.exact() && h != 2 {
			match = false
			for _, e := range m.q {
				match = match || (m.half(e.key) == h && r1 == e.key*m.gran)
			}
		}
		if !match {
			t.Fatalf("%s: peek = %d, model's head is bucket %d (rank %d) with the window at %d", s.name(), r1, want, want*m.gran, m.start)
		}
	}
	if err := s.audit(); err != nil {
		t.Fatalf("%s: %v", s.name(), err)
	}
}

func satAdd(a, b uint64) uint64 {
	if a+b < a {
		return ^uint64(0)
	}
	return a + b
}

// windowGeometries are the windows the fuzz target picks from: a tiny one
// that swaps and overflows constantly, one with buckets wider than one
// rank, and the late-clamp reproduction's (64 buckets of 64 ns).
var windowGeometries = []struct {
	nb   int
	gran uint64
}{{4, 1}, {8, 4}, {64, 64}}

const fuzzMaxOps = 300

// FuzzWindow drives every queue over a Window — CFFS, the shaper and timer
// stores, CApprox — and a model each with one op sequence: byte 0 picks the
// geometry, then three bytes per op, a kind and a 16-bit argument. Ranks
// are taken relative to a clock that only moves forward (ahead of it,
// behind it), absolute, and down from the top of the rank space; bounded
// drains run at the clock or, as an unclocked user's, at ^0; pops and fronts
// whenever, removals anywhere and at the overflow minimum. An op a subject lacks is skipped for it (a
// CApprox drains by peek-and-pop). A final drain must empty all.
func FuzzWindow(f *testing.F) {
	op := func(kind byte, arg uint16) []byte { return []byte{kind, byte(arg >> 8), byte(arg)} }
	seq := func(geom byte, ops ...[]byte) []byte {
		b := []byte{geom}
		for _, o := range ops {
			b = append(b, o...)
		}
		return b
	}
	// TestLateClamp's two sequences: a far release (every op peeks), then
	// an earlier one behind it, drained at its own time; and the same on an
	// idle window with the far release beyond the horizon.
	f.Add(seq(2, op(0, 5000), op(0, 100), op(5, 50), op(7, 63), op(5, 150), op(7, 63), op(8, 0)))
	f.Add(seq(2, op(0, 20000), op(0, 100), op(5, 200), op(7, 63), op(8, 0), op(8, 0)))
	// Ranks at 0 and at the top; the final drain has to reach the latter.
	f.Add(seq(0, op(3, 0), op(4, 0), op(4, 1), op(3, 0), op(7, 63), op(8, 0), op(4, 0), op(9, 0)))
	// Many horizons out: overflow list, jump, and a second overflow
	// generation left behind by the first jump.
	f.Add(seq(1, op(1, 16), op(1, 17), op(1, 400), op(1, 40), op(0, 3), op(6, 20), op(7, 63), op(6, 30), op(7, 0), op(9, 0), op(6, 400), op(7, 63)))
	// Release times stepping backwards behind a window that has moved on.
	f.Add(seq(1, op(0, 60), op(6, 16), op(7, 63), op(0, 40), op(2, 50), op(2, 20), op(3, 1), op(7, 1), op(8, 0), op(7, 63), op(2, 64)))
	// Remove the overflow minimum, twice, then what is left of the window.
	f.Add(seq(0, op(0, 2), op(0, 30), op(0, 20), op(0, 25), op(11, 0), op(11, 0), op(10, 0), op(9, 0), op(8, 0), op(8, 0)))
	// An unclocked consumer that keeps up: drained empty at ^0, then a burst
	// whose later ranks lie below its first (TestWindowUnclockedBursts).
	f.Add(seq(0, op(3, 900), op(12, 63), op(3, 1000), op(3, 998), op(3, 999), op(3, 997), op(3, 1005), op(12, 63)))
	// A CFFS's coarse level. The top coarse bucket, [^0-3, ^0], straddles
	// the end of the window the pop jumps to: ^0-3 and ^0-2 move in, and
	// ^0-1 and ^0 itself stay behind in that bucket.
	f.Add(seq(0, op(4, 6), op(4, 0), op(4, 2), op(4, 3), op(4, 1), op(8, 0), op(9, 0), op(8, 0), op(11, 0), op(8, 0), op(8, 0)))
	// An overflow three levels out (coarse levels of 4, 256 and 16384
	// ranks a bucket), and the overflow minimum removed twice: the second
	// removal leaves the first coarse level's halves empty.
	f.Add(seq(0, op(3, 0), op(3, 100), op(3, 5000), op(3, 60000), op(3, 60001), op(3, 101), op(11, 0), op(11, 0), op(8, 0), op(9, 0), op(8, 0), op(7, 63)))
	// Granularity 1 at the top of the rank space, far from the window at 0:
	// every coarse level up to the one whose window holds the whole space.
	f.Add(seq(0, op(3, 0), op(4, 0), op(3, 9), op(4, 65535), op(3, 700), op(4, 5), op(3, 40000), op(8, 0), op(8, 0), op(11, 0), op(9, 0), op(12, 63)))
	// The cFFS's two coarse-level traps, replayed against the stores, which
	// drain by bound and never pop. Twelve arrivals at the top of the rank
	// space go to coarse levels of 4, 256, ... ranks a bucket; drains at ^0
	// jump the window up there, the coarse bucket [^0-7, ^0-4] straddles the
	// end of the window it lands at, and swaps then carry that end,
	// hIndex+2·nb, past MaxUint64. The last bucket sent back up is
	// [^0-3, ^0], with ^0 itself — an overflow minimum equal to the "none"
	// sentinel.
	top := []byte{0}
	top = append(top, op(3, 0)...)
	for k := uint16(0); k < 12; k++ {
		top = append(top, op(4, 11-k)...)
	}
	for i := 0; i < 8; i++ {
		top = append(top, op(12, 1)...)
	}
	f.Add(top)
	// A clocked drain through the coarse levels: twelve arrivals 20 to 70
	// windows out, drained as the clock steps, with new arrivals between.
	far := []byte{1}
	for k := uint16(0); k < 12; k++ {
		far = append(far, op(1, 320+k*211%800)...)
	}
	for i := uint16(0); i < 12; i++ {
		far = append(far, op(6, 150)...)
		far = append(far, op(7, 3)...)
		far = append(far, op(1, 500+i*37)...)
	}
	f.Add(far)
	// A coarse bucket deeper than a store chunk straddles the window's end:
	// rank 9 jumps the window to [6, 14), 12 and 13 move in, and the 14s and
	// 15s go back up in arrival order.
	straddle := append([]byte{0}, op(3, 9)...)
	for i := uint16(0); i < 20; i++ {
		straddle = append(straddle, op(3, 12+i*3%4)...)
	}
	straddle = append(straddle, op(5, 9)...)
	straddle = append(straddle, op(7, 0)...)
	straddle = append(straddle, op(7, 4)...)
	straddle = append(straddle, op(5, 5)...)
	straddle = append(straddle, op(7, 63)...)
	f.Add(straddle)
	// A swap whose window reaches no coarse bucket: the overflow minimum is
	// read where it lies, two levels up.
	deep := append([]byte{0}, op(3, 5)...)
	for i := uint16(0); i < 20; i++ {
		deep = append(deep, op(3, 2000+i*7%20)...)
	}
	deep = append(deep, op(5, 4)...)
	deep = append(deep, op(7, 0)...)
	deep = append(deep, op(7, 0)...)
	f.Add(deep)
	// The same a level down: the window takes in the first coarse level's
	// halves, and what is left waits beyond them.
	f.Add(seq(0, op(3, 9), op(3, 10), op(3, 11), op(3, 1000), op(3, 1001), op(3, 1002), op(3, 1003), op(3, 1004), op(3, 10), op(5, 9), op(7, 0), op(7, 1), op(5, 3), op(7, 63)))
	// One bucket deeper than a store chunk, drained a few at a time.
	big := []byte{0}
	for i := 0; i < 70; i++ {
		big = append(big, op(0, 2)...)
	}
	for i := 0; i < 30; i++ {
		big = append(big, op(5, 1)...)
		big = append(big, op(7, 6)...)
	}
	f.Add(big)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := windowGeometries[int(data[0])%len(windowGeometries)]
		// The model is quadratic in the ops: cap them so the mutator spends
		// its time on sequences, not on length.
		data = data[1:min(len(data), 1+3*fuzzMaxOps)]
		for _, s := range newSubjects(t, g.nb, g.gran, 0) {
			runWindowOps(newWindowModel(t, s, g.nb, g.gran, 0), g.gran, data)
		}
	})
}

func runWindowOps(m *windowModel, gran uint64, data []byte) {
	now := uint64(0)
	for ; len(data) >= 3; data = data[3:] {
		arg := uint64(data[1])<<8 | uint64(data[2])
		switch data[0] % 13 {
		case 0:
			m.enqueue(satAdd(now, arg))
		case 1:
			m.enqueue(satAdd(now, arg*gran))
		case 2:
			m.enqueue(now - min(arg, now))
		case 3:
			m.enqueue(arg)
		case 4:
			m.enqueue(^uint64(0) - arg)
		case 5:
			now = satAdd(now, arg)
		case 6:
			now = satAdd(now, arg*gran)
		case 7:
			m.drain(now, 1+int(arg%64))
		case 8:
			m.pop()
		case 9:
			m.front()
		case 10:
			if len(m.q) > 0 {
				m.remove(int(arg) % len(m.q))
			}
		case 11:
			if at := m.overflowMin(); at >= 0 {
				m.remove(at)
			}
		case 12:
			m.drain(^uint64(0), 1+int(arg%64))
		}
	}
	for len(m.q) > 0 {
		if m.drain(^uint64(0), 64) == 0 {
			m.t.Fatalf("%s: final drain stalled with %d queued", m.s.name(), len(m.q))
		}
	}
}

// TestWindowGatesAndOrders: nothing leaves before its bucket, buckets leave
// in ascending order, and a bucket leaves in arrival order (a store: with
// each handle's scheduler rank beside it), up to 2.5 horizons out.
func TestWindowGatesAndOrders(t *testing.T) {
	for _, s := range newSubjects(t, 16, 10, 0) {
		m := newWindowModel(t, s, 16, 10, 0)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 500; i++ {
			m.enqueue(uint64(rng.Intn(16 * 10 * 5)))
		}
		for now := uint64(0); len(m.q) > 0; now += 7 {
			m.drain(now, 1+rng.Intn(40))
		}
	}
}

// TestWindowIdleFollowsClock: a store drained empty by its clock parks the
// next burst in its window however long it sat idle, instead of piling it
// onto the overflow list for a later jump to sort out. A CFFS, which cannot
// take its bound for a clock, pays that one jump — and releases the burst
// in the same order at the same times (the model checks both).
func TestWindowIdleFollowsClock(t *testing.T) {
	store := ffsq.NewShaperStore(8, 1, 0)
	cffs := ffsq.NewCFFS(ffsq.CFFSOptions{NumBuckets: 8, Granularity: 1})
	for _, s := range []subject{cffsSubject{cffs}, storeSubject{t, store, make([]uint64, 256), false}} {
		m := newWindowModel(t, s, 8, 1, 0)
		m.enqueue(3)
		m.drain(5, 8)
		m.drain(1000, 8) // idle
		m.enqueue(1004)
		m.enqueue(1002)
		m.drain(1003, 8)
		m.drain(1004, 8)
	}
	if _, over, _, _ := store.WindowStats(); over != 0 {
		t.Fatalf("a burst just ahead of the clock put %d elements on the store's overflow list", over)
	}
	if _, _, jumps, _ := cffs.Stats(); jumps != 1 {
		t.Fatalf("CFFS jumped %d times for one idle→burst, want 1", jumps)
	}
}

// TestWindowUnclockedBursts is a consumer that keeps up with an unclocked
// queue: every burst is drained to empty by DequeueBatch(^0) — a bound that
// is no clock — before the next arrives. Each burst's ranks lie within nb-1
// buckets below its first and must come out in exact bucket order, checked
// against a sort, not the model: an emptied window that followed the bound
// and then slid back to exactly the first arrival would clamp every smaller
// rank behind it.
func TestWindowUnclockedBursts(t *testing.T) {
	const nb, gran = 16, 4
	cffs := ffsq.NewCFFS(ffsq.CFFSOptions{NumBuckets: nb, Granularity: gran})
	store := ffsq.NewShaperStore(nb, gran, 0)
	for _, s := range []subject{cffsSubject{cffs}, storeSubject{t, store, make([]uint64, 256), false}} {
		rng := rand.New(rand.NewSource(5))
		nodes := make([]bucket.Node, 8)
		ranks := make([]uint64, len(nodes))
		out := make([]*bucket.Node, len(nodes))
		for cycle := 0; cycle < 200; cycle++ {
			first := uint64(1000 + rng.Intn(1<<16)) // bursts go down as often as up
			for i := range nodes {
				ranks[i] = first
				if i > 0 {
					ranks[i] = first - uint64(rng.Intn((nb-1)*gran)) + uint64(rng.Intn(nb*gran))
				}
				nodes[i].Data = i
				s.enqueue(&nodes[i], ranks[i])
			}
			want := slices.Clone(ranks)
			slices.Sort(want)
			if k, _ := s.drain(^uint64(0), out); k != len(nodes) {
				t.Fatalf("%s cycle %d: %d of %d came out", s.name(), cycle, k, len(nodes))
			}
			for j, n := range out {
				if got := ranks[n.Data.(int)]; got/gran != want[j]/gran {
					t.Fatalf("%s cycle %d: position %d holds rank %d, want bucket %d (burst %v)", s.name(), cycle, j, got, want[j]/gran, ranks)
				}
			}
		}
	}
	_, _, _, cClamped := cffs.Stats()
	_, _, _, sClamped := store.WindowStats()
	if cClamped != 0 || sClamped != 0 {
		t.Fatalf("arrivals within the headroom were clamped (CFFS %d, ShaperStore %d)", cClamped, sClamped)
	}
}

// TestWindowIdleToFarBurst is the idle→burst cycle of a pop-driven user: a
// queue popped empty, then a burst far beyond the window. The burst waits on
// the overflow list — an arrival never anchors the window forward — and the
// first pop jumps there with nb-1 buckets of headroom, so the burst comes
// out in exact order at one jump per cycle.
func TestWindowIdleToFarBurst(t *testing.T) {
	q := ffsq.NewCFFS(ffsq.CFFSOptions{NumBuckets: 8, Granularity: 1})
	m := newWindowModel(t, cffsSubject{q}, 8, 1, 0)
	base := uint64(0)
	for cycle := 0; cycle < 50; cycle++ {
		base += 1 << 20 // far beyond the 16-bucket window
		for _, r := range []uint64{base, base + 5, base - 3, base + 8} {
			m.enqueue(r)
		}
		for _, want := range []uint64{base - 3, base, base + 5, base + 8} {
			if r, _ := q.PeekMin(); r != want {
				t.Fatalf("cycle %d: PeekMin = %d, want %d", cycle, r, want)
			}
			m.pop()
		}
	}
	if _, _, jumps, _ := q.Stats(); jumps != 50 {
		t.Fatalf("%d jumps over 50 idle→burst cycles, want one per cycle", jumps)
	}
}
