package pifo

import (
	"eiffel/internal/bucket"
	"eiffel/internal/pkt"
)

// Flow is the per-flow scheduling unit of the paper's per-flow ranking
// primitive: a FIFO of packets ranked as one entity. A single PIFO block
// orders flows rather than packets (§3.2.1); the scheduler guarantees that
// packets of one flow are never reordered relative to each other.
type Flow struct {
	// Node is the flow's handle in the leaf's priority queue.
	Node bucket.Node
	// ID is the flow identifier packets carry in pkt.Packet.Flow.
	ID uint64
	// Bytes is the total queued payload.
	Bytes int64
	// Rank is policy-maintained state (e.g. pFabric's running minimum).
	Rank uint64
	// U0 and U1 are extra policy scratch registers.
	U0, U1 uint64

	// ring (and rring below) hold 8·2^k slots — grow and growRanked are the
	// only places either is sized — so indexes wrap with a mask, not a DIV.
	ring []*pkt.Packet
	head int
	n    int

	// rring replaces ring on the direct ranked-service path (see
	// direct.go): each slot pairs the packet pointer with its cached rank
	// annotation, so dequeue-side transactions read the next packet's
	// rank from the slot they are touching anyway instead of chasing the
	// packet pointer into cold memory. A flow is driven either ranked or
	// plain for its whole life, never both.
	rring []rankedSlot
}

// rankedSlot pairs a queued packet with its cached rank annotation so the
// ranked ring serves both with one line touch.
type rankedSlot struct {
	p    *pkt.Packet
	rank uint64
}

// Len returns the number of queued packets.
//
//eiffel:hotpath
func (f *Flow) Len() int { return f.n }

// Front returns the head packet without removing it, or nil.
//
//eiffel:hotpath
func (f *Flow) Front() *pkt.Packet {
	if f.n == 0 {
		return nil
	}
	return f.ring[f.head]
}

//eiffel:hotpath
func (f *Flow) push(p *pkt.Packet) {
	if f.n == len(f.ring) {
		//eiffel:allow(hotpath) amortized ring doubling; capacity is retained across the flow's life
		f.grow()
	}
	f.ring[(f.head+f.n)&(len(f.ring)-1)] = p
	f.n++
	f.Bytes += int64(p.Size)
}

//eiffel:hotpath
func (f *Flow) pop() *pkt.Packet {
	if f.n == 0 {
		return nil
	}
	p := f.ring[f.head]
	f.ring[f.head] = nil
	f.head = (f.head + 1) & (len(f.ring) - 1)
	f.n--
	f.Bytes -= int64(p.Size)
	return p
}

func (f *Flow) grow() {
	ring := make([]*pkt.Packet, max(8, len(f.ring)*2)) // a power of two: see ring
	for i := 0; i < f.n; i++ {
		ring[i] = f.ring[(f.head+i)&(len(f.ring)-1)]
	}
	f.ring = ring
	f.head = 0
}

// pushRanked is push for the direct ranked-service path: the packet's
// rank annotation is cached beside the pointer. Bytes is NOT maintained
// here — reading p.Size would be the exact cold-packet load the ranked
// path exists to avoid, and no packet-free policy consumes Bytes.
//
//eiffel:hotpath
func (f *Flow) pushRanked(p *pkt.Packet, rank uint64) {
	if f.n == len(f.rring) {
		//eiffel:allow(hotpath) amortized ring doubling; capacity is retained across the flow's life
		f.growRanked()
	}
	f.rring[(f.head+f.n)&(len(f.rring)-1)] = rankedSlot{p: p, rank: rank}
	f.n++
}

// popRanked removes the head packet and returns it with its cached rank.
// It performs no load through the packet pointer (see pushRanked).
//
//eiffel:hotpath
func (f *Flow) popRanked() (*pkt.Packet, uint64) {
	s := f.rring[f.head]
	f.rring[f.head].p = nil
	f.head = (f.head + 1) & (len(f.rring) - 1)
	f.n--
	return s.p, s.rank
}

// frontRank returns the head packet's cached rank; only valid when
// f.Len() > 0 on a ranked-driven flow.
//
//eiffel:hotpath
func (f *Flow) frontRank() uint64 { return f.rring[f.head].rank }

func (f *Flow) growRanked() {
	rring := make([]rankedSlot, max(8, len(f.rring)*2)) // a power of two: see ring
	for i := 0; i < f.n; i++ {
		rring[i] = f.rring[(f.head+i)&(len(f.rring)-1)]
	}
	f.rring = rring
	f.head = 0
}

// flow returns the Flow for id, creating (or recycling) one as needed.
// Flow state does not persist across idle periods: once a flow drains it is
// recycled and a later packet with the same ID starts fresh.
//
//eiffel:hotpath
func (c *Class) flow(id uint64) *Flow {
	if f, ok := c.flows[id]; ok {
		return f
	}
	var f *Flow
	if n := len(c.flowFree); n > 0 {
		f = c.flowFree[n-1]
		c.flowFree = c.flowFree[:n-1]
	} else {
		//eiffel:allow(hotpath) first sight of a flow; drained flows recycle through flowFree
		f = &Flow{}
		f.Node.Data = f
	}
	f.ID = id
	c.flows[id] = f
	return f
}

//eiffel:hotpath
func (c *Class) releaseFlow(f *Flow) {
	delete(c.flows, f.ID)
	f.ID, f.Bytes, f.Rank, f.U0, f.U1 = 0, 0, 0, 0, 0
	c.flowFree = append(c.flowFree, f)
}

// NumFlows returns the number of live flows in a flow leaf.
func (c *Class) NumFlows() int { return len(c.flows) }
