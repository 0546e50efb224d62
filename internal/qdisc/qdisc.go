// Package qdisc recreates the kernel deployment of §4/§5.1.1: three
// queuing disciplines that shape per-flow paced traffic — FQ/pacing over a
// red-black tree with flow garbage collection (the Linux fq qdisc Eiffel is
// compared against), a Carousel-style timing wheel polled by a
// fixed-interval timer, and the Eiffel qdisc over a cFFS whose timer is
// armed exactly at the soonest deadline — plus a host runner that replays a
// neper-like many-flow workload over a virtual clock while metering the
// real CPU nanoseconds each qdisc burns, split into enqueue-side ("system")
// and timer/dequeue-side ("softirq") work, which is precisely the
// decomposition of Figures 9 and 10.
package qdisc

import (
	"eiffel/internal/cmpq"
	"eiffel/internal/ffsq"
	"eiffel/internal/pkt"
	"eiffel/internal/queue"
	"eiffel/internal/wheel"
)

// Qdisc is the kernel queuing-discipline contract. Packets arrive with
// SendAt already stamped (the socket's pacing timestamp, per
// SO_MAX_PACING_RATE); the qdisc must not release a packet before it.
type Qdisc interface {
	// Enqueue admits one packet.
	Enqueue(p *pkt.Packet, now int64)
	// Dequeue returns one packet whose release time has arrived, or nil.
	Dequeue(now int64) *pkt.Packet
	// NextTimer returns when the qdisc next needs service. ok=false means
	// it is empty. Carousel answers now when the wheel already holds an
	// overdue backlog and now+granularity otherwise — it cannot know its
	// soonest FUTURE deadline (§2: no ExtractMin on a timing wheel) —
	// whereas Eiffel answers the exact deadline.
	NextTimer(now int64) (int64, bool)
	// Len returns queued packets.
	Len() int
	// Name labels the qdisc in result tables.
	Name() string
}

// --- Eiffel qdisc ---

// Eiffel is the paper's qdisc: a time-indexed shaper over a cFFS (the
// evaluation runs 20k buckets over a 2 s horizon; only the shaper is used).
type Eiffel struct {
	q *ffsq.CFFS
}

// NewEiffel returns an Eiffel qdisc on a cFFS with the given bucket count
// and horizon. Granularity = horizon / (2*buckets).
func NewEiffel(buckets int, horizonNs int64, start int64) *Eiffel {
	return &Eiffel{q: queue.New(queue.KindCFFS, eiffelCfg(buckets, horizonNs, start)).(*ffsq.CFFS)}
}

func eiffelCfg(buckets int, horizonNs, start int64) queue.Config {
	gran := uint64(horizonNs) / (2 * uint64(buckets))
	if gran == 0 {
		gran = 1
	}
	return queue.Config{NumBuckets: buckets, Granularity: gran, Start: uint64(start)}
}

// Name implements Qdisc.
func (e *Eiffel) Name() string { return "Eiffel" }

// Len implements Qdisc.
func (e *Eiffel) Len() int { return e.q.Len() }

// Enqueue implements Qdisc.
func (e *Eiffel) Enqueue(p *pkt.Packet, _ int64) {
	e.q.Enqueue(&p.TimerNode, uint64(p.SendAt))
}

// Dequeue implements Qdisc.
func (e *Eiffel) Dequeue(now int64) *pkt.Packet {
	r, ok := e.q.PeekMin()
	if !ok || int64(r) > now {
		return nil
	}
	return pkt.FromTimerNode(e.q.DequeueMin())
}

// NextTimer implements Qdisc: SoonestDeadline() straight off the cFFS
// index — the exact-timer half of the Figure 10 comparison.
func (e *Eiffel) NextTimer(now int64) (int64, bool) {
	r, ok := e.q.PeekMin()
	if !ok {
		return 0, false
	}
	t := int64(r)
	if t < now {
		t = now
	}
	return t, true
}

// --- Carousel qdisc ---

// Carousel wraps a timing wheel, per the authors' recommendation the paper
// follows: "all packets are queued in a timing wheel; a timer fires every
// time instant (according to the granularity of the timing wheel) and
// checks whether it has packets that should be sent".
type Carousel struct {
	w    *wheel.Wheel
	gran int64
}

// NewCarousel returns a Carousel qdisc with the given slot count and
// horizon. Granularity = horizon / slots.
func NewCarousel(slots int, horizonNs int64, start int64) *Carousel {
	gran := horizonNs / int64(slots)
	if gran <= 0 {
		gran = 1
	}
	return &Carousel{
		w:    wheel.New(slots, uint64(gran), uint64(start)),
		gran: gran,
	}
}

// Name implements Qdisc.
func (c *Carousel) Name() string { return "Carousel" }

// Len implements Qdisc.
func (c *Carousel) Len() int { return c.w.Len() }

// Enqueue implements Qdisc.
func (c *Carousel) Enqueue(p *pkt.Packet, _ int64) {
	c.w.Schedule(&p.TimerNode, uint64(p.SendAt))
}

// Dequeue implements Qdisc.
func (c *Carousel) Dequeue(now int64) *pkt.Packet {
	n := c.w.PopExpired(uint64(now))
	if n == nil {
		return nil
	}
	return pkt.FromTimerNode(n)
}

// NextTimer implements Qdisc: one tick per wheel granularity while the
// wheel only holds future slots — the fixed-interval firing that shows up
// as softirq overhead in Fig 10 — but "now" when the wheel already holds
// an overdue backlog (late arrivals clamped into the current slot, or a
// host that fell behind). Without the overdue check the runner would idle
// a full granularity before servicing packets that are already due, which
// both delays release and mis-attributes idle time in the Figure 9/10
// decomposition.
func (c *Carousel) NextTimer(now int64) (int64, bool) {
	if c.w.Len() == 0 {
		return 0, false
	}
	if c.w.HasExpired(uint64(now)) {
		return now, true
	}
	return now + c.gran, true
}

// --- FQ/pacing qdisc ---

// fqFlow mirrors the Linux fq qdisc's per-flow state: a FIFO of packets,
// the time the next packet may leave, and idle tracking for the garbage
// collector.
type fqFlow struct {
	id         uint64
	ring       []*pkt.Packet
	head, n    int
	nextTx     int64
	lastActive int64
	node       *cmpq.RBNode // position in the throttled tree
}

func (f *fqFlow) push(p *pkt.Packet) {
	if f.n == len(f.ring) {
		size := len(f.ring) * 2
		if size == 0 {
			size = 4
		}
		ring := make([]*pkt.Packet, size)
		for i := 0; i < f.n; i++ {
			ring[i] = f.ring[(f.head+i)%len(f.ring)]
		}
		f.ring, f.head = ring, 0
	}
	f.ring[(f.head+f.n)%len(f.ring)] = p
	f.n++
}

func (f *fqFlow) pop() *pkt.Packet {
	p := f.ring[f.head]
	f.ring[f.head] = nil
	f.head = (f.head + 1) % len(f.ring)
	f.n--
	return p
}

// FQ models the Linux fq/pacing qdisc: flows hang off a hash map, paced
// flows are ordered in a red-black tree by their next transmission time,
// and a garbage collector continuously reclaims idle flows — the
// "complicated data structure ... continuous garbage collection ...
// RB-trees" overhead §5.1.1 attributes FQ's cost to.
type FQ struct {
	flows   map[uint64]*fqFlow
	tree    *cmpq.RBTree
	gcRing  []*fqFlow
	gcPos   int
	backlog int

	// GCIdleNs is the idle age after which a flow is reclaimed (Linux
	// default ~3 s).
	GCIdleNs int64

	gcReclaimed uint64
}

// NewFQ returns an FQ/pacing qdisc.
func NewFQ() *FQ {
	return &FQ{
		flows:    make(map[uint64]*fqFlow),
		tree:     cmpq.NewRBTree(),
		GCIdleNs: 3e9,
	}
}

// Name implements Qdisc.
func (q *FQ) Name() string { return "FQ" }

// Len implements Qdisc.
func (q *FQ) Len() int { return q.backlog }

// Flows returns the number of tracked flows (live + idle awaiting GC).
func (q *FQ) Flows() int { return len(q.flows) }

// Enqueue implements Qdisc.
func (q *FQ) Enqueue(p *pkt.Packet, now int64) {
	f := q.flows[p.Flow]
	if f == nil {
		f = &fqFlow{id: p.Flow}
		q.flows[p.Flow] = f
		q.gcRing = append(q.gcRing, f)
	}
	f.lastActive = now
	f.push(p)
	q.backlog++
	if f.n == 1 {
		// Flow becomes schedulable: insert by its head's release time.
		f.nextTx = p.SendAt
		f.node = q.tree.Insert(uint64(f.nextTx), f)
	}
	q.gcScan(now)
}

// gcScan models fq's incremental garbage collector: every enqueue probes a
// few flows for idleness. With thousands of live flows this is pure
// overhead — exactly the cost the paper measures.
func (q *FQ) gcScan(now int64) {
	for i := 0; i < 3 && len(q.gcRing) > 0; i++ {
		q.gcPos++
		if q.gcPos >= len(q.gcRing) {
			q.gcPos = 0
		}
		f := q.gcRing[q.gcPos]
		if f.n == 0 && now-f.lastActive > q.GCIdleNs {
			delete(q.flows, f.id)
			last := len(q.gcRing) - 1
			q.gcRing[q.gcPos] = q.gcRing[last]
			q.gcRing = q.gcRing[:last]
			q.gcReclaimed++
		}
	}
}

// Dequeue implements Qdisc.
func (q *FQ) Dequeue(now int64) *pkt.Packet {
	m := q.tree.Min()
	if m == nil || int64(m.Key) > now {
		return nil
	}
	f := m.Value.(*fqFlow)
	q.tree.Delete(m)
	f.node = nil
	p := f.pop()
	q.backlog--
	f.lastActive = now
	if f.n > 0 {
		// Re-key the flow at its next head's release time: the per-packet
		// O(log n) tree churn of kernel pacing.
		f.nextTx = f.ring[f.head].SendAt
		f.node = q.tree.Insert(uint64(f.nextTx), f)
	}
	return p
}

// NextTimer implements Qdisc: the throttled tree's minimum key.
func (q *FQ) NextTimer(now int64) (int64, bool) {
	m := q.tree.Min()
	if m == nil {
		return 0, false
	}
	t := int64(m.Key)
	if t < now {
		t = now
	}
	return t, true
}
