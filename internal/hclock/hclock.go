// Package hclock reimplements the hClock hierarchical QoS packet scheduler
// (Billaud & Gulati, EuroSys'13 — the NetIOC scheduler in VMware vSphere)
// that §5.1.2 uses as Use Case 2. Every flow carries three tags, exactly as
// Figure 11 expresses it in the extended PIFO model:
//
//	r_rank += size/reservation   (minimum guaranteed rate)
//	l_rank += size/limit         (maximum rate)
//	s_rank += size/share         (proportional weight)
//
// Dequeue serves, in order of preference: the smallest r_rank among flows
// whose reservation clock is due, else the smallest s_rank among flows that
// have not exceeded their limit. Flows over their limit park until l_rank.
//
// The scheduler is generic over its three priority-queue indexes: the
// baseline uses binary min-heaps (O(log n) per tag update, the original
// hClock design), the Eiffel version uses circular FFS queues (O(1)) —
// which is the entire difference Figure 12 measures.
//
// The tag-arbitration core lives in the reusable Hier engine (hier.go);
// Scheduler packages it with a per-flow packet FIFO and a flow registry —
// the single-threaded deployment. The sharded deployment runs one engine
// per shard instead (shardq.NewHierSched).
package hclock

import (
	"fmt"

	"eiffel/internal/pkt"
)

// Backend selects the priority-queue implementation for the three indexes.
type Backend int

// Backends.
const (
	// BackendEiffel uses circular hierarchical FFS queues.
	BackendEiffel Backend = iota
	// BackendHeap uses binary min-heaps (the original hClock).
	BackendHeap
)

// String names the backend for tables.
func (b Backend) String() string {
	switch b {
	case BackendEiffel:
		return "Eiffel"
	case BackendHeap:
		return "hClock(heap)"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// sChargeScale converts bytes/weight into share-tag units; large enough to
// resolve weight ratios of 1:4096 at byte granularity.
const sChargeScale = 1 << 16

// ShareScale is sChargeScale for callers sizing share-tag indexes: a
// tenant's share tag advances size*ShareScale/weight per service, so a
// share-index granularity of ShareScale*k quantizes at k weighted bytes.
const ShareScale uint64 = sChargeScale

// Flow is one hClock traffic class: a Tenant (the three tags) plus the
// packet FIFO the single-threaded scheduler owns.
type Flow struct {
	// ID is the flow identifier.
	ID uint64

	Tenant

	ring []*pkt.Packet
	head int
	n    int
}

// Len returns the number of queued packets.
func (f *Flow) Len() int { return f.n }

func (f *Flow) push(p *pkt.Packet) {
	if f.n == len(f.ring) {
		size := len(f.ring) * 2
		if size == 0 {
			size = 8
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

func (f *Flow) pop() *pkt.Packet {
	if f.n == 0 {
		return nil
	}
	p := f.ring[f.head]
	f.ring[f.head] = nil
	f.head = (f.head + 1) % len(f.ring)
	f.n--
	return p
}

// Config sizes a scheduler (or a bare Hier engine).
type Config struct {
	// Backend picks the index implementation.
	Backend Backend
	// AggregateLimitBps caps the scheduler's total output (0 = none);
	// Figure 12 (bottom) runs with a 5 Gbps aggregate limit.
	AggregateLimitBps uint64
	// TagGranularityNs is the bucket width of the time-tag queues
	// (default 2048 ns).
	TagGranularityNs uint64
	// ShareGranularity is the bucket width of the share-tag index. Share
	// tags live in a different domain than the time tags — they advance
	// size*ShareScale/weight per service, ~100M units per full packet at
	// weight 1 — so a bucketed backend wants a granularity proportional
	// to ShareScale or every operation walks hundreds of buckets.
	// 0 means TagGranularityNs*64, the historical flow-scheduler default.
	ShareGranularity uint64
	// Buckets is the bucket count per queue half (default 1<<14).
	Buckets int
	// RateDiv divides every tenant's reservation and limit rate at Init —
	// the per-shard renormalization hook: a sharded deployment runs one
	// engine per shard with RateDiv = shard count, so a tenant whose
	// flows spread across every shard still aggregates to the configured
	// rates. A nonzero configured rate never renormalizes to zero. 0 or 1
	// means no renormalization (the single-engine deployment).
	RateDiv uint64
}

// Scheduler is an hClock instance: a Hier engine plus per-flow FIFOs.
type Scheduler struct {
	h       *Hier
	flows   map[uint64]*Flow
	backlog int
}

// New returns an empty scheduler.
func New(cfg Config) *Scheduler {
	return &Scheduler{
		h:     NewHier(cfg),
		flows: make(map[uint64]*Flow),
	}
}

// AddFlow registers a traffic class. Reservation must not exceed limit
// when both are set.
func (s *Scheduler) AddFlow(id, resBps, limitBps, weight uint64) *Flow {
	f := &Flow{ID: id}
	s.h.Init(&f.Tenant, resBps, limitBps, weight)
	f.Self = f
	s.flows[id] = f
	return f
}

// Flow returns a registered flow, or nil.
func (s *Scheduler) Flow(id uint64) *Flow { return s.flows[id] }

// Len returns the number of queued packets.
func (s *Scheduler) Len() int { return s.backlog }

// Enqueue adds p to its flow's FIFO; the flow must have been registered.
func (s *Scheduler) Enqueue(p *pkt.Packet, now int64) {
	f := s.flows[p.Flow]
	if f == nil {
		panic(fmt.Sprintf("hclock: packet for unregistered flow %d", p.Flow))
	}
	f.push(p)
	s.backlog++
	if !f.Active() {
		s.h.Activate(&f.Tenant, now)
	}
}

// Dequeue returns the next packet under hClock's two-phase rule, or nil if
// nothing may be sent at the given time.
func (s *Scheduler) Dequeue(now int64) *pkt.Packet {
	if s.backlog == 0 {
		return nil
	}
	s.h.Migrate(now)
	t, res := s.h.Pick(now, NoBound)
	if res != Picked {
		return nil
	}
	f := t.Self.(*Flow)
	p := f.pop()
	s.backlog--
	s.h.Charge(t, uint64(p.Size), now)
	if f.n > 0 {
		s.h.Requeue(t, now)
	} else {
		s.h.Idle(t)
	}
	return p
}

// NextEvent returns the earliest time a currently ineligible flow becomes
// eligible (the parked set's head or the aggregate gate), for timer-driven
// callers. ok is false when the scheduler is empty or work is ready now.
func (s *Scheduler) NextEvent(now int64) (int64, bool) {
	if s.backlog == 0 {
		return 0, false
	}
	return s.h.NextEvent(now)
}
