// Package policy provides concrete scheduling transactions for the
// extended PIFO model: child rankers for internal classes (weighted fair
// queueing, strict priority, round robin), packet rankers for leaves (EDF,
// strict priority, FIFO, least slack time), and the paper's flow policies —
// Longest Queue First (Figure 6) and pFabric/shortest-remaining-first
// (Figure 14) — built on the per-flow ranking and on-dequeue ranking
// primitives.
package policy

import (
	"eiffel/internal/pifo"
	"eiffel/internal/pkt"
)

// --- Child rankers (internal classes) ---

// WFQ ranks children by start-time fair queueing virtual times: a child
// (re)activates at the parent's current virtual time and advances by
// size/weight per dequeued packet, yielding weighted max-min shares. The
// scale constant keeps ranks integral at single-byte resolution for weights
// up to Scale.
type WFQ struct {
	// Scale is the rank units charged per byte at weight Scale (default
	// 1024). Larger values support finer weight ratios.
	Scale uint64
	// LagBytes bounds how far a rate-limited class may trail the parent's
	// virtual time while parked in the shaper (default 1 MiB). A small
	// bound keeps shaped classes entitled to their weighted share on
	// release without banking unlimited credit.
	LagBytes uint64
}

func (w WFQ) scale() uint64 {
	if w.Scale == 0 {
		return 1024
	}
	return w.Scale
}

// Rank implements pifo.ChildRanker.
func (w WFQ) Rank(c *pifo.Class, p *pkt.Packet, _ int64) uint64 {
	scale := w.scale()
	if p == nil {
		v := c.Parent().VTime()
		if c.Resuming() {
			// Returning from a shaper park: keep the virtual-time
			// position (bounded lag) so shaping does not erase the
			// weighted share.
			lagBytes := w.LagBytes
			if lagBytes == 0 {
				lagBytes = 1 << 20
			}
			if lag := lagBytes * scale / c.Weight; v > lag && c.Finish() < v-lag {
				c.SetFinish(v - lag)
			}
			return c.Finish()
		}
		// Fresh demand: join at the parent's virtual time, never behind
		// it (no banked credit), never ahead of accumulated usage.
		if v > c.Finish() {
			c.SetFinish(v)
		}
		return c.Finish()
	}
	c.SetFinish(c.Finish() + uint64(p.Size)*scale/c.Weight)
	return c.Finish()
}

// StrictChild ranks children by their static Priority field (lower wins).
type StrictChild struct{}

// Rank implements pifo.ChildRanker.
func (StrictChild) Rank(c *pifo.Class, _ *pkt.Packet, _ int64) uint64 { return c.Priority }

// RRChild ranks children round-robin: each (re)insertion goes behind every
// currently queued sibling.
type RRChild struct {
	turn uint64
}

// Rank implements pifo.ChildRanker.
func (r *RRChild) Rank(*pifo.Class, *pkt.Packet, int64) uint64 {
	r.turn++
	return r.turn
}

// --- Packet rankers (packet leaves) ---

// EDF ranks packets by absolute deadline: Earliest Deadline First.
type EDF struct{}

// Rank implements pifo.PacketRanker.
func (EDF) Rank(p *pkt.Packet, _ int64) uint64 { return uint64(p.Deadline) }

// StrictPacket ranks packets by their Class annotation (lower wins) — the
// eight-level IEEE 802.1Q style strict priority queue.
type StrictPacket struct{}

// Rank implements pifo.PacketRanker.
func (StrictPacket) Rank(p *pkt.Packet, _ int64) uint64 { return uint64(p.Class) }

// FIFO ranks packets by arrival sequence.
type FIFO struct {
	seq uint64
}

// Rank implements pifo.PacketRanker.
func (f *FIFO) Rank(*pkt.Packet, int64) uint64 {
	f.seq++
	return f.seq
}

// LSTF ranks packets by slack: deadline minus now minus remaining
// transmission time (Least Slack Time First, the universal packet scheduler
// of Mittal et al. that §5.1.3 cites). Remaining transmission time is
// approximated by size at LinkBps.
type LSTF struct {
	// LinkBps estimates transmission time (default 10 Gb/s).
	LinkBps uint64
}

// Rank implements pifo.PacketRanker.
func (l LSTF) Rank(p *pkt.Packet, now int64) uint64 {
	link := l.LinkBps
	if link == 0 {
		link = 10e9
	}
	tx := int64(uint64(p.Size) * 8 * 1e9 / link)
	slack := p.Deadline - now - tx
	if slack < 0 {
		return 0
	}
	return uint64(slack)
}

// RankAnnotation ranks packets by their precomputed Rank field.
type RankAnnotation struct{}

// Rank implements pifo.PacketRanker.
func (RankAnnotation) Rank(p *pkt.Packet, _ int64) uint64 { return p.Rank }

// --- Flow policies (per-flow ranking + on-dequeue ranking) ---

// LQF is Longest Queue First, the paper's motivating example for the two
// new primitives (Figure 6):
//
//	on enqueue of packet p of flow f: f.rank = f.len
//	on dequeue of packet p of flow f: f.rank = f.len
//
// The flow with the most queued packets is served first; both enqueue and
// dequeue change the rank of every queued packet of the flow at once.
// Ranks are MaxLen-len so the max-length policy maps onto min-queues with a
// bounded rank range (bucket-friendly).
type LQF struct {
	// MaxLen bounds the queue length the rank range resolves (default
	// 1<<20 packets); longer flows tie at rank 0.
	MaxLen uint64
}

func (l LQF) maxLen() uint64 {
	if l.MaxLen == 0 {
		return 1 << 20
	}
	return l.MaxLen
}

func (l LQF) rank(f *pifo.Flow) uint64 {
	if n := uint64(f.Len()); n < l.maxLen() {
		return l.maxLen() - n
	}
	return 0
}

// OnEnqueue implements pifo.FlowPolicy.
func (l LQF) OnEnqueue(f *pifo.Flow, _ *pkt.Packet, _ int64) uint64 { return l.rank(f) }

// OnDequeue implements pifo.FlowPolicy.
func (l LQF) OnDequeue(f *pifo.Flow, _ *pkt.Packet, _ int64) uint64 { return l.rank(f) }

// OnEnqueueRank implements pifo.RankFlowPolicy (LQF reads only f.Len).
func (l LQF) OnEnqueueRank(f *pifo.Flow, _ uint64) uint64 { return l.rank(f) }

// OnDequeueRank implements pifo.RankFlowPolicy.
func (l LQF) OnDequeueRank(f *pifo.Flow, _, _ uint64) uint64 { return l.rank(f) }

// SQF is Shortest Queue First (the dual of LQF), useful in tests.
type SQF struct{}

// OnEnqueue implements pifo.FlowPolicy.
func (SQF) OnEnqueue(f *pifo.Flow, _ *pkt.Packet, _ int64) uint64 { return uint64(f.Len()) }

// OnDequeue implements pifo.FlowPolicy.
func (SQF) OnDequeue(f *pifo.Flow, _ *pkt.Packet, _ int64) uint64 { return uint64(f.Len()) }

// OnEnqueueRank implements pifo.RankFlowPolicy.
func (SQF) OnEnqueueRank(f *pifo.Flow, _ uint64) uint64 { return uint64(f.Len()) }

// OnDequeueRank implements pifo.RankFlowPolicy.
func (SQF) OnDequeueRank(f *pifo.Flow, _, _ uint64) uint64 { return uint64(f.Len()) }

// PFabric implements the pFabric host/switch queue discipline exactly as
// Figure 14 expresses it in the extended PIFO model:
//
//	on enqueue of packet p of flow f: f.rank = min(p.rank, f.rank)
//	on dequeue of packet p of flow f: f.rank = min(p.rank, f.front().rank)
//
// Packet ranks carry the flow's remaining size (set by the sender), so the
// flow with the shortest remaining processing time is served first while
// packets within a flow stay in order.
type PFabric struct{}

// OnEnqueue implements pifo.FlowPolicy.
func (PFabric) OnEnqueue(f *pifo.Flow, p *pkt.Packet, _ int64) uint64 {
	if f.Len() == 1 {
		// First packet of a (re)started flow: previous rank is stale.
		f.Rank = p.Rank
		return f.Rank
	}
	if p.Rank < f.Rank {
		f.Rank = p.Rank
	}
	return f.Rank
}

// OnDequeue implements pifo.FlowPolicy.
func (PFabric) OnDequeue(f *pifo.Flow, p *pkt.Packet, _ int64) uint64 {
	if front := f.Front(); front != nil {
		r := p.Rank
		if front.Rank < r {
			r = front.Rank
		}
		f.Rank = r
	}
	return f.Rank
}

// OnEnqueueRank implements pifo.RankFlowPolicy — the same transaction as
// OnEnqueue with the rank annotation passed in, so the scheduler core
// never loads the packet.
func (PFabric) OnEnqueueRank(f *pifo.Flow, rank uint64) uint64 {
	if f.Len() == 1 {
		f.Rank = rank
		return f.Rank
	}
	if rank < f.Rank {
		f.Rank = rank
	}
	return f.Rank
}

// OnDequeueRank implements pifo.RankFlowPolicy.
func (PFabric) OnDequeueRank(f *pifo.Flow, rank, frontRank uint64) uint64 {
	if f.Len() > 0 {
		r := rank
		if frontRank < r {
			r = frontRank
		}
		f.Rank = r
	}
	return f.Rank
}

// FlowFIFO serves flows in order of first arrival (per-flow FIFO batching).
type FlowFIFO struct {
	seq uint64
}

// OnEnqueue implements pifo.FlowPolicy.
func (ff *FlowFIFO) OnEnqueue(f *pifo.Flow, _ *pkt.Packet, _ int64) uint64 {
	if f.Len() == 1 {
		ff.seq++
		f.U0 = ff.seq
	}
	return f.U0
}

// OnDequeue implements pifo.FlowPolicy.
func (*FlowFIFO) OnDequeue(f *pifo.Flow, _ *pkt.Packet, _ int64) uint64 { return f.U0 }

// OnEnqueueRank implements pifo.RankFlowPolicy.
func (ff *FlowFIFO) OnEnqueueRank(f *pifo.Flow, _ uint64) uint64 {
	if f.Len() == 1 {
		ff.seq++
		f.U0 = ff.seq
	}
	return f.U0
}

// OnDequeueRank implements pifo.RankFlowPolicy.
func (*FlowFIFO) OnDequeueRank(f *pifo.Flow, _, _ uint64) uint64 { return f.U0 }
