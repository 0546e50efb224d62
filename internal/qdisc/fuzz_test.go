package qdisc

import (
	"testing"

	"eiffel/internal/pkt"
)

// FuzzTimerFront drives the timer front's group drain with an op sequence
// decoded from the fuzz input and checks every release against a
// deliberately naive model: a FIFO of unreleased packets per flow. The
// front is small on purpose — one group of 2 shards with 8-slot rings — so
// a handful of ops reaches the producers' ring-full fallback, the
// settled-first merge and the ring bypass together.
//
// Each op is two bytes (code, arg). The low three bits of code select the
// op, the next three a flow, the top two a shift s that scales arg by
// 8^s — so release times land before the clock, inside the horizon, at it
// and many horizons beyond it:
//
//	0,1  Enqueue on flow, SendAt[flow] += arg<<3s   (never backwards in a flow)
//	2    EnqueueBatch of 1+arg%4 packets on consecutive flows, each += (arg/4)<<3s
//	3    clock += arg<<3s                           (never backwards)
//	4    GroupDequeueBatch of up to 1+arg%8
//	5    GroupDequeueBatch of one
//	6    GroupNextTimer
//	7    TryEnqueue, as 0
//
// The model's clauses: per-flow FIFO; nothing released before SendAt −
// granule; Len exact after every op; GroupNextTimer answers while anything is
// unreleased, never in the past and never later than the EARLIEST unreleased
// SendAt (or now, once that has passed) — in whatever order release times
// were admitted across flows; Close→Drain hands out exactly the unreleased
// remainder, in per-flow order.
func FuzzTimerFront(f *testing.F) {
	for _, seed := range fuzzTimerSeeds {
		f.Add(seed)
	}
	f.Fuzz(runTimerModel)
}

const (
	fuzzHorizon = int64(1 << 13)
	fuzzBuckets = 64
	fuzzGranule = fuzzHorizon / (2 * fuzzBuckets)
	fuzzFlows   = 8
)

var fuzzTimerSeeds = [][]byte{
	// TestTimerBypassKeepsFlowOrder: p1 parks before its release time, p2 of
	// the same flow is in the ring when both are due.
	{0x40, 100, 0x43, 50, 4, 7, 0x00, 20, 0x43, 200, 4, 7},
	// Ring-full fallback: twenty packets on one flow overrun an 8-slot
	// ring, then drain in one-slot and larger batches with the clock
	// moving.
	{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1,
		0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 5, 0, 3, 9, 4, 7, 6, 0, 4, 7, 3, 9, 4, 7, 4, 7},
	// SendAt at 0, at the horizon (128<<6), and sixteen horizons beyond it
	// (255<<9), batched and per packet, peeked and drained at each.
	{0x08, 0, 0x90, 128, 0xd8, 255, 0x22, 7, 6, 0, 4, 7, 0x83, 128, 6, 0, 4, 7, 0xc3, 255, 6, 0, 4, 7, 5, 0},
	// A far packet, peeked at, then near ones (TestLateClamp's peek-rotation).
	{0xc0, 40, 6, 0, 0x08, 9, 0x0f, 9, 6, 0, 0x43, 3, 4, 7, 0xc3, 40, 4, 7},
}

type timerModel struct {
	t       *testing.T
	pending [fuzzFlows][]*pkt.Packet // unreleased, per flow, in admission order
	n       int
}

func (m *timerModel) admit(p *pkt.Packet) {
	m.pending[p.Flow] = append(m.pending[p.Flow], p)
	m.n++
}

func (m *timerModel) release(p *pkt.Packet, now int64) {
	m.t.Helper()
	q := m.pending[p.Flow]
	if len(q) == 0 || q[0] != p {
		m.t.Fatalf("flow %d: released seq %d (SendAt %d) at %d, model expects %v", p.Flow, p.Seq, p.SendAt, now, q)
	}
	if p.SendAt-fuzzGranule > now {
		m.t.Fatalf("flow %d seq %d: SendAt %d released at %d, more than a granule early", p.Flow, p.Seq, p.SendAt, now)
	}
	m.pending[p.Flow] = q[1:]
	m.n--
}

// earliest is the soonest unreleased SendAt: release times never decrease
// along a flow, so it is among the flows' heads.
func (m *timerModel) earliest() int64 {
	earliest := int64(-1)
	for _, q := range m.pending {
		if len(q) > 0 && (earliest < 0 || q[0].SendAt < earliest) {
			earliest = q[0].SendAt
		}
	}
	return earliest
}

// modelSink checks the closing drain against the model as packets arrive.
type modelSink struct{ m *timerModel }

func (s modelSink) Tx(ps []*pkt.Packet) {
	for _, p := range ps {
		s.m.release(p, drainHorizon)
	}
}

func runTimerModel(t *testing.T, ops []byte) {
	f := NewMultiSharded(MultiShardedOptions{ShardedOptions: ShardedOptions{
		Shards: 2, Buckets: fuzzBuckets, HorizonNs: fuzzHorizon, RingBits: 3,
	}})
	m := &timerModel{t: t}
	pool := pkt.NewPool(64)
	var sendAt [fuzzFlows]int64
	var seq [fuzzFlows]uint32
	mk := func(flow int, delta int64) *pkt.Packet {
		flow %= fuzzFlows
		sendAt[flow] += delta
		seq[flow]++
		p := pool.Get()
		p.Flow, p.Seq, p.SendAt = uint64(flow), seq[flow], sendAt[flow]
		m.admit(p)
		return p
	}
	now := int64(0)
	out := make([]*pkt.Packet, 8)
	var run [4]*pkt.Packet
	for i := 0; i+1 < len(ops); i += 2 {
		code, arg := ops[i], int64(ops[i+1])
		flow, shift := int(code>>3&7), uint(code>>6)*3
		switch code & 7 {
		case 0, 1:
			f.Enqueue(mk(flow, arg<<shift), now)
		case 2:
			ps := run[:1+arg%4]
			for j := range ps {
				ps[j] = mk(flow+j, arg/4<<shift)
			}
			f.EnqueueBatch(ps, now)
		case 3:
			now += arg << shift
		case 4:
			k := f.GroupDequeueBatch(0, now, out[:1+arg%8])
			for _, p := range out[:k] {
				m.release(p, now)
			}
		case 5:
			if f.GroupDequeueBatch(0, now, out[:1]) == 1 {
				m.release(out[0], now)
			}
		case 6:
			at, ok := f.GroupNextTimer(0, now)
			earliest := m.earliest()
			if ok != (m.n > 0) || (ok && (at < now || at > max(earliest, now))) {
				t.Fatalf("GroupNextTimer(%d) = (%d,%v) with %d unreleased, want within [now, %d]", now, at, ok, m.n, max(earliest, now))
			}
		case 7:
			if !f.TryEnqueue(mk(flow, arg<<shift), now) {
				t.Fatal("TryEnqueue refused on an open, unbounded front")
			}
		}
		if f.Len() != m.n {
			t.Fatalf("Len = %d after op %d, model holds %d", f.Len(), i/2, m.n)
		}
	}
	// Conservation: what the consumer took plus what the drain hands out is
	// what was admitted (the report's own identity counts only sink traffic).
	admitted, left := 0, m.n
	for _, s := range seq {
		admitted += int(s)
	}
	rep := f.Drain([]EgressSink{modelSink{m}}, ServeOptions{})
	if m.n != 0 || rep.Drained != left || rep.Txd != uint64(left) || rep.Admitted != uint64(admitted) || f.Len() != 0 {
		t.Fatalf("Drain handed out %d of %d unreleased (%d admitted, Len %d): %s", rep.Drained, left, admitted, f.Len(), rep)
	}
}
