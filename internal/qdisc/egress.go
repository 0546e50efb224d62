package qdisc

import (
	"sync/atomic"
	"time"

	"eiffel/internal/pkt"
	"eiffel/internal/stats"
)

// This file is the egress contract. EgressSink.Tx models a transmit queue
// that never pushes back — fine for benchmarks, wrong for a real NIC ring
// that fills, a pacer that throttles, or a driver that hiccups.
// FallibleSink is the honest contract: a sink may accept a prefix of the
// batch, or none of it, and say why. The retry machinery here
// (txResilient, driven by RetryPolicy) turns that into the degradation the
// runtime wants: bounded retries with capped exponential backoff, and a
// per-packet deadline after which the head packet is DROPPED with a
// counted reason instead of wedging the group's worker forever. Every
// disposal is accounted in a stats.Egress block, so conservation (admitted
// == tx'd + dropped + released) stays checkable at quiescence.

// EgressSink models one egress transmit queue — a NIC TX ring, a DPDK
// port queue, a per-core pacer. Each consumer-group worker owns one sink
// and hands it every batch it drains. Tx is called only from that group's
// worker goroutine; ps is the worker's reusable scratch, valid only for
// the duration of the call (copy what must outlive it).
type EgressSink interface {
	Tx(ps []*pkt.Packet)
}

// CountingSink is the trivial EgressSink: an atomic packet counter, the
// "TX queue" of benchmarks and experiments where transmission is free.
type CountingSink struct{ n atomic.Int64 }

// Tx implements EgressSink.
func (c *CountingSink) Tx(ps []*pkt.Packet) { c.n.Add(int64(len(ps))) }

// Count returns how many packets have been handed to the sink. Safe from
// any goroutine.
func (c *CountingSink) Count() int64 { return c.n.Load() }

// FallibleSink is an egress transmit queue that can refuse work. TryTx
// offers ps and returns how many packets from the FRONT of ps the sink
// accepted (0 <= n <= len(ps)) and, when it accepted fewer than all of
// them, optionally why. Acceptance is prefix-only — a sink must never
// skip packets — so per-flow order survives retries. Like Tx, TryTx is
// called from one worker goroutine at a time and ps is worker scratch,
// valid only for the duration of the call.
//
// A sink implementing both Tx and TryTx should make Tx equivalent to
// retrying TryTx forever; the runtime always prefers TryTx when it is
// present.
type FallibleSink interface {
	TryTx(ps []*pkt.Packet) (n int, err error)
}

// DropReason classifies why the resilient egress path dropped a packet.
type DropReason uint8

const (
	// DropDeadline: the packet's retry deadline (RetryPolicy.Deadline,
	// measured from its first refusal) expired.
	DropDeadline DropReason = iota
	// DropRetryBudget: the packet was refused RetryPolicy.MaxAttempts
	// consecutive times.
	DropRetryBudget
	// DropSinkFailed: the group's sink was declared failed (its panic
	// budget exhausted) and the backlog was disposed at drain.
	DropSinkFailed
)

// String names the reason.
func (r DropReason) String() string {
	switch r {
	case DropDeadline:
		return "deadline"
	case DropRetryBudget:
		return "retry-budget"
	case DropSinkFailed:
		return "sink-failed"
	}
	return "unknown"
}

// RetryPolicy bounds how hard the egress path fights a refusing sink
// before degrading. The zero value selects the defaults noted per field.
type RetryPolicy struct {
	// MaxAttempts is how many consecutive refusals (errors or zero-
	// progress partial accepts) the HEAD packet of a batch survives
	// before it is dropped with DropRetryBudget. Any accepted packet
	// resets the count. Default 8; negative means unlimited (the
	// deadline, if set, still bounds the wait).
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; each further
	// consecutive refusal doubles it up to MaxBackoff. Default 10µs.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff. Default 1ms.
	MaxBackoff time.Duration
	// Deadline is the wall budget a head packet may spend being retried,
	// measured from its first refusal; once exceeded it is dropped with
	// DropDeadline. 0 disables the deadline (the attempt budget still
	// applies). The fault-free path never reads the clock.
	Deadline time.Duration
	// Sleep and Now inject the blocking sleep and the monotonic
	// nanosecond clock, so tests drive retry schedules deterministically.
	// Defaults: time.Sleep and a monotonic wall reading.
	Sleep func(time.Duration)
	Now   func() int64
}

// withDefaults resolves the zero-value defaults.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 8
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Microsecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Millisecond
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	if p.Now == nil {
		p.Now = monoNow
	}
	return p
}

// monoNow is the default RetryPolicy clock: monotonic nanoseconds.
func monoNow() int64 { return int64(time.Since(monoBase)) }

var monoBase = time.Now()

// backoff returns the capped exponential backoff for the given
// consecutive-refusal count (1-based).
//
//eiffel:hotpath
func (p *RetryPolicy) backoff(refusals int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < refusals; i++ {
		d *= 2
		if d >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// txResilient drives sink.TryTx over ps[*idx:] until every packet is
// disposed — accepted by the sink, or dropped under pol's budgets — and
// accounts each disposal in eg as it happens. *idx is the progress
// cursor: it always equals the count of DISPOSED packets, advanced after
// every TryTx return and every drop, so a caller that recovers from a
// sink panic can re-offer exactly the un-disposed remainder (packets a
// panicking TryTx had already consumed are the sink's problem — the
// contract is at-most-once across a panic, exactly-once otherwise).
// onDrop, when non-nil, observes every dropped packet; the packet is the
// callee's to keep or recycle.
//
// The fault-free path — full acceptance on the first call — is two
// atomic adds and no clock reads, and stays allocation-free.
//
//eiffel:hotpath
func txResilient(sink FallibleSink, ps []*pkt.Packet, idx *int, pol *RetryPolicy,
	eg *stats.Egress, onDrop func(*pkt.Packet, DropReason)) {
	refusals := 0
	var firstRefusalNs int64
	haveFirst := false
	for *idx < len(ps) {
		rem := ps[*idx:]
		n, err := sink.TryTx(rem)
		if n < 0 {
			n = 0
		}
		if n > len(rem) {
			n = len(rem)
		}
		if n > 0 {
			eg.TxBatch(n)
			*idx += n
			refusals, haveFirst = 0, false
			if n == len(rem) {
				return
			}
		}
		// The sink refused the (new) head packet: error, or a partial
		// accept that stopped short.
		if err != nil {
			eg.Error()
		} else {
			eg.Partial()
		}
		refusals++
		drop := DropReason(0)
		dropped := false
		if pol.Deadline > 0 {
			now := pol.Now()
			if !haveFirst {
				firstRefusalNs, haveFirst = now, true
			} else if now-firstRefusalNs >= int64(pol.Deadline) {
				drop, dropped = DropDeadline, true
			}
		}
		if !dropped && pol.MaxAttempts > 0 && refusals >= pol.MaxAttempts {
			drop, dropped = DropRetryBudget, true
		}
		if dropped {
			p := ps[*idx]
			*idx++
			if drop == DropDeadline {
				eg.DropDeadline()
			} else {
				eg.DropRetry()
			}
			if onDrop != nil {
				onDrop(p, drop)
			}
			refusals, haveFirst = 0, false
			continue
		}
		d := pol.backoff(refusals)
		eg.Retry(int64(d))
		pol.Sleep(d)
	}
}

// ResilientSink adapts a FallibleSink to the infallible EgressSink
// contract by retrying under a RetryPolicy: Tx returns only when every
// packet is disposed — accepted, or dropped under the policy's budgets
// (so "infallible" is honest: the sink degrades by counted drops, never
// by blocking forever or losing packets silently). Deployments that
// drive GroupDequeueBatch by hand wrap their sink in one of these; the
// Serve workers instead use the retry path directly, accounting into
// the front's own Egress block, so prefer handing Serve the raw
// FallibleSink.
//
// Same concurrency contract as EgressSink: one goroutine at a time. A
// panic out of the underlying TryTx propagates; packets the panicking
// call had consumed are at-most-once.
type ResilientSink struct {
	sink   FallibleSink
	pol    RetryPolicy
	eg     stats.Egress
	onDrop func(*pkt.Packet, DropReason)
}

// NewResilientSink wraps sink with retry/backoff/deadline handling under
// pol (zero fields take the documented defaults). onDrop, when non-nil,
// observes every packet the policy gives up on.
func NewResilientSink(sink FallibleSink, pol RetryPolicy, onDrop func(*pkt.Packet, DropReason)) *ResilientSink {
	return &ResilientSink{sink: sink, pol: pol.withDefaults(), onDrop: onDrop}
}

// Tx implements EgressSink; every packet in ps is disposed on return.
//
//eiffel:hotpath
func (r *ResilientSink) Tx(ps []*pkt.Packet) {
	idx := 0
	txResilient(r.sink, ps, &idx, &r.pol, &r.eg, r.onDrop)
}

// Egress returns the sink's disposal accounting.
func (r *ResilientSink) Egress() *stats.Egress { return &r.eg }
