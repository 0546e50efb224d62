package qdisc

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"eiffel/internal/pkt"
	"eiffel/internal/stats"
)

// This file is the graceful-lifecycle layer of the front: the state
// machine running → draining → closed, and the exact
// conservation accounting that makes "closed" checkable. Closing a front
// quiesces producers (the runtime's refusable admission paths refuse
// with shardq.PushClosed), then the backlog — rings, bucketed queues,
// shapers, schedulers — drains to the sinks (Drain) or back to the
// caller (CloseForce), and at quiescence the identity
//
//	admitted == tx'd + dropped + released
//
// holds exactly: every admitted packet is disposed exactly once.
// Admitted is counted on the front's enqueue surfaces; tx'd and dropped
// in the front's stats.Egress by the Serve/Drain egress path; released
// by CloseForce. Callers that drive GroupDequeueBatch by hand own the
// disposal of the packets they pop — the identity is the contract of
// worker-driven (Serve/Drain) egress.

// LifecycleState is a front's position in the close protocol.
type LifecycleState int32

const (
	// StateRunning: admission open, workers (if any) draining.
	StateRunning LifecycleState = iota
	// StateDraining: Close was called — refusable admission refuses with
	// shardq.PushClosed; the backlog is being run down.
	StateDraining
	// StateClosed: the backlog reached exact quiescence (or was force-
	// released); the conservation identity holds.
	StateClosed
)

// String names the state.
func (s LifecycleState) String() string {
	switch s {
	case StateDraining:
		return "draining"
	case StateClosed:
		return "closed"
	}
	return "running"
}

// drainHorizon is the drain clock: far beyond every release time and
// shaper gate, so a draining front treats everything as eligible, with
// headroom below MaxInt64 against downstream arithmetic.
const drainHorizon = int64(1) << 62

// egressState is the lifecycle and conservation block the front embeds:
// the close state machine plus the counters the conservation identity
// needs (tx'd and dropped live in the stats.Egress block).
type egressState struct {
	state    atomic.Int32
	admitted stats.Counter
	released stats.Counter
	eg       stats.Egress
}

// State returns the front's lifecycle state.
func (e *egressState) State() LifecycleState { return LifecycleState(e.state.Load()) }

// Egress returns the front's egress disposal accounting (tx'd, retries,
// backoff, per-reason drops), live; snapshot it for a consistent read at
// quiescence.
func (e *egressState) Egress() *stats.Egress { return &e.eg }

// Admitted returns how many packets the front's enqueue surfaces have
// admitted since construction.
func (e *egressState) Admitted() uint64 { return e.admitted.Load() }

// Released returns how many packets a forced close handed back.
func (e *egressState) Released() uint64 { return e.released.Load() }

//eiffel:hotpath
func (e *egressState) admit(n int) {
	if n > 0 {
		e.admitted.Add(uint64(n))
	}
}

// admitLagging reports that a producer's admitted add is still in
// flight: the enqueue surfaces count admission AFTER the runtime
// publishes the packet, so a drain can pop and dispose a packet before
// its producer's counter add lands — disposals transiently exceed
// admitted. The drains treat that like any other racing-admitter
// transient and re-pass until it settles. Only this direction spins:
// admitted exceeding disposals at backlog quiescence is the legitimate
// hand-popping caller (who owns disposal of what they popped), reported
// honestly as non-conserved rather than waited on forever.
func (e *egressState) admitLagging() bool {
	s := e.eg.Snapshot()
	return e.admitted.Load() < s.Txd+s.Dropped()+e.released.Load()
}

func (e *egressState) report(start time.Time, drained int) DrainReport {
	s := e.eg.Snapshot()
	return DrainReport{
		Admitted: e.admitted.Load(),
		Txd:      s.Txd,
		Dropped:  s.Dropped(),
		Released: e.released.Load(),
		Drained:  drained,
		Elapsed:  time.Since(start),
	}
}

// DrainReport is the outcome of a Drain/CloseForce: the conservation
// identity's four terms at quiescence, plus what this drain itself moved
// and how long it took.
type DrainReport struct {
	// Admitted is every packet the front's enqueue surfaces accepted over
	// its lifetime.
	Admitted uint64
	// Txd is every packet a sink accepted (workers and drain together).
	Txd uint64
	// Dropped is every packet the egress path gave up on, all reasons
	// (deadline, retry budget, failed sink).
	Dropped uint64
	// Released is every packet a forced close handed back to the caller.
	Released uint64
	// Drained counts packets disposed by this call itself.
	Drained int
	// Elapsed is this call's wall time — the recovery-time bound
	// TestChaosEveryPreset asserts on.
	Elapsed time.Duration
}

// Conserved reports the exact conservation identity:
// admitted == tx'd + dropped + released.
func (r DrainReport) Conserved() bool {
	return r.Admitted == r.Txd+r.Dropped+r.Released
}

// String renders the report for logs and tables.
func (r DrainReport) String() string {
	return fmt.Sprintf("admitted=%d txd=%d dropped=%d released=%d drained=%d elapsed=%s conserved=%v",
		r.Admitted, r.Txd, r.Dropped, r.Released, r.Drained, r.Elapsed, r.Conserved())
}

// txStep offers ps[*idx:] to the sink once, recovering from a sink
// panic: on the fallible path it runs the full retry loop (which
// advances *idx incrementally, so the un-disposed remainder survives the
// recover); on the infallible path it counts the whole remainder tx'd.
// Returns whether the sink panicked.
func txStep(sink EgressSink, fs FallibleSink, ps []*pkt.Packet, idx *int,
	pol *RetryPolicy, eg *stats.Egress, onDrop func(*pkt.Packet, DropReason)) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
		}
	}()
	if fs != nil {
		txResilient(fs, ps, idx, pol, eg, onDrop)
		return false
	}
	n := len(ps) - *idx
	sink.Tx(ps[*idx:])
	eg.TxBatch(n)
	*idx = len(ps)
	return false
}

// disposeFailed drops ps with DropSinkFailed accounting — the terminal
// disposal when a sink's panic budget is exhausted and its packets must
// not be lost from the conservation identity.
func disposeFailed(ps []*pkt.Packet, eg *stats.Egress, onDrop func(*pkt.Packet, DropReason)) {
	eg.DropFailed(len(ps))
	if onDrop != nil {
		for _, p := range ps {
			onDrop(p, DropSinkFailed)
		}
	}
}

// drainGroup runs group g's backlog down to empty through sink, with the
// same retry/backoff/deadline handling as a Serve worker and a fresh
// panic budget; once that budget is exhausted the group's remaining
// backlog is disposed as failed drops so the drain terminates and
// conservation holds. Returns how many packets it disposed. Exclusive
// access to group g required.
func (f *Front) drainGroup(g int, sink EgressSink, opt *ServeOptions, out []*pkt.Packet) (disposed int) {
	panics := 0
	for {
		k := f.GroupDequeueBatch(g, drainHorizon, out)
		if k == 0 {
			if f.GroupLen(g) == 0 {
				return disposed
			}
			// Published-but-not-yet-poppable is a transient (an admitter
			// that raced Close is completing its claim); yield and re-pop.
			runtime.Gosched()
			continue
		}
		f.dispose(sink, out[:k], opt, &panics)
		disposed += k
		clear(out[:k])
	}
}

// dispose runs ps to sink to the end: every packet is tx'd, dropped under
// the retry policy, or — once *panics exceeds the restart budget —
// disposed as a failed drop.
func (f *Front) dispose(sink EgressSink, ps []*pkt.Packet, opt *ServeOptions, panics *int) {
	fs, _ := sink.(FallibleSink)
	for idx := 0; idx < len(ps); {
		if opt.MaxRestarts >= 0 && *panics > opt.MaxRestarts {
			disposeFailed(ps[idx:], &f.eg, opt.OnDrop)
			return
		}
		if txStep(sink, fs, ps, &idx, &opt.Retry, &f.eg, opt.OnDrop) {
			*panics++
		}
	}
}

// quiesce closes the front and repeats pass (one sweep over every group's
// backlog, returning how many packets it disposed) to exact quiescence —
// a racing admitter's final claim is absorbed by re-passing — then marks
// the front closed and reports the conservation terms. AdmitIdle is
// checked BEFORE Len: once it holds post-close no straggler can still
// publish, so a subsequent empty Len is final — the other order lets a
// straggler publish between the two loads and strand a packet.
func (f *Front) quiesce(pass func() int) DrainReport {
	f.Close()
	start := time.Now()
	disposed := 0
	for {
		n := pass()
		disposed += n
		if n == 0 {
			if f.rt.AdmitIdle() && f.Len() == 0 && !f.admitLagging() {
				break
			}
			runtime.Gosched()
		}
	}
	f.state.Store(int32(StateClosed))
	return f.report(start, disposed)
}

// Drain closes the front and runs the entire remaining backlog to the
// sinks (one per group, same contract as ServeWith), retrying fallible
// sinks under opt.Retry and degrading by counted drops, then marks the
// front closed and reports the conservation terms at quiescence. Every
// gate opens for the drain — shaper release times, gates inside a policy
// program, hClock limit clocks: a closing front prefers delivery over
// pacing. Requires exclusive access to every group — stop Serve workers
// first (Server.Stop does exactly this, in order).
func (f *Front) Drain(sinks []EgressSink, opt ServeOptions) DrainReport {
	if len(sinks) != f.NumGroups() {
		panic("qdisc: Drain needs one sink per consumer group")
	}
	opt = opt.withDefaults()
	out := make([]*pkt.Packet, opt.Batch)
	return f.quiesce(func() (n int) {
		for g := range sinks {
			n += f.drainGroup(g, sinks[g], &opt, out)
		}
		return n
	})
}

// CloseForce closes the front and releases the remaining backlog to the
// caller instead of the sinks: release (when non-nil) sees every queued
// packet, e.g. pool.Put. It runs on the calling goroutine only, so a
// non-concurrent pkt.Pool is safe. Same exclusivity contract as Drain.
func (f *Front) CloseForce(release func(*pkt.Packet)) DrainReport {
	out := make([]*pkt.Packet, 256)
	return f.quiesce(func() (n int) {
		for g := range f.groups {
			for {
				k := f.GroupDequeueBatch(g, drainHorizon, out)
				if k == 0 {
					break
				}
				if release != nil {
					for _, p := range out[:k] {
						release(p)
					}
				}
				f.released.Add(uint64(k))
				clear(out[:k])
				n += k
			}
		}
		return n
	})
}
