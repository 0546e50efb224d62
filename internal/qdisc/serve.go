package qdisc

import (
	"sync"
	"sync/atomic"
	"time"

	"eiffel/internal/pkt"
)

// This file is the supervised egress host: the Serve worker fleet with
// panic recovery, bounded restart, and a stall watchdog, plus the
// graceful stop that routes through the lifecycle drain. One worker per
// consumer group polls GroupDequeueBatch and disposes every popped
// batch through its group's sink — resiliently when the sink is
// fallible (TryTx), trusting it when it is not. A sink panic is
// recovered per step: the un-disposed remainder of the batch is
// re-offered, the group's restart budget burns down, and a group whose
// budget is exhausted is marked FAILED — its worker exits, its backlog
// stays queued for Stop's drain, and Health reports it so operators see
// the dead TX queue instead of silently losing 1/G of all flows.

// ServeOptions tunes a supervised Serve fleet; the zero value selects
// the defaults noted per field. The same options drive the lifecycle
// drain (Stop, front Drain), so a stop behaves exactly like the workers
// it replaces.
type ServeOptions struct {
	// Batch sizes each worker's drain scratch (default 64).
	Batch int
	// Retry bounds the fight against a refusing FallibleSink; see
	// RetryPolicy. Ignored for sinks that only implement Tx.
	Retry RetryPolicy
	// OnDrop, when non-nil, observes every packet the retry policy or a
	// failed sink gives up on (the packet is the callee's to recycle).
	// Called from worker goroutines; must be safe for the caller's
	// concurrency.
	OnDrop func(*pkt.Packet, DropReason)
	// MaxRestarts is each group's sink-panic budget: recoveries beyond it
	// mark the group failed and retire its worker. Default 8; negative
	// means unlimited.
	MaxRestarts int
	// StallWindow is the watchdog's sampling period: a group with backlog
	// but zero drain progress across a full window is flagged Stalled in
	// Health. Default 10ms; negative disables the watchdog.
	StallWindow time.Duration
}

func (o ServeOptions) withDefaults() ServeOptions {
	if o.Batch <= 0 {
		o.Batch = 64
	}
	if o.MaxRestarts == 0 {
		o.MaxRestarts = 8
	}
	if o.StallWindow == 0 {
		o.StallWindow = 10 * time.Millisecond
	}
	o.Retry = o.Retry.withDefaults()
	return o
}

// serverGroup is one group's supervision state. Padded so the workers'
// progress counters never false-share.
type serverGroup struct {
	progress atomic.Uint64 // packets disposed (tx'd + dropped)
	restarts atomic.Uint64 // panic recoveries consumed
	panics   atomic.Uint64 // sink panics observed (recovered or not)
	stalled  atomic.Bool   // watchdog: backlog with no progress for a window
	failed   atomic.Bool   // restart budget exhausted; worker retired

	lastSeen uint64 // watchdog-private progress sample
	_        [64]byte
}

// GroupHealth is one consumer group's supervision snapshot.
type GroupHealth struct {
	// Group is the consumer-group index.
	Group int
	// Backlog is the group's queued-but-undrained packet count.
	Backlog int
	// Progress is how many packets the group's worker has disposed.
	Progress uint64
	// Restarts is how many sink panics the worker recovered from.
	Restarts uint64
	// Panics is how many sink panics were observed in total.
	Panics uint64
	// Stalled: the watchdog saw backlog but no progress for a full
	// StallWindow. Clears itself when the group moves again.
	Stalled bool
	// Failed: the restart budget is exhausted and the worker has retired;
	// the group's backlog waits for Stop's drain.
	Failed bool
}

// Server is a running supervised egress fleet (see Front.ServeWith). Stop
// and StopForce are idempotent and safe from any goroutine; everything
// else is read-only.
type Server struct {
	f     *Front
	clock func() int64
	sinks []EgressSink
	opt   ServeOptions

	halt     atomic.Bool
	wg       sync.WaitGroup
	groups   []serverGroup
	stopOnce sync.Once
	rep      DrainReport
}

// serveIdleNap is how long a Serve worker ASKS to sleep when its group has
// nothing to drain; an idle group then costs ~zero CPU (the poll itself
// settles to a few atomic loads once the head cache is warm). What it gets
// is 0.5–1.1 ms: Go rounds an idle thread's epoll_wait up to a whole
// millisecond (benchmark/README.md, finding 3), so this nap — not any
// queue — sets a paced workload's sojourn at half a nap (p50) to a nap plus
// the burst (p99). ROADMAP's measurement item has what a true 50 µs nap and
// a doorbell cost and buy.
const serveIdleNap = 50 * time.Microsecond

// worker is group g's drain loop: poll, dispose, recover. On halt it
// still disposes the batch it already popped — a popped packet is
// invisible to the lifecycle drain, so abandoning it would break
// conservation.
func (s *Server) worker(g int, sink EgressSink) {
	defer s.wg.Done()
	fs, _ := sink.(FallibleSink)
	gr := &s.groups[g]
	out := make([]*pkt.Packet, s.opt.Batch)
	k, idx := 0, 0
	for {
		if idx >= k {
			clear(out[:k]) // drop the handles: scratch must not pin disposed packets
			k, idx = 0, 0
			if s.halt.Load() {
				return
			}
			if k = s.f.GroupDequeueBatch(g, s.clock(), out); k == 0 {
				time.Sleep(serveIdleNap)
				continue
			}
		}
		before := idx
		panicked := txStep(sink, fs, out[:k], &idx, &s.opt.Retry, &s.f.eg, s.opt.OnDrop)
		if d := idx - before; d > 0 {
			gr.progress.Add(uint64(d))
		}
		if panicked {
			gr.panics.Add(1)
			if s.opt.MaxRestarts >= 0 && gr.restarts.Load() >= uint64(s.opt.MaxRestarts) {
				// Budget exhausted: dispose the remainder as failed drops so
				// nothing in scratch is lost, mark the group, retire.
				disposeFailed(out[idx:k], &s.f.eg, s.opt.OnDrop)
				gr.progress.Add(uint64(k - idx))
				clear(out[:k])
				gr.failed.Store(true)
				return
			}
			gr.restarts.Add(1)
		}
	}
}

// watchdog samples every group's progress counter every StallWindow and flags
// groups that hold backlog without draining any of it across a full
// window. It naps in short slices so Stop never waits a whole window.
func (s *Server) watchdog() {
	defer s.wg.Done()
	const nap = time.Millisecond
	for !s.halt.Load() {
		for slept := time.Duration(0); slept < s.opt.StallWindow && !s.halt.Load(); slept += nap {
			time.Sleep(nap)
		}
		if s.halt.Load() {
			return
		}
		for g := range s.groups {
			gr := &s.groups[g]
			cur := gr.progress.Load()
			stuck := cur == gr.lastSeen && s.f.GroupLen(g) > 0 && !gr.failed.Load()
			gr.stalled.Store(stuck)
			gr.lastSeen = cur
		}
	}
}

// Health snapshots every group's supervision state. Safe from any
// goroutine while the fleet runs.
func (s *Server) Health() []GroupHealth {
	out := make([]GroupHealth, len(s.groups))
	for g := range s.groups {
		gr := &s.groups[g]
		out[g] = GroupHealth{
			Group:    g,
			Backlog:  s.f.GroupLen(g),
			Progress: gr.progress.Load(),
			Restarts: gr.restarts.Load(),
			Panics:   gr.panics.Load(),
			Stalled:  gr.stalled.Load(),
			Failed:   gr.failed.Load(),
		}
	}
	return out
}

// Stop halts the fleet gracefully: workers finish their in-flight
// batches and exit, then the front closes and its remaining backlog
// drains to the same sinks under the same options (failed groups
// included, with a fresh panic budget). Idempotent; returns the
// conservation report at quiescence.
func (s *Server) Stop() DrainReport {
	s.stopOnce.Do(func() {
		s.halt.Store(true)
		s.wg.Wait()
		s.rep = s.f.Drain(s.sinks, s.opt)
	})
	return s.rep
}

// StopForce halts the fleet and releases the remaining backlog to the
// caller instead of the sinks — the fast shutdown for when the sinks
// themselves are gone. release (when non-nil) sees every packet, e.g.
// pool.Put; it runs on the calling goroutine only, so a non-concurrent
// pool is safe. Idempotent with Stop (whichever runs first wins).
func (s *Server) StopForce(release func(*pkt.Packet)) DrainReport {
	s.stopOnce.Do(func() {
		s.halt.Store(true)
		s.wg.Wait()
		s.rep = s.f.CloseForce(release)
	})
	return s.rep
}
