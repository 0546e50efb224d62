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
// consumer group drains GroupDequeueBatch and disposes every popped
// batch through its group's sink — resiliently when the sink is
// fallible (TryTx), trusting it when it is not. A sink panic is
// recovered per step: the un-disposed remainder of the batch is
// re-offered, the group's restart budget burns down, and a group whose
// budget is exhausted is marked FAILED — its worker exits, its backlog
// stays queued for Stop's drain, and Health reports it so operators see
// the dead TX queue instead of silently losing 1/G of all flows.
//
// A worker whose drain comes back empty takes an idle step whose length
// the queue sets, as Eiffel arms its timer at the cFFS's soonest deadline:
// it naps to GroupNextTimer on a sleep precise below a millisecond
// (time.Sleep wakes an idle Go process up to a millisecond late), or, with
// nothing queued, parks on a doorbell that every admission path rings.

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

	idle *idling // nil: wallIdling
}

func (o ServeOptions) withDefaults() ServeOptions {
	if o.idle == nil {
		o.idle = &wallIdling
	}
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
	sleeps   atomic.Uint64 // idle-step sleeps taken
	sleptNs  atomic.Uint64 // wall time those sleeps lasted
	rung     atomic.Uint64 // parks ended by the doorbell

	lastSeen uint64 // watchdog-private progress sample
	_        [64]byte
}

// note counts one sleep that began at t0; the worker is the only writer.
func (gr *serverGroup) note(t0 time.Time, rung bool) {
	gr.sleeps.Add(1)
	gr.sleptNs.Add(uint64(time.Since(t0)))
	if rung {
		gr.rung.Add(1)
	}
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
	// Sleeps counts the worker's idle sleeps (naps to a deadline, floor
	// parks, doorbell waits), SleptNs the wall time they lasted, and Rung
	// the parks that a publication ended.
	Sleeps, SleptNs, Rung uint64
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
	stop     chan struct{} // closed on shutdown: ends the watchdog's wait
	wg       sync.WaitGroup
	groups   []serverGroup
	stopOnce sync.Once
	rep      DrainReport
}

// The idle step's bounds. A worker that parked on every empty drain would
// ride a steady producer's tail and make it pay a wake-up per packet, so an
// empty group first parks idleFloor and lets a batch collect. idleCap keeps
// a clock that is not wall nanoseconds (a constant test clock, an hClock
// gate far ahead) at millisecond polling, never worse. idleBell bounds a
// doorbell wait.
const (
	idleFloor = 200 * time.Microsecond
	idleCap   = time.Millisecond
	idleBell  = 100 * time.Millisecond
)

// idling is how a fleet's workers sleep: the bounds above and a sleeper
// factory, one sleeper per worker. ServeOptions.idle substitutes it in tests.
type idling struct {
	floor, cap, bell time.Duration
	sleeper          func() sleeper
}

var wallIdling = idling{idleFloor, idleCap, idleBell, newWallSleeper}

// sleeper is how a worker blocks.
type sleeper interface {
	// nap holds the thread for d, precisely below a millisecond.
	nap(d time.Duration)
	// wait parks the goroutine until bell delivers or d elapses, and
	// reports whether the bell ended it.
	wait(bell <-chan struct{}, d time.Duration) (rung bool)
}

// wallSleeper naps on nanosleep and parks on one reused Go timer.
type wallSleeper struct{ t *time.Timer }

func newWallSleeper() sleeper { return &wallSleeper{time.NewTimer(0)} }

func (w *wallSleeper) nap(d time.Duration) { nanosleep(d) }

func (w *wallSleeper) wait(bell <-chan struct{}, d time.Duration) bool {
	w.t.Reset(d)
	select {
	case <-bell:
		w.t.Stop()
		return true
	case <-w.t.C:
		return false
	}
}

// doorbell is one group's wake-up line from the admission paths to its
// parked worker, padded off every line the worker writes per drain.
type doorbell struct {
	_ [64]byte
	// armed is the worker's parked level (bellOff when it is not parked),
	// set before it parks and cleared by whoever takes the wake-up: a
	// ring, or the worker when it stops waiting.
	//
	//eiffel:atomic
	armed uint32
	ch    chan struct{} // capacity 1: one token per arming
	_     [64]byte
}

// The doorbell's levels: which publications may end a park.
const (
	bellOff   uint32 = iota
	bellBatch        // the floor park: only a batch is worth a wake-up
	bellAny          // the doorbell wait: every publication rings
)

// ring wakes group g's worker if it waits on its doorbell. Admission calls
// it AFTER publishing; the worker arms BEFORE re-reading occupancy. Both
// are sequentially consistent, so either the worker sees the packet or the
// producer sees the armed bell: no wake-up is lost. Taking the level by
// CAS rings each park at most once.
//
//eiffel:hotpath
func (f *Front) ring(g int) {
	if b := &f.bells[g]; atomic.LoadUint32(&b.armed) == bellAny {
		b.take(bellAny)
	}
}

// ringAll is ring for a batch, which may have published to any group and
// also ends a floor park.
//
//eiffel:hotpath
func (f *Front) ringAll() {
	for g := range f.bells {
		b := &f.bells[g]
		if lv := atomic.LoadUint32(&b.armed); lv != bellOff {
			b.take(lv)
		}
	}
}

// take delivers a ring's token if it wins the parked level lv.
//
//eiffel:hotpath
func (b *doorbell) take(lv uint32) {
	if atomic.CompareAndSwapUint32(&b.armed, lv, bellOff) {
		select {
		case b.ch <- struct{}{}:
		default:
		}
	}
}

// disarm takes level lv back. If a ring took it first, disarm collects
// that ring's token, leaving the channel empty for the next arming, and
// reports true.
func (b *doorbell) disarm(lv uint32) (rung bool) {
	if atomic.CompareAndSwapUint32(&b.armed, lv, bellOff) {
		return false
	}
	<-b.ch
	return true
}

// park arms worker g's doorbell at level lv and waits up to d. It reports
// whether it ended early: on a ring, a halt, or — for the doorbell wait,
// which re-reads the group's occupancy after arming — a packet already
// queued. (The floor stays a floor even then: a slot a producer has
// claimed but not yet published counts as queued and cannot be drained.)
func (s *Server) park(g int, sl sleeper, lv uint32, d time.Duration) bool {
	b := &s.f.bells[g]
	atomic.StoreUint32(&b.armed, lv)
	if (lv == bellAny && s.f.GroupLen(g) > 0) || s.halt.Load() {
		b.disarm(lv)
		return true
	}
	t0 := time.Now()
	rung := sl.wait(b.ch, d) || b.disarm(lv)
	s.groups[g].note(t0, rung)
	return rung
}

// idleStep is worker g's move when a drain came back empty: nothing if a
// packet is already eligible, else a nap to the group's next deadline
// clamped to [floor, cap]. With nothing queued it parks a floor that only
// a batch ends early, then waits on the doorbell any publication rings.
// The floor is a park, not a nap: a thread held in a sleep while the
// producer keeps the other CPU busy makes the runtime hand its P off at
// every sleep, which slows the producer.
func (s *Server) idleStep(g int, sl sleeper) {
	now, idle := s.clock(), s.opt.idle
	t, ok := s.f.GroupNextTimer(g, now)
	switch {
	case ok && t <= now:
	case ok:
		t0 := time.Now()
		sl.nap(min(max(time.Duration(t-now), idle.floor), idle.cap))
		s.groups[g].note(t0, false)
	case !s.park(g, sl, bellBatch, idle.floor):
		s.park(g, sl, bellAny, idle.bell)
	}
}

// worker is group g's drain loop: drain, dispose, recover, and an idle
// step when there is nothing to drain. On halt it still disposes the batch
// it already popped — a popped packet is invisible to the lifecycle drain,
// so abandoning it would break conservation.
func (s *Server) worker(g int, sink EgressSink) {
	defer s.wg.Done()
	fs, _ := sink.(FallibleSink)
	gr := &s.groups[g]
	sl := s.opt.idle.sleeper()
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
				s.idleStep(g, sl)
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
// window. Stop ends its wait at once.
func (s *Server) watchdog() {
	defer s.wg.Done()
	tick := time.NewTicker(s.opt.StallWindow)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
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
			Sleeps:   gr.sleeps.Load(),
			SleptNs:  gr.sleptNs.Load(),
			Rung:     gr.rung.Load(),
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
		s.shutdown()
		s.rep = s.f.Drain(s.sinks, s.opt)
	})
	return s.rep
}

// shutdown halts the fleet and waits for it to exit: the halt flag first,
// then every wake-up a worker or the watchdog may be parked on.
func (s *Server) shutdown() {
	s.halt.Store(true)
	close(s.stop)
	s.f.ringAll()
	s.wg.Wait()
}

// StopForce halts the fleet and releases the remaining backlog to the
// caller instead of the sinks — the fast shutdown for when the sinks
// themselves are gone. release (when non-nil) sees every packet, e.g.
// pool.Put; it runs on the calling goroutine only, so a non-concurrent
// pool is safe. Idempotent with Stop (whichever runs first wins).
func (s *Server) StopForce(release func(*pkt.Packet)) DrainReport {
	s.stopOnce.Do(func() {
		s.shutdown()
		s.rep = s.f.CloseForce(release)
	})
	return s.rep
}
