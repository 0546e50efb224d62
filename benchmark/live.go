package main

import (
	"fmt"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"eiffel/internal/pkt"
	"eiffel/internal/qdisc"
)

// retRing is the packet return path: the sink (called only from the one
// consumer-group worker) pushes transmitted packets, the generator pops
// them to send again. Single producer, single consumer, no locks. Its
// capacity covers every packet in existence, so a push never finds it
// full.
type retRing struct {
	buf  []*pkt.Packet
	mask uint64
	_    [64]byte
	head atomic.Uint64 // pop cursor; generator-owned
	_    [56]byte
	tail atomic.Uint64 // push cursor; sink-owned
	_    [56]byte
}

func newRetRing(capacity int) *retRing {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &retRing{buf: make([]*pkt.Packet, n), mask: uint64(n - 1)}
}

func (r *retRing) push(ps []*pkt.Packet) {
	t := r.tail.Load()
	if t+uint64(len(ps))-r.head.Load() > uint64(len(r.buf)) {
		panic("benchmark: return ring overflow: more packets came back than exist")
	}
	for i, p := range ps {
		r.buf[(t+uint64(i))&r.mask] = p
	}
	r.tail.Store(t + uint64(len(ps)))
}

func (r *retRing) pop(out []*pkt.Packet) int {
	h := r.head.Load()
	n := int(r.tail.Load() - h)
	if n > len(out) {
		n = len(out)
	}
	for i := 0; i < n; i++ {
		out[i] = r.buf[(h+uint64(i))&r.mask]
	}
	r.head.Store(h + uint64(n))
	return n
}

func (r *retRing) len() int { return int(r.tail.Load() - r.head.Load()) }

// sink is the recycling egress sink. In timed laps it only counts, looks at
// one packet in sampleEvery (release-time check, sojourn stamp) and hands
// the batch back to the generator; the full per-packet checks run only
// while a checker is attached (the verify laps).
type sink struct {
	clock   func() int64
	ret     *retRing
	granule int64

	txd   atomic.Int64 // packets transmitted
	early atomic.Int64 // sampled packets released before SendAt - granule

	// Sojourn samples, ns, recorded while rec is set (the paced phase).
	// nsamp is published after every batch so the generator can mark
	// window boundaries by index; it reads the samples after the worker
	// has stopped.
	rec     atomic.Bool
	samples []int32
	nsamp   atomic.Int64
	skip    int // worker-private: packets to skip before the next sample

	check atomic.Pointer[checker]

	// The generator sets wantWake before it parks on wake; the sink sends
	// one token once wakeAt packets are back. A waiting generator has all
	// but a handful of the window in flight, so that many will come back.
	wantWake atomic.Bool
	wake     chan struct{}
}

// wakeAt is how many returned packets the sink lets pile up before it wakes
// a parked generator: one futex wake per wakeAt packets costs the consumer
// nothing measurable, and the consumer is never short of backlog because
// every window is at least eight times this.
const wakeAt = 4096

// Tx implements qdisc.EgressSink.
func (s *sink) Tx(ps []*pkt.Packet) {
	now := s.clock()
	if c := s.check.Load(); c != nil {
		c.observe(ps, now)
	}
	rec := s.rec.Load()
	n := int(s.nsamp.Load())
	i := s.skip
	for ; i < len(ps); i += sampleEvery {
		p := ps[i]
		if p.SendAt-s.granule > now {
			s.early.Add(1)
		}
		if rec && n < len(s.samples) {
			d := now - p.Arrival
			if d > 1<<31-1 {
				d = 1<<31 - 1
			}
			s.samples[n] = int32(d)
			n++
		}
	}
	s.skip = i - len(ps)
	if rec {
		s.nsamp.Store(int64(n))
	}
	s.txd.Add(int64(len(ps)))
	s.ret.push(ps)
	if s.wantWake.Load() && s.ret.len() >= wakeAt {
		s.wantWake.Store(false)
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// generator is the only producer: it owns every free packet, stamps and
// admits them, and reads the clock that defines laps and windows.
type generator struct {
	w     *workloadDef
	f     front
	st    stream
	clock func() int64
	ret   *retRing
	sk    *sink
	buf   []*pkt.Packet
	tr    *tracer     // nil when tracing is off
	stall *time.Timer // bounds a wait for the consumer; see stallLimit

	// home is every packet there is. spare, its tail, holds the packets
	// beyond the closed loop's window until the paced phase, which needs
	// head-room instead of a bound: see pacedPool.
	home, spare []*pkt.Packet

	sent      int64 // packets admitted to the front
	waitNs    int64 // closed loop: time spent waiting for returned packets
	starved   int64 // paced: packets sent late because every packet was in flight
	sinceTick int
}

// stallLimit bounds how long the generator waits for the consumer before
// declaring the run broken rather than hanging.
const stallLimit = int64(10 * time.Second)

// acquire blocks until g.buf[:n] holds n free packets, of which it already
// holds have. It parks on the sink's wake channel rather than spinning: a
// spinning producer slows the consumer it is waiting for (measured: 3.0 vs
// 3.8 Mpps on hier_qos).
func (g *generator) acquire(have, n int) {
	if have += g.ret.pop(g.buf[have:n]); have == n {
		return
	}
	t0 := g.clock()
	for have < n {
		g.sk.wantWake.Store(true)
		if g.ret.len() == 0 {
			g.stall.Reset(time.Duration(stallLimit))
			select {
			case <-g.sk.wake:
				g.stall.Stop()
			case <-g.stall.C:
				panic(fmt.Sprintf("benchmark: consumer stalled: waited %v for %d free packets", time.Duration(stallLimit), n))
			}
		}
		have += g.ret.pop(g.buf[have:n])
	}
	t1 := g.clock()
	g.waitNs += t1 - t0
	g.tr.add(spanWait, t0, t1, 0)
}

// emit admits ps the way the workload admits: one EnqueueBatch, or one
// Enqueue per packet.
func (g *generator) emit(ps []*pkt.Packet, now int64) {
	t0 := g.tr.now()
	if g.w.batched {
		g.f.EnqueueBatch(ps, now)
	} else {
		for _, p := range ps {
			g.f.Enqueue(p, now)
		}
	}
	g.tr.add(spanEnqueue, t0, g.tr.now(), len(ps))
	g.sent += int64(len(ps))
	if g.w.tick != nil {
		if g.sinceTick += len(ps); g.sinceTick >= g.w.window {
			g.sinceTick = 0
			g.w.tick(g.f)
		}
	}
}

// satStep sends one run of enqRun packets in the closed loop and returns
// the time it stamped them with.
func (g *generator) satStep() int64 {
	g.tr.begin()
	g.acquire(0, enqRun)
	now := g.clock()
	ps := g.buf[:enqRun]
	g.st.fill(ps)
	sendAt := int64(0)
	if g.w.shaped {
		sendAt = now + g.w.satLead
	}
	for _, p := range ps {
		p.SendAt, p.Arrival = sendAt, now
	}
	g.tr.add(spanFill, now, g.tr.now(), enqRun)
	g.emit(ps, now)
	g.tr.end()
	return now
}

// quiesce waits until every packet is back with the generator: the front
// is empty and the worker is idle.
func (g *generator) quiesce() {
	t0 := g.clock()
	for want := pacedPool - len(g.spare); g.ret.len() < want; {
		time.Sleep(200 * time.Microsecond)
		if g.clock()-t0 > stallLimit {
			panic(fmt.Sprintf("benchmark: %d of %d packets never came back", want-g.ret.len(), want))
		}
	}
}

type lapStat struct {
	ns, txd, waitNs int64
}

// saturate runs the closed loop for laps laps of lapDur each: the window of
// packets is always in flight, the sink hands packets back, and the
// generator sends as fast as packets return.
func (g *generator) saturate(laps int, lapDur time.Duration) []lapStat {
	out := make([]lapStat, 0, laps)
	t0, tx0, w0 := g.clock(), g.sk.txd.Load(), g.waitNs
	for len(out) < laps {
		now := g.satStep()
		if now-t0 >= int64(lapDur) {
			tx := g.sk.txd.Load()
			out = append(out, lapStat{now - t0, tx - tx0, g.waitNs - w0})
			t0, tx0, w0 = now, tx, g.waitNs
		}
	}
	g.quiesce()
	return out
}

type winStat struct {
	ns, txd, cpuNs  int64
	s0, s1          int   // sojourn sample index range
	backlog         int64 // sent - transmitted at window end
	lateSum, lateMx int64 // generator wake-up lateness
	ticks           int
}

// paced runs the open loop: tick k is due at start + k*pacedTick whatever
// happened before, a burst of w.burst packets goes out at each wake-up,
// and the schedule never slips, so nothing is omitted: what cannot go out
// on time goes out late and is charged for it. It may be called again after
// a saturate phase: it leaves the pool as it found it, and the sojourn
// samples of every call follow one another in the sink's array.
func (g *generator) paced(windows int, winDur time.Duration) []winStat {
	perWin := int(winDur / pacedTick)
	if perWin < 1 {
		perWin = 1
	}
	out := make([]winStat, 0, windows)
	// The worker is idle (every phase ends quiesced), so the generator may
	// push on the sink's side of the ring and move the sink's samples.
	g.ret.push(g.spare)
	g.spare = nil
	have, room := int(g.sk.nsamp.Load()), windows*perWin*g.w.burst/sampleEvery+1024
	g.sk.samples = slices.Grow(g.sk.samples[:have], room)[:have+room]
	g.sk.rec.Store(true)
	start := g.clock()
	t0, tx0, cpu0, s0 := start, g.sk.txd.Load(), cpuNs(), int(g.sk.nsamp.Load())
	var cur winStat
	for k := 0; k < windows*perWin; k++ {
		due := start + int64(k)*int64(pacedTick)
		if d := due - g.clock(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		wake := g.clock()
		late := wake - due
		cur.lateSum += late
		if late > cur.lateMx {
			cur.lateMx = late
		}
		cur.ticks++
		g.burst(due, wake)
		if (k+1)%perWin == 0 {
			// Close the window at the next tick's due time, not after this
			// burst: the consumer gets the same interval per window as the
			// generator's schedule.
			end := due + int64(pacedTick)
			if d := end - g.clock(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			now, tx, cpu, s1 := g.clock(), g.sk.txd.Load(), cpuNs(), int(g.sk.nsamp.Load())
			cur.ns, cur.txd, cur.cpuNs = now-t0, tx-tx0, cpu-cpu0
			cur.s0, cur.s1, cur.backlog = s0, s1, g.sent-tx
			out = append(out, cur)
			cur = winStat{}
			t0, tx0, cpu0, s0 = now, tx, cpu, s1
		}
	}
	g.quiesce()
	g.sk.rec.Store(false)
	// Every packet is home. Back to the closed loop's in-flight bound, and
	// to the very packets it was built with, in their order: a window picked
	// from wherever the paced phase left them lies scattered over four times
	// the memory, and the laps that follow run a fifth slower for it
	// (pace_timer, 5.1 against 6.3 Mpps).
	for g.ret.pop(g.buf) > 0 {
	}
	g.ret.push(g.home[:g.w.window])
	g.spare = g.home[g.w.window:]
	return out
}

// burst sends one tick's packets. Every packet of the burst is due at the
// wake-up instant; on shaped workloads packet i is additionally held to
// its pace instant, the scheduled tick time plus its flow's lead plus
// i*step, so the released stream is smooth at the paced rate.
func (g *generator) burst(due, wake int64) {
	step := int64(pacedTick) / int64(g.w.burst)
	for i := 0; i < g.w.burst; i += enqRun {
		g.tr.begin()
		n := min(enqRun, g.w.burst-i)
		if have := g.ret.pop(g.buf[:n]); have < n {
			// Every packet is in flight: the consumer has been off the CPU
			// for a hundred milliseconds. Nothing is omitted — the rest of
			// the burst goes out when packets return, still due at this
			// wake-up, so the stall lands in the sojourn of this window.
			g.starved += int64(n - have)
			g.acquire(have, n)
		}
		ps := g.buf[:n]
		t0 := g.tr.now()
		g.st.fill(ps)
		if g.w.shaped {
			for j, p := range ps {
				at := due + leadNs[p.Class] + int64(i+j)*step
				p.SendAt, p.Arrival = at, max(at, wake)
			}
		} else {
			for _, p := range ps {
				p.SendAt, p.Arrival = 0, wake
			}
		}
		g.tr.add(spanFill, t0, g.tr.now(), n)
		g.emit(ps, wake)
		g.tr.end()
	}
}

// cpuNs is the process's CPU time, user plus system.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("benchmark: getrusage: " + err.Error())
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapSampler records the peak of heap-in-use every 100 ms. It reads
// runtime/metrics, which does not stop the world, so sampling does not
// show up in the sojourn tail.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
	n          int
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64() + s[1].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			h.n++
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes and the sample count.
func (h *heapSampler) finish() (uint64, int) {
	close(h.stop)
	<-h.done
	return h.peak, h.n
}

// instance is one live system under test: a front, its serving worker, the
// recycling sink and the generator, wired in a loop.
type instance struct {
	w   *workloadDef
	f   front
	g   *generator
	sk  *sink
	srv *qdisc.Server // nil on a traced instance
	tw  *tracedWorker // nil on an untraced instance
}

// pacedPool is how many packets exist. The closed loop uses the first
// window of them — its in-flight bound. The open loop uses all of them as
// head-room: on a shared two-CPU box the consumer is now and then
// descheduled for tens of milliseconds, and 131072 packets let the
// generator keep its schedule through a stall of about 100 ms at 1 Mpps on
// top of the standing shaper backlog. Beyond that it has to wait for
// packets (see burst).
const pacedPool = 1 << 17

// setup builds an instance and runs the closed loop for warm before
// anything is measured, so rings, bucket arrays and flow tables have reached
// their steady size. This is the work setup_s times: the warm-up is a fixed
// length of time, so setup_s moves by exactly what a change adds to or
// takes out of building the system. On a traced instance the benchmark's
// own worker loop replaces ServeWith.
func setup(w *workloadDef, seed int64, traced bool, warm time.Duration) (*instance, error) {
	f, err := w.newFront()
	if err != nil {
		return nil, fmt.Errorf("%s: build front: %w", w.name, err)
	}
	base := time.Now()
	clock := func() int64 { return int64(time.Since(base)) }
	ret := newRetRing(pacedPool)
	pool := pkt.NewPool(pacedPool)
	all := make([]*pkt.Packet, pacedPool)
	for i := range all {
		all[i] = pool.Get()
	}
	ret.push(all[:w.window])
	sk := &sink{clock: clock, ret: ret, granule: w.granule, wake: make(chan struct{}, 1)}
	g := &generator{
		w: w, f: f, st: w.newStream(seed), clock: clock, ret: ret, sk: sk,
		buf: make([]*pkt.Packet, enqRun), home: all, spare: all[w.window:],
		stall: time.NewTimer(time.Hour),
	}
	in := &instance{w: w, f: f, g: g, sk: sk}
	if traced {
		g.tr = newTracer(0, clock)
		in.tw = startTracedWorker(f, clock, sk, newTracer(1, clock))
	} else {
		in.srv = f.ServeWith(clock, []qdisc.EgressSink{sk}, qdisc.ServeOptions{})
	}
	g.saturate(1, warm)
	return in, nil
}

// stop halts the worker, drains the front and returns the failures it can
// now see: packets the egress path dropped, packets that never came back,
// sampled packets released early, plus one if admitted == transmitted +
// dropped + released does not hold.
func (in *instance) stop() (failed int64, desc string) {
	var dropped uint64
	var conserved bool
	if in.tw != nil {
		// The traced worker pops by hand, so the front's own egress
		// accounting never saw its packets; conservation is checked
		// against the sink's count instead.
		in.tw.stop()
		rep := in.f.Drain([]qdisc.EgressSink{in.sk}, qdisc.ServeOptions{})
		txd := uint64(in.sk.txd.Load())
		dropped, conserved = rep.Dropped, rep.Admitted == txd && rep.Dropped == 0
		desc = fmt.Sprintf("admitted=%d transmitted=%d (hand-popped, %d by the closing drain) dropped=%d conserved=%v",
			rep.Admitted, txd, rep.Drained, rep.Dropped, conserved)
	} else {
		rep := in.srv.Stop()
		dropped, conserved = rep.Dropped, rep.Conserved() && rep.Txd == uint64(in.sk.txd.Load())
		desc = rep.String()
	}
	lost := pacedPool - len(in.g.spare) - in.g.ret.len()
	failed = int64(dropped) + int64(lost) + in.sk.early.Load()
	if !conserved {
		failed++
	}
	return failed, desc
}
