package qdisc

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"eiffel/internal/pkt"
	"eiffel/internal/shardq"
)

// This file tests the Serve worker's idle step: which sleep it chooses,
// that the doorbell never loses a wake-up, and that Stop never waits out
// a sleep.

// TestServeIdleStep pins the sleep the idle step chooses, on an injected
// constant clock with a recording sleeper: no wall time passes.
func TestServeIdleStep(t *testing.T) {
	// 1 µs buckets over a 2.048 ms horizon: a release time reads back exact.
	timerFront := func() *Front {
		return NewMultiSharded(MultiShardedOptions{ShardedOptions: ShardedOptions{
			Shards: 1, Buckets: 1024, HorizonNs: 2048 * 1000,
		}})
	}
	rows := []struct {
		name        string
		now, sendAt int64 // sendAt < 0: the group is empty
		want        []sleepCall
	}{
		{"eligible packet", 0, 0, nil},
		{"release in 300µs", 0, 300_000, []sleepCall{{"nap", 300 * time.Microsecond}}},
		{"release in 5µs", 0, 5_000, []sleepCall{{"nap", idleFloor}}},
		{"release in 10s", 0, 10e9, []sleepCall{{"nap", idleCap}}},
		{"constant virtual clock", 1 << 40, 1<<40 + 1<<30, []sleepCall{{"nap", idleCap}}},
		{"empty group", 0, -1, []sleepCall{{"wait", idleFloor}, {"wait", idleBell}}},
	}
	rec := &sleepRec{}
	var sl sleeper = rec
	for _, r := range rows {
		f := timerFront()
		if r.sendAt >= 0 {
			p := pkt.NewPool(1).Get()
			p.Flow, p.SendAt = 1, r.sendAt
			f.Enqueue(p, r.now)
		}
		s := idleServer(f, func() int64 { return r.now })
		*rec = sleepRec{}
		s.idleStep(0, sl)
		if got := rec.got(); !slices.Equal(got, r.want) {
			t.Errorf("%s: slept %v, want %v", r.name, got, r.want)
		}
		if gr := &s.groups[0]; gr.sleeps.Load() != uint64(len(r.want)) || gr.rung.Load() != 0 {
			t.Errorf("%s: counted %d sleeps, %d rung; want %d, 0", r.name, gr.sleeps.Load(), gr.rung.Load(), len(r.want))
		}
	}

	// A HierSharded tenant gated behind its limit: the step sleeps to the
	// engine's NextEvent. 1500 B at 30 Mbps is 400 µs, inside [floor, cap].
	hq, err := NewHierSharded(HierShardedOptions{Shards: 1, Spec: shardq.HierSpec{
		Tenants: []shardq.HierTenant{{LimitBps: 30e6, Weight: 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	pool := pkt.NewPool(4)
	for i := 0; i < 4; i++ {
		p := pool.Get()
		p.Flow, p.Size = 1, 1500
		hq.Enqueue(p, 0)
	}
	const now = 1
	if k := hq.GroupDequeueBatch(0, 0, make([]*pkt.Packet, 1)); k != 1 {
		t.Fatalf("hier: first packet not served (%d)", k)
	}
	var ev int64
	hq.rt.WithShardLocked(0, func(shardq.Scheduler) { ev, _ = hq.clocked[0].NextEvent() })
	want := time.Duration(ev - now)
	if want < idleFloor || want > idleCap {
		t.Fatalf("hier: next event %v ahead, want one inside [floor, cap]", want)
	}
	hs := idleServer(hq.Front, func() int64 { return now })
	*rec = sleepRec{}
	hs.idleStep(0, sl)
	if got := rec.got(); len(got) != 1 || got[0] != (sleepCall{"nap", want}) {
		t.Errorf("hier gated: slept %v, want one nap of %v", got, want)
	}

	// No idle step allocates: a timed nap, the empty group's floor park and
	// doorbell wait, and the gated-hClock GroupNextTimer path.
	tf := timerFront()
	p := pkt.NewPool(1).Get()
	p.Flow, p.SendAt = 1, 300_000
	tf.Enqueue(p, 0)
	for _, c := range []struct {
		name string
		s    *Server
	}{
		{"timed", idleServer(tf, func() int64 { return 0 })},
		{"empty", idleServer(timerFront(), func() int64 { return 0 })},
		{"hier gated", hs},
	} {
		if a := testing.AllocsPerRun(100, func() { rec.n = 0; c.s.idleStep(0, sl) }); a != 0 {
			t.Errorf("%s idle step: %v allocs, want 0", c.name, a)
		}
	}
}

// bellSink reports every Tx on got with its group's sleep count at that
// moment: a test waits on the event itself, and knows the worker's next
// sleep to end is the floor park before it arms its doorbell for any
// publication.
type bellSink struct {
	got    chan sent
	sleeps *atomic.Uint64
}

type sent struct {
	n      int
	sleeps uint64
}

func (s *bellSink) Tx(ps []*pkt.Packet) { s.got <- sent{len(ps), s.sleeps.Load()} }

// spin busy-waits d: a sub-millisecond delay that time.Sleep cannot give.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// TestServeDoorbellNoLostWakeup: every bound but the floor is an hour, so
// only the re-check after arming or a doorbell ring can get a packet out
// of a parked worker. Each round publishes through one admission path,
// either at a random moment around the worker's floor and wait, or a few
// microseconds after its floor ends, while it arms and re-reads the
// occupancy of its 128–256 shards; the packets must be sent within a second.
func TestServeDoorbellNoLostWakeup(t *testing.T) {
	const floor = 20 * time.Microsecond // short: more rounds per second, same protocol
	rounds := 5000
	if testing.Short() {
		rounds = 500
	}
	paths := []struct {
		name     string
		ringBits uint
		burst    int
		publish  func(f *Front, ps []*pkt.Packet) bool
	}{
		{"Enqueue", 0, 1, func(f *Front, ps []*pkt.Packet) bool { f.Enqueue(ps[0], 0); return true }},
		{"TryEnqueue", 0, 1, func(f *Front, ps []*pkt.Packet) bool { return f.TryEnqueue(ps[0], 0) }},
		{"EnqueueBatch", 0, 1, func(f *Front, ps []*pkt.Packet) bool { f.EnqueueBatch(ps, 0); return true }},
		{"EnqueueBatchAdmit", 0, 1, func(f *Front, ps []*pkt.Packet) bool {
			n, _ := f.EnqueueBatchAdmit(ps, 0, nil)
			return n == len(ps)
		}},
		// Two-slot rings: the third packet of a burst into a parked worker's
		// group takes the producer's ring-full fallback.
		{"ring-full", 1, 3, func(f *Front, ps []*pkt.Packet) bool {
			for _, p := range ps {
				f.Enqueue(p, 0)
			}
			return true
		}},
	}
	for _, groups := range []int{1, 2} {
		for _, pc := range paths {
			t.Run(fmt.Sprintf("%s/G=%d", pc.name, groups), func(t *testing.T) {
				f := NewMultiSharded(MultiShardedOptions{
					ShardedOptions: ShardedOptions{Shards: 256, Buckets: 64, HorizonNs: contractHorizon, RingBits: pc.ringBits},
					Groups:         groups,
				})
				got := make(chan sent, 64)
				sinks := make([]EgressSink, groups)
				bells := make([]*bellSink, groups)
				for g := range sinks {
					bells[g] = &bellSink{got: got}
					sinks[g] = bells[g]
				}
				srv := f.ServeWith(serveClock, sinks, ServeOptions{StallWindow: -1, idle: hourIdling(floor)})
				defer srv.Stop()
				for g := range bells {
					bells[g].sleeps = &srv.groups[g].sleeps // read only by Tx, after a publication
				}
				ps := make([]*pkt.Packet, pc.burst)
				pool := pkt.NewPool(pc.burst)
				for i := range ps {
					ps[i] = pool.Get()
				}
				rng := rand.New(rand.NewSource(int64(groups)))
				timeout := time.NewTimer(time.Hour)
				lastTx := make([]uint64, groups) // each group's sleep count at its last Tx
				for r := 0; r < rounds; r++ {
					flow := uint64(rng.Intn(1024))
					for _, p := range ps {
						p.Flow = flow
					}
					g := f.GroupFor(flow)
					if rng.Intn(2) == 0 {
						spin(time.Duration(rng.Int63n(int64(8 * floor))))
					} else {
						for srv.groups[g].sleeps.Load() == lastTx[g] {
						}
						spin(time.Duration(rng.Int63n(4000)))
					}
					if !pc.publish(f, ps) {
						t.Fatalf("round %d: the open front refused", r)
					}
					for n := 0; n < pc.burst; {
						timeout.Reset(time.Second)
						select {
						case s := <-got:
							n += s.n
							lastTx[g] = s.sleeps
						case <-timeout.C:
							t.Fatalf("round %d: %d of %d packets unsent after 1 s, a wake-up was lost: %+v",
								r, pc.burst-n, pc.burst, srv.Health())
						}
					}
				}
				var sleeps, rung uint64
				for _, h := range srv.Health() {
					sleeps, rung = sleeps+h.Sleeps, rung+h.Rung
				}
				if sleeps == 0 || rung == 0 {
					t.Errorf("%d sleeps, %d rung: the rounds never found the worker parked", sleeps, rung)
				}
				if pc.ringBits == 1 && f.Stats().RingFull == 0 {
					t.Error("no publication took the ring-full fallback")
				}
			})
		}
	}
}

// TestServeStopWakesIdleFleet: with every bound at an hour, an idle
// worker's doorbell wait and the watchdog's window end only when Stop
// wakes them, and Stop of an idle fleet returns at once.
func TestServeStopWakesIdleFleet(t *testing.T) {
	f := NewMultiSharded(MultiShardedOptions{
		ShardedOptions: ShardedOptions{Shards: 4, Buckets: 64, HorizonNs: contractHorizon},
		Groups:         2,
	})
	sinks, _ := countingSinks(2)
	srv := f.ServeWith(serveClock, sinks, ServeOptions{StallWindow: time.Hour, idle: hourIdling(idleFloor)})
	waitUntil(t, 5*time.Second, func() bool {
		return atomic.LoadUint32(&f.bells[0].armed) == bellAny && atomic.LoadUint32(&f.bells[1].armed) == bellAny
	}, func() string { return fmt.Sprintf("%+v", srv.Health()) })
	done := make(chan time.Duration, 1)
	go func() {
		t0 := time.Now()
		srv.Stop()
		done <- time.Since(t0)
	}()
	select {
	case d := <-done:
		if d > 50*time.Millisecond {
			t.Fatalf("Stop of an idle fleet took %v, want < 50ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop of an idle fleet did not return: a parked worker or the watchdog was never woken")
	}
}

// TestServerStopForceReleasesBacklog: a fleet has delivered everything due
// and holds a far-future backlog when it is force-stopped. Every
// undelivered packet comes back through release exactly once and none
// reaches a sink; the report conserves, and the front ends closed and
// refusing admission.
func TestServerStopForceReleasesBacklog(t *testing.T) {
	f := NewMultiSharded(MultiShardedOptions{
		ShardedOptions: ShardedOptions{Shards: 4, Buckets: 64, HorizonNs: contractHorizon},
		Groups:         2,
	})
	sinks, counts := countingSinks(2)
	srv := f.ServeWith(serveClock, sinks, ServeOptions{StallWindow: -1})
	const due, far = 100, 400
	pool := pkt.NewPool(due + far + 1)
	for i := 0; i < due+far; i++ {
		p := pool.Get()
		p.Flow, p.SendAt = uint64(i%32), int64(i)
		if i >= due {
			p.SendAt += 4 * contractHorizon // far beyond the worker clock
		}
		if !f.TryEnqueue(p, 0) {
			t.Fatal("TryEnqueue refused on an open, unbounded front")
		}
	}
	waitUntil(t, 5*time.Second, func() bool { return sinkTotal(counts) == due },
		serveDiag(f, counts))

	seen := make(map[*pkt.Packet]bool, far)
	rep := srv.StopForce(func(p *pkt.Packet) {
		if seen[p] {
			t.Fatalf("flow %d SendAt %d released twice", p.Flow, p.SendAt)
		}
		if p.SendAt < 4*contractHorizon {
			t.Fatalf("flow %d SendAt %d was due, yet released instead of sent", p.Flow, p.SendAt)
		}
		seen[p] = true
	})
	if len(seen) != far || rep.Released != far || rep.Txd != due || !rep.Conserved() {
		t.Fatalf("release saw %d of %d far packets: %s", len(seen), far, rep)
	}
	if got := sinkTotal(counts); got != due {
		t.Fatalf("sinks saw %d packets, want the %d due ones", got, due)
	}
	if f.State() != StateClosed || f.Len() != 0 {
		t.Fatalf("state=%v len=%d after StopForce", f.State(), f.Len())
	}
	if f.TryEnqueue(pool.Get(), 0) {
		t.Fatal("a force-stopped front admitted a packet")
	}
	if again := srv.Stop(); again != rep {
		t.Fatalf("Stop after StopForce reported %s, want the same %s", again, rep)
	}
}
