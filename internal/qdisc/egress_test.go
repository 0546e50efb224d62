package qdisc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eiffel/internal/pkt"
	"eiffel/internal/stats"
)

// ---- deterministic retry/backoff/deadline machinery ----------------------

var errRefuse = errors.New("sink refused")

// scriptSink replays a fixed per-call script of (n, err) TryTx outcomes,
// then accepts everything; it records the packets it accepted.
type scriptSink struct {
	steps []func(ps []*pkt.Packet) (int, error)
	calls int
	got   []*pkt.Packet
}

func (s *scriptSink) TryTx(ps []*pkt.Packet) (int, error) {
	i := s.calls
	s.calls++
	if i >= len(s.steps) {
		s.got = append(s.got, ps...)
		return len(ps), nil
	}
	n, err := s.steps[i](ps)
	if n > 0 && n <= len(ps) {
		s.got = append(s.got, ps[:n]...)
	}
	return n, err
}

func refuse(_ []*pkt.Packet) (int, error)    { return 0, errRefuse }
func acceptOne(_ []*pkt.Packet) (int, error) { return 1, nil }

// fakeClock is the injected RetryPolicy clock: Sleep advances Now and
// records every backoff, so retry schedules are asserted exactly.
type fakeClock struct {
	now    int64
	sleeps []time.Duration
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.now += int64(d)
}
func (c *fakeClock) Now() int64 { return c.now }

func mkBatch(n int) []*pkt.Packet {
	pool := pkt.NewPool(n)
	ps := make([]*pkt.Packet, n)
	for i := range ps {
		ps[i] = pool.Get()
		ps[i].Flow = uint64(i)
	}
	return ps
}

// TestRetryBackoffDeterministic pins the exact backoff schedule: each
// consecutive refusal doubles the sleep from BaseBackoff up to the
// MaxBackoff cap, and any progress resets it.
func TestRetryBackoffDeterministic(t *testing.T) {
	clk := &fakeClock{}
	sink := &scriptSink{steps: []func([]*pkt.Packet) (int, error){
		refuse, refuse, refuse, refuse, refuse,
	}}
	pol := RetryPolicy{
		MaxAttempts: -1, BaseBackoff: 10 * time.Nanosecond, MaxBackoff: 80 * time.Nanosecond,
		Sleep: clk.Sleep, Now: clk.Now,
	}.withDefaults()
	var eg stats.Egress
	ps := mkBatch(3)
	idx := 0
	txResilient(sink, ps, &idx, &pol, &eg, nil)

	want := []time.Duration{10, 20, 40, 80, 80}
	if len(clk.sleeps) != len(want) {
		t.Fatalf("slept %d times (%v), want %v", len(clk.sleeps), clk.sleeps, want)
	}
	for i, d := range want {
		if clk.sleeps[i] != d {
			t.Fatalf("sleep %d = %v, want %v (schedule %v)", i, clk.sleeps[i], d, clk.sleeps)
		}
	}
	if idx != 3 || len(sink.got) != 3 {
		t.Fatalf("disposed %d, sink accepted %d, want 3/3", idx, len(sink.got))
	}
	if eg.Txd() != 3 || eg.Errors() != 5 || eg.Retries() != 5 || eg.Dropped() != 0 {
		t.Fatalf("accounting txd=%d errors=%d retries=%d dropped=%d, want 3/5/5/0",
			eg.Txd(), eg.Errors(), eg.Retries(), eg.Dropped())
	}
	if eg.BackoffNs() != 10+20+40+80+80 {
		t.Fatalf("backoffNs = %d, want 230", eg.BackoffNs())
	}
}

// TestRetryBudgetDrops pins DropRetryBudget: against a sink that never
// accepts, every head packet is dropped after exactly MaxAttempts
// consecutive refusals, in order, with exact attribution.
func TestRetryBudgetDrops(t *testing.T) {
	clk := &fakeClock{}
	alwaysRefuse := &scriptSink{}
	for i := 0; i < 64; i++ {
		alwaysRefuse.steps = append(alwaysRefuse.steps, refuse)
	}
	pol := RetryPolicy{
		MaxAttempts: 3, BaseBackoff: time.Nanosecond, MaxBackoff: time.Nanosecond,
		Sleep: clk.Sleep, Now: clk.Now,
	}.withDefaults()
	var eg stats.Egress
	ps := mkBatch(4)
	var drops []*pkt.Packet
	var reasons []DropReason
	idx := 0
	txResilient(alwaysRefuse, ps, &idx, &pol, &eg, func(p *pkt.Packet, r DropReason) {
		drops = append(drops, p)
		reasons = append(reasons, r)
	})

	if idx != 4 || len(drops) != 4 {
		t.Fatalf("disposed %d, dropped %d, want 4/4", idx, len(drops))
	}
	for i, p := range drops {
		if p != ps[i] {
			t.Fatalf("drop %d is packet %d, want head order", i, p.Flow)
		}
		if reasons[i] != DropRetryBudget {
			t.Fatalf("drop %d reason %v, want retry-budget", i, reasons[i])
		}
	}
	// 3 refusals per packet, the third converting to a drop without a
	// sleep: 2 backoffs per packet.
	if alwaysRefuse.calls != 12 || len(clk.sleeps) != 8 {
		t.Fatalf("calls %d sleeps %d, want 12/8", alwaysRefuse.calls, len(clk.sleeps))
	}
	if eg.RetryDrops() != 4 || eg.Dropped() != 4 || eg.Txd() != 0 {
		t.Fatalf("accounting retryDrops=%d dropped=%d txd=%d, want 4/4/0",
			eg.RetryDrops(), eg.Dropped(), eg.Txd())
	}
}

// TestRetryDeadlineDrops pins DropDeadline on the injected clock: the
// deadline is measured from each head packet's FIRST refusal, and the
// head is dropped on the first refusal observed past it.
func TestRetryDeadlineDrops(t *testing.T) {
	clk := &fakeClock{}
	alwaysRefuse := &scriptSink{}
	for i := 0; i < 64; i++ {
		alwaysRefuse.steps = append(alwaysRefuse.steps, refuse)
	}
	pol := RetryPolicy{
		MaxAttempts: -1, Deadline: 100 * time.Nanosecond,
		BaseBackoff: 40 * time.Nanosecond, MaxBackoff: 40 * time.Nanosecond,
		Sleep: clk.Sleep, Now: clk.Now,
	}.withDefaults()
	var eg stats.Egress
	ps := mkBatch(2)
	var reasons []DropReason
	idx := 0
	txResilient(alwaysRefuse, ps, &idx, &pol, &eg, func(_ *pkt.Packet, r DropReason) {
		reasons = append(reasons, r)
	})

	// Per head: refusals at t, t+40, t+80 stay inside the 100ns budget
	// (each sleeping 40), and the refusal at t+120 converts to the drop —
	// 4 calls and 3 sleeps per packet.
	if idx != 2 || alwaysRefuse.calls != 8 || len(clk.sleeps) != 6 {
		t.Fatalf("disposed %d calls %d sleeps %d, want 2/8/6", idx, alwaysRefuse.calls, len(clk.sleeps))
	}
	for i, r := range reasons {
		if r != DropDeadline {
			t.Fatalf("drop %d reason %v, want deadline", i, r)
		}
	}
	if eg.DeadlineDrops() != 2 || eg.Dropped() != 2 {
		t.Fatalf("deadlineDrops=%d dropped=%d, want 2/2", eg.DeadlineDrops(), eg.Dropped())
	}
}

// TestRetryPartialAccepts pins prefix acceptance: a sink accepting one
// packet per call makes steady progress — partials are counted, the
// refusal streak resets on every accept, and nothing is dropped.
func TestRetryPartialAccepts(t *testing.T) {
	clk := &fakeClock{}
	sink := &scriptSink{steps: []func([]*pkt.Packet) (int, error){
		acceptOne, acceptOne, acceptOne, acceptOne,
	}}
	pol := RetryPolicy{
		MaxAttempts: 2, BaseBackoff: time.Nanosecond, MaxBackoff: time.Nanosecond,
		Sleep: clk.Sleep, Now: clk.Now,
	}.withDefaults()
	var eg stats.Egress
	ps := mkBatch(5)
	idx := 0
	txResilient(sink, ps, &idx, &pol, &eg, nil)

	if idx != 5 || len(sink.got) != 5 {
		t.Fatalf("disposed %d accepted %d, want 5/5", idx, len(sink.got))
	}
	for i, p := range sink.got {
		if p != ps[i] {
			t.Fatal("partial accepts reordered the batch")
		}
	}
	if eg.Partials() != 4 || eg.Dropped() != 0 || eg.Txd() != 5 {
		t.Fatalf("partials=%d dropped=%d txd=%d, want 4/0/5", eg.Partials(), eg.Dropped(), eg.Txd())
	}
}

// TestTxResilientClampsSinkReturns guards the contract edge: a buggy
// sink returning n out of range must not corrupt the progress cursor.
func TestTxResilientClampsSinkReturns(t *testing.T) {
	sink := &scriptSink{steps: []func([]*pkt.Packet) (int, error){
		func(ps []*pkt.Packet) (int, error) { return len(ps) + 5, nil },
	}}
	pol := RetryPolicy{}.withDefaults()
	var eg stats.Egress
	ps := mkBatch(3)
	idx := 0
	txResilient(sink, ps, &idx, &pol, &eg, nil)
	if idx != 3 || eg.Txd() != 3 {
		t.Fatalf("overshoot: idx=%d txd=%d, want 3/3", idx, eg.Txd())
	}

	sink2 := &scriptSink{steps: []func([]*pkt.Packet) (int, error){
		func(_ []*pkt.Packet) (int, error) { return -3, errRefuse },
	}}
	clk := &fakeClock{}
	pol2 := RetryPolicy{MaxAttempts: -1, BaseBackoff: time.Nanosecond,
		MaxBackoff: time.Nanosecond, Sleep: clk.Sleep, Now: clk.Now}.withDefaults()
	idx = 0
	txResilient(sink2, mkBatch(2), &idx, &pol2, &eg, nil)
	if idx != 2 {
		t.Fatalf("negative return: idx=%d, want 2", idx)
	}
}

// TestResilientSinkDisposesEverything covers the EgressSink adapter: Tx
// returns only when every packet is disposed, with the drops observable.
func TestResilientSinkDisposesEverything(t *testing.T) {
	clk := &fakeClock{}
	inner := &scriptSink{steps: []func([]*pkt.Packet) (int, error){
		refuse, acceptOne, refuse, refuse, // head 2 dropped on budget after the accept
	}}
	var dropped int
	rs := NewResilientSink(inner, RetryPolicy{
		MaxAttempts: 2, BaseBackoff: time.Nanosecond, MaxBackoff: time.Nanosecond,
		Sleep: clk.Sleep, Now: clk.Now,
	}, func(*pkt.Packet, DropReason) { dropped++ })
	ps := mkBatch(3)
	rs.Tx(ps)
	eg := rs.Egress()
	if eg.Txd()+eg.Dropped() != 3 {
		t.Fatalf("disposed %d+%d, want all 3", eg.Txd(), eg.Dropped())
	}
	if dropped != int(eg.Dropped()) || dropped != 1 {
		t.Fatalf("onDrop saw %d, egress counted %d, want 1", dropped, eg.Dropped())
	}
}

// ---- worker supervision ---------------------------------------------------

// panicSink panics on the calls its schedule marks, accepting all
// otherwise; panics fire before anything is accepted, matching the
// at-most-once contract the supervisor relies on.
type panicSink struct {
	CountingSink
	every int // panic on every Nth call (1 = always)
	calls int
}

func (s *panicSink) Tx(ps []*pkt.Packet) {
	s.calls++
	if s.every > 0 && s.calls%s.every == 0 {
		panic("panicSink: scheduled panic")
	}
	s.CountingSink.Tx(ps)
}

// servePresets is the front contract's presets reduced to one per
// scheduler family: supervision, drain and fault handling exist once in
// Front, so every preset must behave the same under them.
func servePresets() []frontCase {
	var out []frontCase
	for _, c := range frontCases {
		switch c.name {
		case "timer", "shaped", "policy-pfabric", "hier":
			out = append(out, c)
		}
	}
	return out
}

// forEachPreset runs f as a subtest per preset.
func forEachPreset(t *testing.T, f func(t *testing.T, c frontCase)) {
	for _, c := range servePresets() {
		t.Run(c.name, func(t *testing.T) { f(t, c) })
	}
}

// serveClock is a worker clock beyond every contract release time.
func serveClock() int64 { return contractHorizon }

// tryAll offers set through TryEnqueue and fails the test on a refusal.
func tryAll(t *testing.T, f *Front, set []*pkt.Packet) {
	t.Helper()
	for _, p := range set {
		if !f.TryEnqueue(p, 0) {
			t.Fatal("TryEnqueue refused while open")
		}
	}
}

// TestServeSupervisionPanicRecovery: a sink that panics periodically
// must cost restarts, never packets — the un-disposed remainder of each
// panicking batch is re-offered after recovery.
func TestServeSupervisionPanicRecovery(t *testing.T) {
	forEachPreset(t, func(t *testing.T, c frontCase) {
		m := c.mk(t, frontOpts{groups: 1})
		sink := &panicSink{every: 3}
		srv := m.ServeWith(serveClock, []EgressSink{sink}, ServeOptions{MaxRestarts: -1, StallWindow: -1})
		set := contractPackets(c)[0]
		tryAll(t, m, set)
		waitUntil(t, 20*time.Second, func() bool {
			return sink.Count() >= int64(len(set))
		}, func() string { return m.Egress().Snapshot().String() })
		rep := srv.Stop()
		if !rep.Conserved() || rep.Dropped != 0 || rep.Txd != uint64(len(set)) {
			t.Fatalf("panic recovery lost packets: %s", rep)
		}
		h := srv.Health()[0]
		if h.Restarts == 0 || h.Panics != h.Restarts {
			t.Fatalf("health restarts=%d panics=%d, want equal and > 0", h.Restarts, h.Panics)
		}
	})
}

// TestServeSupervisionFailedGroup: a sink that always panics exhausts
// the restart budget; the group is marked failed, its worker retires,
// and Stop's drain disposes the whole backlog as DropSinkFailed —
// conservation holds with zero tx'd.
func TestServeSupervisionFailedGroup(t *testing.T) {
	forEachPreset(t, func(t *testing.T, c frontCase) {
		m := c.mk(t, frontOpts{groups: 1})
		sink := &panicSink{every: 1}
		var drops atomic.Int64
		srv := m.ServeWith(serveClock, []EgressSink{sink},
			ServeOptions{MaxRestarts: 1, StallWindow: -1,
				OnDrop: func(*pkt.Packet, DropReason) { drops.Add(1) }})
		set := contractPackets(c)[0][:500]
		tryAll(t, m, set)
		waitUntil(t, 20*time.Second, func() bool {
			return srv.Health()[0].Failed
		}, func() string { return m.Egress().Snapshot().String() })
		rep := srv.Stop()
		if !rep.Conserved() {
			t.Fatalf("failed-group stop broke conservation: %s", rep)
		}
		if rep.Txd != 0 || rep.Dropped != uint64(len(set)) {
			t.Fatalf("always-panicking sink: txd=%d dropped=%d, want 0/%d", rep.Txd, rep.Dropped, len(set))
		}
		eg := m.Egress().Snapshot()
		if eg.FailedDrops != rep.Dropped {
			t.Fatalf("attribution: %d failed-drops of %d dropped", eg.FailedDrops, rep.Dropped)
		}
		if got := drops.Load(); got != int64(rep.Dropped) {
			t.Fatalf("onDrop saw %d of %d drops", got, rep.Dropped)
		}
		if m.Len() != 0 {
			t.Fatalf("Len = %d at quiescence", m.Len())
		}
	})
}

// gateSink blocks every Tx until the gate opens — the wedged TX queue
// the stall watchdog exists to surface.
type gateSink struct {
	CountingSink
	gate chan struct{}
}

func (g *gateSink) Tx(ps []*pkt.Packet) {
	<-g.gate
	g.CountingSink.Tx(ps)
}

// TestServeWatchdogStall: a group with backlog and a wedged sink must be
// flagged Stalled within a watchdog window, and the flag must clear once
// the sink moves again.
func TestServeWatchdogStall(t *testing.T) {
	forEachPreset(t, func(t *testing.T, c frontCase) {
		m := c.mk(t, frontOpts{groups: 1})
		sink := &gateSink{gate: make(chan struct{})}
		srv := m.ServeWith(serveClock, []EgressSink{sink}, ServeOptions{StallWindow: 2 * time.Millisecond})
		set := contractPackets(c)[0]
		tryAll(t, m, set)
		waitUntil(t, 20*time.Second, func() bool {
			return srv.Health()[0].Stalled
		}, func() string {
			h := srv.Health()[0]
			return fmt.Sprintf("%s backlog=%d progress=%d", m.Egress().Snapshot(), h.Backlog, h.Progress)
		})
		close(sink.gate) // un-wedge: traffic flows, the flag must clear
		waitUntil(t, 20*time.Second, func() bool {
			h := srv.Health()[0]
			return sink.Count() >= int64(len(set)) && !h.Stalled
		}, func() string { return m.Egress().Snapshot().String() })
		rep := srv.Stop()
		if !rep.Conserved() || rep.Dropped != 0 {
			t.Fatalf("stall run broke conservation: %s", rep)
		}
	})
}

// ---- exactly-once conservation property ----------------------------------

// TestEgressConservationProperty is the randomized exactly-once property
// test: for each preset and G ∈ {1,2,4}, concurrent producers race a
// supervised Serve fleet, the front is closed MID-REPLAY at a random
// point, and at quiescence the identity admitted == tx'd + dropped +
// released must hold exactly — with the producers' own success count
// agreeing with the front's admitted counter and the sinks' count agreeing
// with tx'd.
func TestEgressConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0xE1FFE1))
	for _, c := range servePresets() {
		for _, G := range []int{1, 2, 4} {
			m := c.mk(t, frontOpts{groups: G})
			packets := contractPackets(c)
			sinks, counts := countingSinks(m.NumGroups())
			srv := m.ServeWith(serveClock, sinks, ServeOptions{})

			var admitted atomic.Uint64
			var wg sync.WaitGroup
			for w := range packets {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for _, p := range packets[w] {
						if m.TryEnqueue(p, 0) {
							admitted.Add(1)
						}
					}
				}(w)
			}
			// Close mid-replay at a random point: some producers are
			// mid-flight, so part of the workload is refused — the property
			// must hold for ANY cut.
			time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
			m.Close()
			wg.Wait()
			rep := srv.Stop()

			if !rep.Conserved() {
				t.Fatalf("%s G=%d: conservation broken: %s", c.name, G, rep)
			}
			if rep.Admitted != admitted.Load() || rep.Admitted != m.Admitted() {
				t.Fatalf("%s G=%d: admitted %d, producers counted %d", c.name, G, rep.Admitted, admitted.Load())
			}
			if txd := sinkTotal(counts); uint64(txd) != rep.Txd {
				t.Fatalf("%s G=%d: sinks saw %d, report txd=%d", c.name, G, txd, rep.Txd)
			}
			if rep.Dropped != 0 || rep.Released != 0 {
				t.Fatalf("%s G=%d: infallible sinks must not drop: %s", c.name, G, rep)
			}
			if m.Len() != 0 || m.State() != StateClosed {
				t.Fatalf("%s G=%d: len=%d state=%v at quiescence", c.name, G, m.Len(), m.State())
			}
			if admitted.Load() == uint64(contractProds*contractPerProd) {
				t.Logf("%s G=%d: close raced after all admissions (weak run)", c.name, G)
			}
		}
	}
}

// ---- deterministic chaos, every preset -------------------------------------

// TestChaosEveryPreset is the repo's fault-injection check: it drives
// each preset's supervised fleet over seed-driven fault sinks
// (faultsink_test.go), one misbehavior profile per row. Whatever fires,
// every admitted packet is tx'd exactly once or dropped with an attributed
// reason, profiles that must not drop do not, the front's admitted counter
// agrees with the producers', and Stop's graceful drain reaches the closed
// state within recoveryBound.
func TestChaosEveryPreset(t *testing.T) {
	// recoveryBound is the wall-clock ceiling on Stop's graceful drain,
	// even on the nastiest profile.
	const recoveryBound = 5 * time.Second
	fast := RetryPolicy{BaseBackoff: time.Microsecond, MaxBackoff: 16 * time.Microsecond, MaxAttempts: -1}
	rows := []struct {
		prof      faultProfile
		retry     RetryPolicy
		restarts  int
		wantDrops bool
	}{
		{prof: faultProfile{Name: "clean"}},
		{prof: faultProfile{Name: "transient", Seed: 1, ErrRate: 0.30}, retry: fast},
		{prof: faultProfile{Name: "partial", Seed: 2, PartialRate: 0.60}, retry: fast},
		{prof: faultProfile{Name: "slow", Seed: 3, SlowRate: 0.30, SlowFor: 20 * time.Microsecond}},
		{prof: faultProfile{Name: "stall", Seed: 4, StallRate: 0.05, StallFor: 2 * time.Millisecond}},
		{prof: faultProfile{Name: "retry-budget", Seed: 5, ErrRate: 0.70},
			retry:     RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Microsecond, MaxBackoff: 4 * time.Microsecond},
			wantDrops: true},
		{prof: faultProfile{Name: "deadline", Seed: 6, ErrRate: 0.85},
			retry: RetryPolicy{MaxAttempts: -1, Deadline: 20 * time.Microsecond,
				BaseBackoff: time.Microsecond, MaxBackoff: 4 * time.Microsecond},
			wantDrops: true},
		{prof: faultProfile{Name: "panic", Seed: 7, PanicRate: 0.05}, restarts: -1},
	}
	forEachPreset(t, func(t *testing.T, c frontCase) {
		for _, row := range rows {
			const groups = 2
			m := c.mk(t, frontOpts{groups: groups})
			packets := contractPackets(c)
			// The sinks' exactly-once ledger needs globally unique IDs.
			for w, set := range packets {
				for i, p := range set {
					p.ID = uint64(w*contractPerProd+i) + 1
				}
			}
			sinks := make([]EgressSink, groups)
			fsinks := make([]*faultSink, groups)
			for g := range sinks {
				prof := row.prof
				prof.Seed += uint64(g) * 0x9E37
				fsinks[g] = newFaultSink(prof)
				sinks[g] = fsinks[g]
			}
			srv := m.ServeWith(serveClock, sinks, ServeOptions{
				Retry: row.retry, MaxRestarts: row.restarts, StallWindow: 5 * time.Millisecond,
			})
			admitted := publish(t, m, packets, modePerPacket)
			rep := srv.Stop()

			var unique, dups uint64
			for _, fs := range fsinks {
				unique += fs.Unique()
				dups += fs.Dups()
			}
			eg := m.Egress().Snapshot()
			if !rep.Conserved() || rep.Admitted != uint64(admitted) || rep.Released != 0 {
				t.Fatalf("%s: conservation: %s", row.prof.Name, rep)
			}
			if rep.Admitted != m.Admitted() {
				t.Fatalf("%s: report admitted %d, front admitted %d", row.prof.Name, rep.Admitted, m.Admitted())
			}
			if unique != rep.Txd || dups != 0 {
				t.Fatalf("%s: sink ledger: unique %d vs txd %d, dups %d", row.prof.Name, unique, rep.Txd, dups)
			}
			if eg.Dropped() != rep.Dropped || eg.DeadlineDrops+eg.RetryDrops+eg.FailedDrops != rep.Dropped {
				t.Fatalf("%s: drop attribution: %d+%d+%d reasons, egress %d vs %d dropped",
					row.prof.Name, eg.DeadlineDrops, eg.RetryDrops, eg.FailedDrops, eg.Dropped(), rep.Dropped)
			}
			if row.wantDrops != (rep.Dropped > 0) {
				t.Fatalf("%s: dropped %d, want drops: %v", row.prof.Name, rep.Dropped, row.wantDrops)
			}
			if m.State() != StateClosed || m.Len() != 0 {
				t.Fatalf("%s: state=%v len=%d after Stop", row.prof.Name, m.State(), m.Len())
			}
			if rep.Elapsed > recoveryBound {
				t.Fatalf("%s: recovery: drain took %s (bound %s)", row.prof.Name, rep.Elapsed, recoveryBound)
			}
		}
	})
}
