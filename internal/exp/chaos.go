package exp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eiffel/internal/fault"
	"eiffel/internal/pkt"
	"eiffel/internal/qdisc"
	"eiffel/internal/stats"
)

// Chaos is the fault-injection acceptance for the resilient egress
// path: concurrent producers over disjoint flow ranges, drained by
// supervised Serve workers into seed-driven
// fault.Sink TX queues that misbehave on a schedule — transient
// errors, partial accepts, slowdowns, stalls, and outright panics —
// one misbehavior profile per row. The claims under test are the
// PR's robustness invariants, asserted per row:
//
//   - exactly-once: no packet is lost (the conservation identity
//     admitted == tx'd + dropped + released holds exactly at
//     quiescence, and the sinks' unique-accept ledger equals tx'd) and
//     no packet is duplicated (ledger dups == 0), through retries,
//     partial accepts, and panic recovery alike;
//   - exact drop attribution: every given-up packet lands in exactly
//     one counted reason — deadline, retry budget, or failed sink;
//   - bounded recovery: Stop's graceful drain reaches quiescence
//     within a hard wall-clock bound even on the nastiest profile.
//
// Rows that inject no drop-producing faults must tx everything;
// the deadline and retry-budget rows exist to force their respective
// drop reasons and prove the attribution is exact, not approximate.
func Chaos(o Options) *Result {
	res := &Result{ID: "chaos"}

	const (
		producers = 4
		groups    = 2
		// recoveryBound is the hard wall-clock ceiling on Stop's graceful
		// drain — the "bounded recovery time" assertion.
		recoveryBound = 5 * time.Second
	)
	perProducer := 20000
	if o.Quick {
		perProducer = 4000
		res.Notes = append(res.Notes, "quick mode: 4000 packets per producer instead of 20000")
	}
	flowsPer := perProducer / 10
	total := uint64(producers * perProducer)

	// Per-row fault profile plus the retry policy tuned to exhibit that
	// row's failure mode. Zero-valued policy fields take the qdisc
	// defaults (8 attempts, 10µs base / 1ms cap backoff, no deadline).
	rows := []struct {
		prof      fault.Profile
		retry     qdisc.RetryPolicy
		restarts  int // ServeOptions.MaxRestarts (0 = default)
		stallWin  time.Duration
		wantDrops bool // row is EXPECTED to drop (deadline / retry budget)
	}{
		{prof: fault.Profile{Name: "clean"}},
		{prof: fault.Profile{Name: "transient", Seed: 1, ErrRate: 0.30},
			retry: qdisc.RetryPolicy{BaseBackoff: time.Microsecond, MaxBackoff: 64 * time.Microsecond, MaxAttempts: -1}},
		{prof: fault.Profile{Name: "partial", Seed: 2, PartialRate: 0.60},
			retry: qdisc.RetryPolicy{BaseBackoff: time.Microsecond, MaxBackoff: 64 * time.Microsecond, MaxAttempts: -1}},
		{prof: fault.Profile{Name: "slow", Seed: 3, SlowRate: 0.30, SlowFor: 100 * time.Microsecond}},
		{prof: fault.Profile{Name: "stall", Seed: 4, StallRate: 0.004, StallFor: 25 * time.Millisecond},
			stallWin: 5 * time.Millisecond},
		{prof: fault.Profile{Name: "retry-budget", Seed: 5, ErrRate: 0.70},
			retry:     qdisc.RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Microsecond, MaxBackoff: 16 * time.Microsecond},
			wantDrops: true},
		{prof: fault.Profile{Name: "deadline", Seed: 6, ErrRate: 0.85},
			retry: qdisc.RetryPolicy{MaxAttempts: -1, Deadline: 150 * time.Microsecond,
				BaseBackoff: time.Microsecond, MaxBackoff: 16 * time.Microsecond},
			wantDrops: true},
		{prof: fault.Profile{Name: "panic", Seed: 7, PanicRate: 0.01},
			restarts: -1}, // unlimited recovery: panics must never translate into loss
	}

	t := &stats.Table{
		Title: fmt.Sprintf("Chaos — %d producers vs %d supervised workers over fault-injecting sinks", producers, groups),
		Headers: []string{"profile", "admitted", "txd", "drop-dl", "drop-budget", "drop-failed",
			"retries", "dups", "lost", "restarts", "stalled", "conserved", "recovery-ms"},
	}
	payload := &ChaosJSON{
		Experiment: "chaos", Quick: o.Quick, GoMaxProcs: runtime.GOMAXPROCS(0),
		Producers: producers, Groups: groups, PerProducer: perProducer,
		FlowsPerProducer: flowsPer, RecoveryBoundMs: recoveryBound.Milliseconds(),
	}

	for _, row := range rows {
		// One packet set per producer over disjoint flow ranges, release
		// times spread over the horizon. Pool IDs are per-producer
		// sequences; the sinks' exactly-once ledger needs globally unique
		// IDs, so re-stamp them.
		packets := make([][]*pkt.Packet, producers)
		for w := range packets {
			pool := pkt.NewPool(perProducer) // pools are not shared: one per set
			packets[w] = make([]*pkt.Packet, perProducer)
			for i := range packets[w] {
				p := pool.Get()
				p.ID = uint64(w*perProducer+i) + 1
				p.Flow = uint64(w*flowsPer + i%flowsPer)
				p.Size = 1500
				p.SendAt = int64(i) * (2e9 / int64(perProducer))
				packets[w][i] = p
			}
		}
		m := qdisc.NewMultiSharded(qdisc.MultiShardedOptions{
			ShardedOptions: qdisc.ShardedOptions{
				Shards: 8, Buckets: 2500, HorizonNs: 2e9, RingBits: 15,
			},
			Groups: groups,
		})

		sinks := make([]qdisc.EgressSink, groups)
		fsinks := make([]*fault.Sink, groups)
		for g := range sinks {
			fs := fault.NewSink(fault.Profile{
				Name: row.prof.Name, Seed: row.prof.Seed + uint64(g)*0x9E37,
				PanicRate: row.prof.PanicRate, StallRate: row.prof.StallRate,
				ErrRate: row.prof.ErrRate, PartialRate: row.prof.PartialRate,
				SlowRate: row.prof.SlowRate, StallFor: row.prof.StallFor, SlowFor: row.prof.SlowFor,
			})
			fsinks[g], sinks[g] = fs, fs
		}

		srv := m.ServeWith(func() int64 { return int64(2e9) }, sinks, qdisc.ServeOptions{
			Retry:       row.retry,
			MaxRestarts: row.restarts,
			StallWindow: row.stallWin,
		})

		// Producers push concurrently with the workers through the
		// refusable admission path, each counting its own successes so the
		// front's admitted counter is cross-checked, not trusted.
		var offered, admitted atomic.Uint64
		var wg sync.WaitGroup
		for w := range packets {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, p := range packets[w] {
					offered.Add(1)
					if m.TryEnqueue(p, 0) {
						admitted.Add(1)
					}
				}
			}(w)
		}

		// Health poller: watch for watchdog stall flags while traffic and
		// faults are live (the flag self-clears when the group moves again,
		// so it must be sampled, not read at the end).
		var stalledSeen atomic.Uint64
		pollDone := make(chan struct{})
		var pollWG sync.WaitGroup
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for {
				select {
				case <-pollDone:
					return
				default:
				}
				for _, h := range srv.Health() {
					if h.Stalled {
						stalledSeen.Add(1)
					}
				}
				time.Sleep(time.Millisecond)
			}
		}()

		wg.Wait()
		rep := srv.Stop()
		close(pollDone)
		pollWG.Wait()

		// Workers are joined: the sinks' ledgers are safe to read.
		var unique, dups, restarts uint64
		for _, fs := range fsinks {
			unique += fs.Unique()
			dups += fs.Dups()
		}
		for _, h := range srv.Health() {
			restarts += h.Restarts
		}
		eg := m.Egress().Snapshot()
		lost := rep.Admitted - rep.Txd - rep.Dropped - rep.Released

		// The row's invariants. Violations are recorded as notes (and in the
		// JSON payload) so the bench run itself surfaces them.
		fail := func(format string, args ...any) {
			res.Notes = append(res.Notes,
				fmt.Sprintf("%s: CHAOS VIOLATION ", row.prof.Name)+fmt.Sprintf(format, args...))
		}
		if offered.Load() != total || admitted.Load() != rep.Admitted || rep.Admitted != m.Admitted() {
			fail("admission ledger: offered %d (want %d), producers admitted %d, front admitted %d",
				offered.Load(), total, admitted.Load(), rep.Admitted)
		}
		if !rep.Conserved() || lost != 0 {
			fail("conservation: %s", rep)
		}
		if unique != rep.Txd || dups != 0 {
			fail("sink ledger: unique %d vs txd %d, dups %d", unique, rep.Txd, dups)
		}
		if eg.Dropped() != rep.Dropped ||
			eg.DeadlineDrops+eg.RetryDrops+eg.FailedDrops != rep.Dropped {
			fail("drop attribution: %d+%d+%d reasons vs %d dropped",
				eg.DeadlineDrops, eg.RetryDrops, eg.FailedDrops, rep.Dropped)
		}
		if row.wantDrops && rep.Dropped == 0 {
			fail("expected the profile to force drops, saw none")
		}
		if !row.wantDrops && rep.Dropped != 0 {
			fail("profile must not drop, dropped %d", rep.Dropped)
		}
		if rep.Elapsed > recoveryBound {
			fail("recovery: drain took %s (bound %s)", rep.Elapsed, recoveryBound)
		}
		if m.State() != qdisc.StateClosed {
			fail("state: %s after Stop", m.State())
		}

		t.AddRow(row.prof.Name,
			fmt.Sprintf("%d", rep.Admitted),
			fmt.Sprintf("%d", rep.Txd),
			fmt.Sprintf("%d", eg.DeadlineDrops),
			fmt.Sprintf("%d", eg.RetryDrops),
			fmt.Sprintf("%d", eg.FailedDrops),
			fmt.Sprintf("%d", eg.Retries),
			fmt.Sprintf("%d", dups),
			fmt.Sprintf("%d", lost),
			fmt.Sprintf("%d", restarts),
			fmt.Sprintf("%d", stalledSeen.Load()),
			fmt.Sprintf("%v", rep.Conserved()),
			fmt.Sprintf("%.2f", float64(rep.Elapsed.Microseconds())/1000))
		var cs fault.Counts
		for _, fs := range fsinks {
			c := fs.Counts()
			cs.Calls += c.Calls
			cs.Panics += c.Panics
			cs.Stalls += c.Stalls
			cs.Errors += c.Errors
			cs.Partials += c.Partials
			cs.Slows += c.Slows
		}
		payload.Rows = append(payload.Rows, ChaosRowJSON{
			Profile:       row.prof.Name,
			Admitted:      rep.Admitted,
			Txd:           rep.Txd,
			DeadlineDrops: eg.DeadlineDrops,
			RetryDrops:    eg.RetryDrops,
			FailedDrops:   eg.FailedDrops,
			Retries:       eg.Retries,
			BackoffNs:     eg.BackoffNs,
			Dups:          dups,
			Lost:          lost,
			Restarts:      restarts,
			StalledSeen:   stalledSeen.Load(),
			Conserved:     rep.Conserved(),
			RecoveryMs:    float64(rep.Elapsed.Microseconds()) / 1000,
			SinkCalls:     cs.Calls,
			SinkPanics:    cs.Panics,
			SinkStalls:    cs.Stalls,
			SinkErrors:    cs.Errors,
			SinkPartials:  cs.Partials,
			SinkSlows:     cs.Slows,
		})
	}
	res.Tables = append(res.Tables, t)
	res.JSON = payload
	res.Notes = append(res.Notes,
		"drop-dl/drop-budget/drop-failed: per-reason give-ups (deadline exceeded / retry budget exhausted / sink panic budget exhausted); their sum is cross-checked against total dropped",
		"dups/lost: sink-ledger duplicate accepts and admitted-but-never-disposed packets — must be 0 on every row",
		"recovery-ms: Stop's graceful drain wall time, asserted under the 5 s bound",
		"stalled: watchdog stall flags sampled while faults were live (expected >0 only on the stall row, and only when the sampler catches the window)")
	return res
}

// ChaosJSON is the chaos experiment's machine-readable payload
// (cmd/eiffel-bench -json writes it to BENCH_chaos.json).
type ChaosJSON struct {
	Experiment       string         `json:"experiment"`
	Quick            bool           `json:"quick"`
	GoMaxProcs       int            `json:"gomaxprocs"`
	Producers        int            `json:"producers"`
	Groups           int            `json:"groups"`
	PerProducer      int            `json:"per_producer"`
	FlowsPerProducer int            `json:"flows_per_producer"`
	RecoveryBoundMs  int64          `json:"recovery_bound_ms"`
	Rows             []ChaosRowJSON `json:"rows"`
}

// ChaosRowJSON is one fault profile's observed outcome.
type ChaosRowJSON struct {
	Profile       string  `json:"profile"`
	Admitted      uint64  `json:"admitted"`
	Txd           uint64  `json:"txd"`
	DeadlineDrops uint64  `json:"deadline_drops"`
	RetryDrops    uint64  `json:"retry_drops"`
	FailedDrops   uint64  `json:"failed_drops"`
	Retries       uint64  `json:"retries"`
	BackoffNs     uint64  `json:"backoff_ns"`
	Dups          uint64  `json:"dups"`
	Lost          uint64  `json:"lost"`
	Restarts      uint64  `json:"restarts"`
	StalledSeen   uint64  `json:"stalled_seen"`
	Conserved     bool    `json:"conserved"`
	RecoveryMs    float64 `json:"recovery_ms"`
	SinkCalls     uint64  `json:"sink_calls"`
	SinkPanics    uint64  `json:"sink_panics"`
	SinkStalls    uint64  `json:"sink_stalls"`
	SinkErrors    uint64  `json:"sink_errors"`
	SinkPartials  uint64  `json:"sink_partials"`
	SinkSlows     uint64  `json:"sink_slows"`
}
