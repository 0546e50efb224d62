package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metric is one reported value; the JSON shape is the benchmark contract's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line of a run's standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errInvalid marks a run whose generator could not hold its schedule: the
// box was too slow or too busy to measure on, which is not a regression of
// the system and must not be read as one. No result line is printed.
type errInvalid struct{ why string }

func (e errInvalid) Error() string { return "INVALID run: " + e.why }

const (
	// setupReps set-ups per run; setup_s is their median. The issue asks for
	// one; the benchmark contract asks for several and their median, so that
	// one slow set-up does not read as a set-up regression.
	setupReps = 5
	// timedLaps saturate laps of a ninetieth of -seconds and pacedWins paced
	// windows of a sixtieth per run: at the 30 s BENCHMARK.json asks for, 10 s
	// in laps of 0.333 s and 20 s in windows of 0.5 s. The issue has ten laps
	// of 1 s and ten windows of 1.5 s. The saturate phase is the same length
	// cut three times as fine; the paced phase is a third longer, because it
	// is the one the box disturbs: between bursts the worker sleeps, the
	// virtual CPU goes idle, and how fast it runs after waking depends on what
	// the host did meanwhile (cpu_ns_per_pkt spreads 10 % between runs that
	// agree within 1.5 % on throughput_mpps).
	timedLaps = 30
	pacedWins = 40
	// The two phases alternate in blocks of 3 laps and 4 windows (1 s and
	// 2 s), so that both sample the whole half minute. The box has slow
	// spells of every length from seconds to minutes; with ten seconds of
	// laps in one piece, a spell of ten seconds that fell on them decided
	// throughput_mpps (in one set of ten pfabric runs, three had laps 14 to
	// 33 % below the set's median and ordinary paced windows right after);
	// now it touches a third of the laps and the median holds.
	blocks = 10

	// Shares of -seconds. Warm-up and the live verify lap are untimed and
	// come on top.
	lapShare    = 1.0 / 90
	winShare    = 1.0 / 60
	warmShare   = 1.0 / 60 // closed-loop warm-up inside every set-up (0.5 s)
	verifyShare = 1.0 / 80 // live verify lap

	// sliceTicks ticks of the paced schedule make one sojourn slice: the
	// sojourn quantiles are taken per slice of 20 ms (10 bursts, 20000
	// packets, 2500 samples, 25 of them beyond the p99) and reported as the
	// median over the run's thousand slices. The median over slices is a
	// steady estimate only while stalls of the box touch few of them. A
	// slice's p99 is decided by a stall of a hundredth of its length: cut
	// per 0.5 s window, a third of a run's slices hold such a stall, how
	// many do varies from run to run, and the median moves with the count.
	// Cut this fine, a stall of any length spoils one slice in a thousand
	// (README, Phases, has the same samples cut both ways).
	sliceTicks   = 10
	sliceSamples = sliceTicks * pacedBurst / sampleEvery
	// backlogSlack is how much the paced backlog may typically grow across a
	// window before the rate counts as not sustained: two bursts.
	backlogSlack = 2 * pacedBurst
)

// phases splits a run's measuring time into lap and window lengths.
func phases(seconds float64) (lap, win time.Duration) {
	return share(seconds, lapShare), share(seconds, winShare)
}

func share(seconds, of float64) time.Duration {
	return time.Duration(seconds * of * float64(time.Second))
}

// verifyLive runs the closed loop for a short untimed lap with every packet
// checked in the sink, and returns the failures it found and the per-flow
// order violations it saw (which count among the failures everywhere but
// on shape_sched; see workloadDef.migrateReorders).
func (in *instance) verifyLive(seconds float64, log io.Writer) (failed, misordered int64) {
	c := newChecker(in.w)
	in.sk.check.Store(c)
	sent0 := in.g.sent
	in.g.saturate(1, share(seconds, verifyShare))
	in.sk.check.Store(nil)
	fmt.Fprintf(log, "verify live: released=%d misordered=%d early=%d\n", c.released, c.misordered, c.early)
	failed = c.early + (in.g.sent - sent0 - c.released)
	if !in.w.migrateReorders {
		failed += c.misordered
	}
	return failed, c.misordered
}

// generatorHealth declares a run INVALID when the generator could not hold
// its schedule. Both signs are judged by medians, so that one freeze of the
// whole process (which the window quartiles shrug off) does not void the run
// while a box that is late all the time does: lateness by the median over
// windows of each window's mean, backlog growth by the median over blocks of
// perBlock windows of how much the backlog grew across the block's last
// window (the earlier windows of a short block still see the standing shaper
// backlog build).
func generatorHealth(wins []winStat, perBlock int) error {
	_, _, perWin := lateness(wins)
	if typical := median(perWin); typical > float64(pacedTick.Microseconds()) {
		return errInvalid{fmt.Sprintf("generator wake-ups are typically %.0fus late, more than one tick", typical)}
	}
	var grew []float64
	for i := perBlock - 1; i < len(wins); i += perBlock {
		grew = append(grew, float64(wins[i].backlog-wins[i-1].backlog))
	}
	if typical := median(grew); typical > backlogSlack {
		return errInvalid{fmt.Sprintf("paced backlog typically grew by %.0f packets in a window: the rate was not sustained", typical)}
	}
	return nil
}

// lateness summarises the generator's wake-up lateness over the paced
// windows, in microseconds: overall mean and maximum, and each window's mean.
func lateness(wins []winStat) (mean, worst float64, perWin []float64) {
	var sum, mx int64
	ticks := 0
	for _, x := range wins {
		sum += x.lateSum
		mx = max(mx, x.lateMx)
		ticks += x.ticks
		perWin = append(perWin, float64(x.lateSum)/float64(max(x.ticks, 1))/1e3)
	}
	return float64(sum) / float64(max(ticks, 1)) / 1e3, float64(mx) / 1e3, perWin
}

// runEndToEnd measures the end-to-end metrics of one workload with tracing
// off, against the real ServeWith worker, and checks correctness.
func runEndToEnd(w *workloadDef, seed int64, seconds float64, log io.Writer) (*outcome, error) {
	var failed, attempted int64

	// Verify lap 1, static: producer finishes before the consumer starts.
	vr, err := w.verify(w, seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "verify static: %v\n", vr)
	failed += vr.failures()
	attempted += vr.attempted

	// Set-up, several times; the last instance is the one measured. The
	// others are stopped like any run, and what they failed counts.
	lapDur, winDur := phases(seconds)
	var in *instance
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if in != nil {
			stopFailed, _ := in.stop()
			failed += stopFailed
			attempted += in.g.sent
			in = nil
			runtime.GC()
		}
		t0 := time.Now()
		if in, err = setup(w, seed, false, share(seconds, warmShare)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(log, "setup: n=%d median=%.4fs all=%.4f\n", len(setups), median(setups), setups)
	g, sk := in.g, in.sk

	// Verify lap 2, live: the closed loop with every packet checked.
	liveFailed, _ := in.verifyLive(seconds, log)
	failed += liveFailed

	// Timed phases.
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	hs := startHeapSampler()
	var laps []lapStat
	var wins []winStat
	// Room for every block's sojourn samples, so that the array does not
	// grow, and leave garbage behind, between blocks.
	sk.samples = make([]int32, 0, (pacedWins*int(winDur/pacedTick)*w.burst/sampleEvery)+blocks*1024)
	for b := 0; b < blocks; b++ {
		laps = append(laps, g.saturate(timedLaps/blocks, lapDur)...)
		wins = append(wins, g.paced(pacedWins/blocks, winDur)...)
	}
	peak, heapN := hs.finish()
	runtime.ReadMemStats(&ms1)

	stopFailed, rep := in.stop()
	fmt.Fprintf(log, "stop: %s\n", rep)
	failed += stopFailed
	attempted += g.sent

	// Saturate: throughput per lap.
	mpps := lapMpps(laps)
	var waitFrac []float64
	for _, l := range laps {
		waitFrac = append(waitFrac, float64(l.waitNs)/float64(l.ns))
	}
	fmt.Fprintf(log, "saturate: laps=%d x %v window=%d throughput_mpps=%.3f median=%.3f %s producer_wait_frac=%.3f\n",
		len(laps), lapDur, w.window, mpps, median(mpps), iqr(mpps), median(waitFrac))

	// Paced: CPU per packet per window, sojourn quantiles per slice. The
	// slices are cut first: the per-window quantiles sort the samples.
	s50, s99 := sojournSlices(sk.samples[wins[0].s0:wins[len(wins)-1].s1])
	var cpu, p50, p99 []float64
	for _, x := range wins {
		if x.txd > 0 {
			cpu = append(cpu, float64(x.cpuNs)/float64(x.txd))
		}
		s := sk.samples[x.s0:x.s1]
		p50 = append(p50, float64(quantileInt32(s, 0.50))/1e3)
		p99 = append(p99, float64(quantileInt32(s, 0.99))/1e3)
	}
	lateMean, lateMax, _ := lateness(wins)
	fmt.Fprintf(log, "paced: windows=%d x %v rate=%.1fMpps cpu_ns_per_pkt=%.1f median=%.1f %s\n",
		len(wins), winDur, w.pacedMpps(), cpu, median(cpu), iqr(cpu))
	fmt.Fprintf(log, "paced: sojourn per window, for the record (a stall of the box shows here): p50_us=%.1f p99_us=%.1f\n", p50, p99)
	fmt.Fprintf(log, "paced: sojourn per slice: slices=%d x %d packets (%d samples each): sojourn_p50_us median=%.1f %s sojourn_p99_us median=%.1f %s\n",
		len(s50), sliceSamples*sampleEvery, sliceSamples, median(s50), iqr(s50), median(s99), iqr(s99))
	fmt.Fprintf(log, "generator: gen.late_us mean=%.1f max=%.1f sent-late-for-want-of-packets=%d backlog first=%d last=%d allocs=%d gc_cycles=%d\n",
		lateMean, lateMax, g.starved, wins[0].backlog, wins[len(wins)-1].backlog, ms1.Mallocs-ms0.Mallocs, ms1.NumGC-ms0.NumGC)
	fmt.Fprintf(log, "heap: peak=%.2fMB samples=%d\n", float64(peak)/1e6, heapN)

	if err := generatorHealth(wins, pacedWins/blocks); err != nil {
		return nil, err
	}

	return &outcome{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"throughput_mpps": {median(mpps), "Mpps"},
			"cpu_ns_per_pkt":  {median(cpu), "ns/pkt"},
			"sojourn_p50_us":  {median(s50), "us"},
			"sojourn_p99_us":  {median(s99), "us"},
			"heap_peak_mb":    {float64(peak) / 1e6, "MB"},
			"setup_s":         {median(setups), "s"},
		},
	}, nil
}

const (
	// The issue's traced pass is 3 laps + 3 windows of the ten: the same
	// share of the thirty.
	tracedLaps = 9 // traced saturate laps and paced windows
	refLaps    = 9 // untraced saturate laps measured for trace.overhead_frac
)

// sojournSlices cuts the paced phase's sojourn samples, which the sink wrote
// in the order of transmission, into consecutive slices of sliceSamples —
// sliceTicks ticks' worth of packets — and returns every slice's p50 and p99
// in microseconds. A trailing part-slice is left out; a phase shorter than
// one slice is one slice. samples is not modified.
func sojournSlices(samples []int32) (p50, p99 []float64) {
	n := max(len(samples)/sliceSamples, 1)
	for i := 0; i < n; i++ {
		s := slices.Clone(samples[i*sliceSamples : min((i+1)*sliceSamples, len(samples))])
		p50 = append(p50, float64(quantileInt32(s, 0.50))/1e3)
		p99 = append(p99, float64(quantileInt32(s, 0.99))/1e3)
	}
	return p50, p99
}

// iqr formats the quartiles of xs for a log line.
func iqr(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("[q1 %.4g q3 %.4g]", q1, q3)
}

// lapMpps returns each lap's throughput.
func lapMpps(laps []lapStat) []float64 {
	out := make([]float64, len(laps))
	for i, l := range laps {
		out[i] = float64(l.txd) / float64(l.ns) * 1e3
	}
	return out
}

// runTraced produces the per-layer metrics: stage isolation; an untraced
// reference against the real ServeWith worker; then a live run in which
// the benchmark's own worker loop replaces ServeWith and every call into
// the front sits inside a span. The difference between the last two is
// what tracing cost.
func runTraced(w *workloadDef, seed int64, seconds float64, log io.Writer) (*outcome, error) {
	var failed int64
	iso, err := isolate(w, seed)
	if err != nil {
		return nil, err
	}
	lapDur, winDur := phases(seconds)

	warm := share(seconds, warmShare)
	ref, err := setup(w, seed, false, warm)
	if err != nil {
		return nil, err
	}
	refMpps := median(lapMpps(ref.g.saturate(refLaps, lapDur)))
	stopFailed, rep := ref.stop()
	fmt.Fprintf(log, "untraced reference: laps=%d x %v throughput_mpps=%.3f; stop: %s\n", refLaps, lapDur, refMpps, rep)
	failed += stopFailed
	refSent := ref.g.sent
	ref = nil
	runtime.GC()

	in, err := setup(w, seed, true, warm)
	if err != nil {
		return nil, err
	}
	g, gtr, wtr := in.g, in.g.tr, in.tw.tr
	liveFailed, misordered := in.verifyLive(seconds, log)
	failed += liveFailed

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	g0, w0, sent1 := gtr.spanTotals, wtr.mark(), g.sent
	laps := g.saturate(tracedLaps, lapDur)
	g1, w1 := gtr.spanTotals, wtr.mark()
	wins := g.paced(tracedLaps, winDur)
	g2, w2 := gtr.spanTotals, wtr.mark()
	runtime.ReadMemStats(&ms1)
	pkts := g.sent - sent1
	snap, eg := in.f.Stats(), in.f.Egress().Snapshot()

	stopFailed, rep = in.stop()
	fmt.Fprintf(log, "traced: laps=%d x %v windows=%d x %v; stop: %s\n", tracedLaps, lapDur, tracedLaps, winDur, rep)
	failed += stopFailed
	tracePath := filepath.Join("benchmark", "results", "trace-"+w.name+".json")
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	if err := writeChromeTrace(tracePath, gtr, wtr); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "trace: %d generator and %d worker spans (1 batch in %d) written to %s\n",
		len(gtr.spans), len(wtr.spans), keepEvery, tracePath)

	gs, ws := g1.sub(g0), w1.sub(w0) // saturate phase
	wp := w2.sub(w1)                 // paced phase
	ga, wa := g2.sub(g0), w2.sub(w0) // both
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	lateMean, lateMax, _ := lateness(wins)
	tracedMpps := median(lapMpps(laps))

	v := iso
	v["qdisc.enqueue_ns"] = ratio(gs.ns[spanEnqueue], gs.pkts[spanEnqueue])
	v["qdisc.dequeue_ns"] = ratio(ws.ns[spanDequeue]+ws.ns[spanPoll], ws.pkts[spanDequeue])
	v["qdisc.tx_ns"] = ratio(ws.ns[spanTx], ws.pkts[spanTx])
	v["qdisc.producer_wait_frac"] = ratio(gs.ns[spanWait], gs.ns[spanBatch])
	v["qdisc.dequeue_batch_mean"] = ratio(wp.pkts[spanDequeue], wp.calls[spanDequeue])
	v["qdisc.empty_poll_frac"] = ratio(wp.calls[spanPoll], wp.calls[spanPoll]+wp.calls[spanDequeue])
	v["qdisc.idle_frac"] = ratio(wp.ns[spanNap], wp.ns[spanBatch])
	v["qdisc.idle_nap_us"] = ratio(wp.ns[spanNap], wp.calls[spanNap]) / 1e3
	v["qdisc.allocs_per_mpkt"] = float64(ms1.Mallocs-ms0.Mallocs) / (float64(pkts) / 1e6)
	v["qdisc.refused"] = float64(snap.Rejected)
	v["qdisc.dropped"] = float64(eg.Dropped())
	v["qdisc.live_misordered"] = float64(misordered)
	v["shardq.ring_full_ratio"] = ratio(int64(snap.RingFull), int64(snap.RingPushes+snap.RingFull))
	v["shardq.merge_run_mean"] = ratio(int64(snap.Batched), int64(snap.Batches))
	v["trace.coverage"] = ratio(ga.covered()+wa.covered(), ga.busy()+wa.busy())
	v["trace.overhead_frac"] = 1 - tracedMpps/refMpps
	v["gen.late_mean_us"] = lateMean
	v["gen.late_max_us"] = lateMax

	fmt.Fprintf(log, "saturate (traced): throughput_mpps=%.3f vs %.3f untraced; generator busy %.0f%% of the lap, worker busy %.0f%%\n",
		tracedMpps, refMpps, 100*ratio(gs.busy(), gs.ns[spanBatch]), 100*ratio(ws.busy(), ws.ns[spanBatch]))
	fmt.Fprintf(log, "paced (traced): worker polls=%d empty=%d naps=%d; sent-late-for-want-of-packets=%d\n",
		wp.calls[spanPoll]+wp.calls[spanDequeue], wp.calls[spanPoll], wp.calls[spanNap], g.starved)

	if err := generatorHealth(wins, tracedLaps/3); err != nil {
		return nil, err
	}
	res := &outcome{Correct: failed == 0, Attempted: g.sent + refSent, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range layerMetrics {
		x, ok := v[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{x, d.unit}
		fmt.Fprintf(log, "  %-28s %12.3f %s\n", d.name, x, d.unit)
	}
	return res, nil
}

// layerMetrics names every per-layer metric a traced run reports, in
// reading order: outermost layer first.
var layerMetrics = []struct{ name, unit string }{
	{"qdisc.enqueue_ns", "ns/pkt"},
	{"qdisc.dequeue_ns", "ns/pkt"},
	{"qdisc.tx_ns", "ns/pkt"},
	{"qdisc.front_self_ns", "ns/pkt"},
	{"qdisc.dequeue_batch_mean", "pkts"},
	{"qdisc.empty_poll_frac", "ratio"},
	{"qdisc.idle_frac", "ratio"},
	{"qdisc.idle_nap_us", "us"},
	{"qdisc.producer_wait_frac", "ratio"},
	{"qdisc.allocs_per_mpkt", "1/Mpkt"},
	{"qdisc.refused", "count"},
	{"qdisc.dropped", "count"},
	{"qdisc.live_misordered", "count"},
	{"shardq.publish_ns", "ns/pkt"},
	{"shardq.publish_batch_ns", "ns/pkt"},
	{"shardq.claim_amortization", "pkts/claim"},
	{"shardq.ring_full_ratio", "ratio"},
	{"shardq.flush_ns", "ns/pkt"},
	{"shardq.migrate_ns", "ns/pkt"},
	{"shardq.drain_ns", "ns/pkt"},
	{"shardq.merge_run_mean", "pkts"},
	{"shardq.backend_enq_ns", "ns/pkt"},
	{"shardq.backend_deq_ns", "ns/pkt"},
	{"ffsq.enq_ns", "ns/pkt"},
	{"ffsq.deq_ns", "ns/pkt"},
	{"pifo.enq_ns", "ns/pkt"},
	{"pifo.deq_ns", "ns/pkt"},
	{"hclock.enq_ns", "ns/pkt"},
	{"hclock.deq_ns", "ns/pkt"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"gen.late_mean_us", "us"},
	{"gen.late_max_us", "us"},
}
