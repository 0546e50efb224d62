package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"eiffel/internal/pkt"
)

// streamHash hashes the seed-determined annotations of a stream's first n
// packets.
func streamHash(w *workloadDef, seed int64, n int) uint64 {
	st := w.newStream(seed)
	pool := pkt.NewPool(enqRun)
	ps := make([]*pkt.Packet, enqRun)
	for i := range ps {
		ps[i] = pool.Get()
	}
	h := fnv.New64a()
	var b [8 * 5]byte
	for i := 0; i < n; i += enqRun {
		st.fill(ps)
		for _, p := range ps {
			for j, v := range [5]uint64{p.Flow, uint64(p.Class), p.Rank, uint64(p.Size), uint64(p.Seq)} {
				for k := 0; k < 8; k++ {
					b[j*8+k] = byte(v >> (8 * k))
				}
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamHash(w, 7, 1<<15), streamHash(w, 7, 1<<15), streamHash(w, 8, 1<<15)
		if a != b {
			t.Errorf("%s: the same seed gave two different streams (%x, %x)", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

func TestRetRing(t *testing.T) {
	const total = 1 << 16
	r := newRetRing(1000) // rounds up to 1024: the producer laps the buffer 64 times
	pool := pkt.NewPool(total)
	done := make(chan struct{})
	go func() {
		defer close(done)
		chunk := make([]*pkt.Packet, 0, 64)
		for id := uint64(1); id <= total; {
			chunk = chunk[:0]
			for len(chunk) < 1+int(id%64) && id <= total {
				p := pool.Get() // ids count up from 1
				chunk = append(chunk, p)
				id++
			}
			for 1024-r.len() < len(chunk) { // the benchmark never overfills; neither may the test
				runtime.Gosched()
			}
			r.push(chunk)
		}
	}()
	out := make([]*pkt.Packet, 37)
	for want := uint64(1); want <= total; {
		n := r.pop(out)
		if n == 0 {
			runtime.Gosched()
		}
		for _, p := range out[:n] {
			if p.ID != want {
				t.Fatalf("popped packet %d, want %d: the ring reordered or lost a packet", p.ID, want)
			}
			want++
		}
	}
	<-done
	if r.len() != 0 || r.pop(out) != 0 {
		t.Fatal("ring not empty after every packet was popped")
	}
}

func TestRetRingRefusesMorePacketsThanExist(t *testing.T) {
	r := newRetRing(4)
	pool := pkt.NewPool(5)
	defer func() {
		if recover() == nil {
			t.Fatal("pushing a fifth packet into a ring of four did not panic")
		}
	}()
	for i := 0; i < 5; i++ {
		r.push([]*pkt.Packet{pool.Get()})
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(xs, n=4), exclusive method.
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3.1, 2.9, 3.0, 3.3, 2.7, 3.2, 3.05, 2.95, 3.15, 3.0}, 2.9375, 3.025, 3.1625},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 || math.Abs(median(c.xs)-c.med) > 1e-9 {
			t.Errorf("%v: got q1=%v median=%v q3=%v, want %v %v %v", c.xs, q1, median(c.xs), q3, c.q1, c.med, c.q3)
		}
		if got, want := spread(c.xs), (c.q3-c.q1)/c.med; math.Abs(got-want) > 1e-9 {
			t.Errorf("%v: spread %v, want %v", c.xs, got, want)
		}
	}
	if median(nil) != 0 || spread([]float64{4}) != 0 {
		t.Error("empty and single-value inputs must give 0")
	}
	xs := []int32{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	if p50, p99 := quantileInt32(xs, 0.5), quantileInt32(xs, 0.99); p50 != 60 || p99 != 100 {
		t.Errorf("quantileInt32: p50=%d p99=%d, want 60 and 100", p50, p99)
	}
}

func TestSojournSlices(t *testing.T) {
	// Three slices and a part-slice: a flat one, one with a stall in its
	// last fiftieth, a flat one. The stall decides its own slice's p99 and
	// nothing else, so the median over slices does not see it.
	samples := make([]int32, 3*sliceSamples+sliceSamples/2)
	for i := range samples {
		samples[i] = 1000 * int32(1+i/sliceSamples)
	}
	for i := 2*sliceSamples - sliceSamples/50; i < 2*sliceSamples; i++ {
		samples[i] = 9e6
	}
	before := slices.Clone(samples)
	p50, p99 := sojournSlices(samples)
	if !slices.Equal(p50, []float64{1, 2, 3}) || !slices.Equal(p99, []float64{1, 9000, 3}) {
		t.Errorf("p50=%v p99=%v, want [1 2 3] and [1 9000 3]", p50, p99)
	}
	if median(p99) != 3 || !slices.Equal(samples, before) {
		t.Errorf("median p99 %v, want 3; samples modified: %v", median(p99), !slices.Equal(samples, before))
	}
	if p50, p99 := sojournSlices(samples[:10]); len(p50) != 1 || p50[0] != 1 || p99[0] != 1 {
		t.Errorf("a phase shorter than one slice must be one slice: p50=%v p99=%v", p50, p99)
	}
}

func TestCheckerSeesMisorderAndEarlyRelease(t *testing.T) {
	w, _ := findWorkload("pace_timer")
	c := newChecker(w)
	pool := pkt.NewPool(4)
	mk := func(flow uint64, seq uint32, sendAt int64) *pkt.Packet {
		p := pool.Get()
		p.Flow, p.Seq, p.SendAt = flow, seq, sendAt
		return p
	}
	now := int64(1e6)
	c.observe([]*pkt.Packet{
		mk(1, 1, now),             // fine
		mk(1, 3, now+w.granule),   // fine: inside the granule
		mk(1, 2, now),             // behind its flow's seq 3
		mk(2, 1, now+w.granule+1), // a nanosecond too early
	}, now)
	if c.released != 4 || c.misordered != 1 || c.early != 1 {
		t.Fatalf("released=%d misordered=%d early=%d, want 4 1 1", c.released, c.misordered, c.early)
	}
}

func TestHierIdealShares(t *testing.T) {
	// A link so fast no reservation binds: pure weights.
	sum := 0.0
	for i, s := range hierIdealShares(1e12) {
		sum += s
		if want := float64(i%4+1) / 40; math.Abs(s-want) > 1e-12 {
			t.Errorf("tenant %d: share %v, want its weight share %v", i, s, want)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	// At the verify lap's link, tenant 0 (weight 1, 1/40 of 20 Gbps) is
	// lifted to its 1 Gbps reservation and the shares still sum to 1.
	sh := hierIdealShares(verifyLinkBps)
	sum = 0
	for _, s := range sh {
		sum += s
	}
	if math.Abs(sh[0]-hierResBps/verifyLinkBps) > 1e-12 || math.Abs(sum-1) > 1e-9 {
		t.Errorf("tenant 0 share %v (want %v), sum %v", sh[0], hierResBps/verifyLinkBps, sum)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name        string
		a, b        []float64
		higher      bool
		wins, pairs int
		want        string
	}{
		{"same", base, base, false, 0, 0, "within-bound"},
		{"lower-is-better, 20% up", base, scale(1.2), false, 0, 10, "REGRESSED"},
		{"higher-is-better, 20% up, wins all pairs", base, scale(1.2), true, 10, 10, "improved"},
		{"higher-is-better, 20% up, wins 6 of 10", base, scale(1.2), true, 6, 10, "within-bound"},
		{"higher-is-better, 20% down", base, scale(0.8), true, 0, 10, "REGRESSED"},
		{"3% worse, inside a 5% bound", base, scale(1.03), false, 0, 10, "within-bound"},
		{"spread wider than the bound", noisy, scale(1.2), false, 0, 10, "unresolved"},
	}
	for _, c := range cases {
		got, _ := verdict(c.a, c.b, 0.05, c.higher, c.wins, c.pairs)
		if !strings.HasPrefix(got, c.want) {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFilesCountsRegressions(t *testing.T) {
	mk := func(mpps float64) *resultFile {
		r := &resultFile{}
		for seed := int64(1); seed <= 5; seed++ {
			r.Runs = append(r.Runs, runRecord{Workload: "pfabric", Seed: seed, outcome: outcome{
				Correct: true, Attempted: 10,
				Metrics: map[string]metric{"throughput_mpps": {mpps + float64(seed)*0.001, "Mpps"}},
			}})
		}
		return r
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := mk(5).write(a); err != nil {
		t.Fatal(err)
	}
	if err := mk(3).write(b); err != nil {
		t.Fatal(err)
	}
	inRepoRoot(t)
	var out bytes.Buffer
	if err := compareFiles(&out, a, b); err == nil || !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("a 40%% throughput drop was not reported as a regression:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, b, a); err != nil || !strings.Contains(out.String(), "improved") {
		t.Fatalf("a 67%% throughput gain won on every seed was not reported as improved (err %v):\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "5.003/3.003=") {
		t.Errorf("the ratio is not printed with its base:\n%s", out.String())
	}
}

// inRepoRoot moves the test to the repository root, where BENCHMARK.json
// lives and where the benchmark itself is run from.
func inRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join(wd, "..")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// TestSmoke runs every workload for one second, end to end and traced, and
// asserts that nothing failed and that every metric BENCHMARK.json names is
// emitted with the unit it names. (The issue's 200 ms would make forty
// paced windows of one tick each, too short for the generator-health
// guard to tell a building shaper backlog from an unsustained rate.)
func TestSmoke(t *testing.T) {
	inRepoRoot(t)
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) || len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d workloads and %d per-layer metrics; the benchmark has %d and %d",
			len(spec.Workloads), len(spec.PerLayer), len(workloads), len(layerMetrics))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, spec.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			run, want := runEndToEnd, spec.EndToEnd
			if traced {
				run, want = runTraced, spec.PerLayer
			}
			res, err := run(w, 1, 1, io.Discard)
			var inv errInvalid
			if errors.As(err, &inv) {
				t.Skipf("%s: %v — this machine cannot hold the generator's schedule", w.name, inv)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s: got %+v (present=%v), want unit %q", w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}
