package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// A suite is every workload run n times with tracing off, then once traced,
// each run in a process of its own: lap medians settle what varies inside a
// process, only separate processes show what varies between them.

type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// NoResult says why the run printed no result line (INVALID, or the
	// child failed); such a record carries no metrics.
	NoResult string `json:"no_result,omitempty"`
	outcome
}

type envHeader struct {
	Commit       string  `json:"commit"`
	When         string  `json:"when"`
	Go           string  `json:"go"`
	Platform     string  `json:"platform"`
	Kernel       string  `json:"kernel"`
	NumCPU       int     `json:"nproc"`
	GoMaxProcs   int     `json:"gomaxprocs"`
	SleepFloorUs float64 `json:"sleep_floor_us"` // measured median length of time.Sleep(serveIdleNap)
	Shape        string  `json:"shape"`
}

type resultFile struct {
	Env  envHeader   `json:"env"`
	Runs []runRecord `json:"runs"`
}

func environment() envHeader {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	naps := make([]float64, 101)
	for i := range naps {
		t0 := time.Now()
		time.Sleep(serveIdleNap)
		naps[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	var bursts []string
	for _, w := range workloads {
		bursts = append(bursts, fmt.Sprintf("%s:%d", w.name, w.burst))
	}
	return envHeader{
		Commit: commit, When: time.Now().UTC().Format(time.RFC3339),
		Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		Kernel: strings.TrimSpace(string(kernel)),
		NumCPU: runtime.NumCPU(), GoMaxProcs: benchProcs, SleepFloorUs: median(naps),
		Shape: fmt.Sprintf("producers=1 groups=1 shards=%d ring_bits=%d pkt=%dB paced=%s per %v pool=%d",
			numShards, ringBits, pktSize, strings.Join(bursts, ","), pacedTick, pacedPool),
	}
}

// runChild runs one workload once in a child process of this binary and
// parses the result line.
func runChild(w *workloadDef, seed int64, seconds float64, traced bool) (runRecord, error) {
	rec := runRecord{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced}
	exe, err := os.Executable()
	if err != nil {
		return rec, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", trace)
	var why bytes.Buffer // the child says on standard error why it has no result
	cmd.Stderr = &why
	out, err := cmd.Output()
	if err != nil {
		return rec, fmt.Errorf("%s seed %d: %w: %s", w.name, seed, err, bytes.TrimSpace(why.Bytes()))
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rec.outcome); err != nil {
		return rec, fmt.Errorf("%s seed %d: result line: %w", w.name, seed, err)
	}
	return rec, nil
}

// runSuite runs n end-to-end runs of every workload (seeds seed0..seed0+n-1,
// workloads interleaved so drift of the box spreads over all of them), then
// one traced run of each. A run that prints no result is recorded as such
// and the suite goes on: half an hour of results is not thrown away because
// the box stalled once. noResult counts those runs.
func runSuite(log io.Writer, n int, seconds float64, seed0 int64) (res *resultFile, noResult int) {
	res = &resultFile{Env: environment()}
	for i := 0; i <= n; i++ {
		traced := i == n
		for _, w := range workloads {
			seed := seed0 + int64(i)
			if traced {
				seed = seed0
			}
			rec, err := runChild(w, seed, seconds, traced)
			if err != nil {
				rec.NoResult = err.Error()
				noResult++
				fmt.Fprintf(log, "%-12s seed=%d traced=%v NO RESULT: %v\n", w.name, seed, traced, err)
			} else {
				fmt.Fprintf(log, "%-12s seed=%d traced=%v correct=%v failed=%d/%d\n",
					w.name, seed, traced, rec.Correct, rec.Failed, rec.Attempted)
			}
			res.Runs = append(res.Runs, rec)
		}
	}
	return res, noResult
}

func (r *resultFile) write(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &resultFile{}
	if err := json.Unmarshal(b, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// values returns metric name -> values over the file's runs of one
// workload, end-to-end or traced.
func (r *resultFile) values(workload string, traced bool) map[string][]float64 {
	out := map[string][]float64{}
	for _, run := range r.Runs {
		if run.Workload != workload || run.Traced != traced || run.NoResult != "" {
			continue
		}
		for name, m := range run.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out
}

// failures returns the total failed and attempted operations of a file.
func (r *resultFile) failures() (failed, attempted int64) {
	for _, run := range r.Runs {
		failed += run.Failed
		attempted += run.Attempted
	}
	return failed, attempted
}

func runSuiteTo(log io.Writer, n int, seconds float64, seed int64, out string) error {
	res, noResult := runSuite(log, n, seconds, seed)
	if out == "" {
		out = filepath.Join("benchmark", "results", res.Env.Commit+".json")
	}
	if err := res.write(out); err != nil {
		return err
	}
	fmt.Fprintf(log, "\nwrote %s\n", out)
	summarize(log, res)
	if noResult > 0 {
		return fmt.Errorf("%d run(s) printed no result", noResult)
	}
	return nil
}

// summarize prints each workload's end-to-end medians, quartiles and
// spread, then its per-layer values.
func summarize(log io.Writer, r *resultFile) {
	spec, _ := readSpec() // without BENCHMARK.json the bound column reads 0
	fmt.Fprintf(log, "\n%s  commit %s  %s %s kernel %s nproc=%d gomaxprocs=%d sleep(50us)=%.0fus\n%s\n",
		r.Env.When, r.Env.Commit, r.Env.Go, r.Env.Platform, r.Env.Kernel, r.Env.NumCPU, r.Env.GoMaxProcs, r.Env.SleepFloorUs, r.Env.Shape)
	for _, w := range workloads {
		vals := r.values(w.name, false)
		fmt.Fprintf(log, "\n%s\n  %-18s %4s %12s %12s %12s %8s %7s\n", w.name, "end-to-end", "n", "median", "q1", "q3", "spread", "bound")
		for _, name := range sortedKeys(vals) {
			q1, q3 := quartiles(vals[name])
			fmt.Fprintf(log, "  %-18s %4d %12.4f %12.4f %12.4f %7.2f%% %6.0f%%\n",
				name, len(vals[name]), median(vals[name]), q1, q3, 100*spread(vals[name]), 100*spec.bound(name))
		}
		layer := r.values(w.name, true)
		for _, d := range layerMetrics {
			if xs, ok := layer[d.name]; ok {
				fmt.Fprintf(log, "  %-28s %12.3f %s\n", d.name, median(xs), d.unit)
			}
		}
	}
	failed, attempted := r.failures()
	fmt.Fprintf(log, "\nfailed %d of %d attempted\n", failed, attempted)
	for _, run := range r.Runs {
		if run.NoResult != "" {
			fmt.Fprintf(log, "no result: %s seed %d traced=%v: %s\n", run.Workload, run.Seed, run.Traced, run.NoResult)
		}
	}
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// benchSpec is the part of BENCHMARK.json the comparison needs: each
// end-to-end metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec() (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

func (s benchSpec) bound(name string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}

func (s benchSpec) higherIsBetter(name string) bool {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Better == "higher"
		}
	}
	return false
}

// verdict judges B against A for one end-to-end metric. worse is B's
// median relative to A's, signed so that positive is worse. The rule
// follows the choosing-metrics guide: a spread wider than the bound
// resolves nothing; beyond the bound is a regression; an improvement must
// exceed A's own run-to-run spread and win nine tenths of the seed pairs.
func verdict(a, b []float64, bound float64, higherBetter bool, wins, pairs int) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved (base is 0)", 0
	}
	worse := (mb - ma) / ma
	if higherBetter {
		worse = -worse
	}
	if sp := max(spread(a), spread(b)); sp > bound {
		return fmt.Sprintf("unresolved (spread %.1f%% > bound)", 100*sp), worse
	}
	switch {
	case worse > bound:
		return "REGRESSED", worse
	case -worse > spread(a) && pairs > 0 && float64(wins) >= 0.9*float64(pairs):
		return "improved", worse
	}
	return "within-bound", worse
}

// compareResults prints, per workload and metric, both medians with their
// quartiles, the ratio with its base, the bound and the verdict.
func compareResults(log io.Writer, a, b *resultFile, nameA, nameB string) (regressed int) {
	spec, err := readSpec()
	if err != nil {
		fmt.Fprintf(log, "note: no BENCHMARK.json in the working directory (%v): bounds read as 0\n", err)
	}
	fmt.Fprintf(log, "A = %s (commit %s, %s)\nB = %s (commit %s, %s)\n", nameA, a.Env.Commit, a.Env.When, nameB, b.Env.Commit, b.Env.When)
	for _, w := range workloads {
		va, vb := a.values(w.name, false), b.values(w.name, false)
		fmt.Fprintf(log, "\n%s\n  %-16s %28s %28s %24s %6s  %s\n", w.name, "end-to-end",
			"A median [q1..q3] n", "B median [q1..q3] n", "B/A", "bound", "verdict")
		for _, name := range sortedKeys(va) {
			xa, xb := va[name], vb[name]
			if len(xb) == 0 {
				continue
			}
			hb := spec.higherIsBetter(name)
			wins, pairs := pairWins(a, b, w.name, name, hb)
			v, _ := verdict(xa, xb, spec.bound(name), hb, wins, pairs)
			if v == "REGRESSED" {
				regressed++
			}
			a1, a3 := quartiles(xa)
			b1, b3 := quartiles(xb)
			fmt.Fprintf(log, "  %-16s %10.4g [%.4g..%.4g] %2d %10.4g [%.4g..%.4g] %2d %9.4g/%.4g=%.3f %5.0f%%  %s (B wins %d/%d seed pairs)\n",
				name, median(xa), a1, a3, len(xa), median(xb), b1, b3, len(xb),
				median(xb), median(xa), median(xb)/median(xa), 100*spec.bound(name), v, wins, pairs)
		}
		la, lb := a.values(w.name, true), b.values(w.name, true)
		for _, d := range layerMetrics {
			xa, xb := la[d.name], lb[d.name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ratio := "-"
			if median(xa) != 0 {
				ratio = fmt.Sprintf("%.4g/%.4g=%.3f", median(xb), median(xa), median(xb)/median(xa))
			}
			fmt.Fprintf(log, "  %-28s A %12.3f  B %12.3f %-8s B/A %s\n", d.name, median(xa), median(xb), d.unit, ratio)
		}
	}
	fa, ta := a.failures()
	fb, tb := b.failures()
	fmt.Fprintf(log, "\nfailed: A %d of %d attempted, B %d of %d attempted", fa, ta, fb, tb)
	if fb > fa {
		fmt.Fprintf(log, "  — B FAILS MORE: any gain above does not count")
		regressed++
	}
	fmt.Fprintln(log)
	return regressed
}

// pairWins pairs the two files' end-to-end runs by seed and counts the
// pairs B wins; ties count for neither side.
func pairWins(a, b *resultFile, workload, name string, higherBetter bool) (wins, pairs int) {
	bySeed := map[int64]float64{}
	for _, r := range a.Runs {
		if r.Workload == workload && !r.Traced && r.NoResult == "" {
			bySeed[r.Seed] = r.Metrics[name].Value
		}
	}
	for _, r := range b.Runs {
		xa, ok := bySeed[r.Seed]
		if r.Workload != workload || r.Traced || r.NoResult != "" || !ok {
			continue
		}
		xb := r.Metrics[name].Value
		if xa == xb {
			continue
		}
		pairs++
		if (xb > xa) == higherBetter {
			wins++
		}
	}
	return wins, pairs
}

func compareFiles(log io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	if n := compareResults(log, a, b, pathA, pathB); n > 0 {
		return fmt.Errorf("%d regression(s)", n)
	}
	return nil
}

// runAA runs two suites of the same binary with the same seeds and compares
// them: whatever differs is the noise floor the bounds must sit above.
func runAA(log io.Writer, n int, seconds float64) error {
	dir := filepath.Join("benchmark", "results")
	var sets [2]*resultFile
	missing := 0
	for i := range sets {
		fmt.Fprintf(log, "A/A set %d of 2: %d runs per workload\n", i+1, n)
		res, noResult := runSuite(log, n, seconds, 1)
		if err := res.write(filepath.Join(dir, fmt.Sprintf("aa-%d.json", i+1))); err != nil {
			return err
		}
		sets[i] = res
		missing += noResult
	}
	if n := compareResults(log, sets[0], sets[1], "set 1", "set 2"); n > 0 {
		return fmt.Errorf("A/A comparison of one binary shows %d regression(s): the bounds are inside the noise", n)
	}
	if missing > 0 {
		return fmt.Errorf("%d run(s) printed no result", missing)
	}
	return nil
}
