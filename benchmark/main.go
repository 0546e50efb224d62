// Command benchmark is the repository's benchmark: a single-process load
// generator that drives the four sharded qdisc fronts live — a closed-loop
// saturation phase and an open-loop paced phase against the real ServeWith
// worker, a real clock and a recycling sink — and reports end-to-end
// metrics (tracing off) or per-layer metrics (a separate traced run),
// checking correctness in the same command. See README.md beside this file
// and BENCHMARK.json at the repository root.
//
//	benchmark --workload pace_timer --seed 1 --seconds 30 --trace 0
//	benchmark -suite 5 -out results/a.json     # every workload, 5 runs each, then one traced run each
//	benchmark -aa 5                            # two suites of the same binary, compared
//	benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: pace_timer, shape_sched, pfabric or hier_qos")
		seed    = flag.Int64("seed", 1, "seed of the workload's inputs")
		seconds = flag.Float64("seconds", 30, "measuring time of the run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		suiteN  = flag.Int("suite", 0, "run every workload this many times (one process per run), then one traced run each")
		out     = flag.String("out", "", "with -suite: write the results to this file")
		aaN     = flag.Int("aa", 0, "run two suites of this many runs and compare them (A/A)")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	runtime.GOMAXPROCS(benchProcs)

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare needs two result files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *aaN > 0:
		err = runAA(os.Stdout, *aaN, *seconds)
	case *suiteN > 0:
		err = runSuiteTo(os.Stdout, *suiteN, *seconds, *seed, *out)
	default:
		err = runOne(*name, *seed, *seconds, *trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the benchmark contract's single run: header and per-phase
// lines, then the result object as the last line of standard output.
func runOne(name string, seed int64, seconds float64, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	fmt.Printf("# %s\n", header(w, seed, seconds, traced))
	var res *outcome
	if traced {
		res, err = runTraced(w, seed, seconds, os.Stdout)
	} else {
		res, err = runEndToEnd(w, seed, seconds, os.Stdout)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// header states the fixed shape of the run.
func header(w *workloadDef, seed int64, seconds float64, traced bool) string {
	admit := "per-packet Enqueue"
	if w.batched {
		admit = fmt.Sprintf("EnqueueBatch runs of %d", enqRun)
	}
	return fmt.Sprintf("eiffel benchmark: workload=%s seed=%d seconds=%g traced=%v gomaxprocs=%d producers=1 groups=1 shards=%d ring_bits=%d pkt=%dB window=%d admission=%q paced=%.1fMpps (burst %d every %v) %s %s/%s nproc=%d",
		w.name, seed, seconds, traced, benchProcs, numShards, ringBits, pktSize, w.window, admit,
		w.pacedMpps(), w.burst, pacedTick,
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
}
