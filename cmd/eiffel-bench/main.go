// Command eiffel-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	eiffel-bench -list
//	eiffel-bench -experiment fig16
//	eiffel-bench -experiment all -quick
//
// Quick mode shrinks workloads for seconds-scale runs; the default scales
// approach the paper's parameters (minutes).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"eiffel/internal/exp"
)

func main() {
	var (
		name  = flag.String("experiment", "all", "experiment id (see -list) or 'all'")
		quick = flag.Bool("quick", false, "reduced workloads for fast runs")
		seed  = flag.Int64("seed", 1, "workload seed")
		list  = flag.Bool("list", false, "list experiment ids")
	)
	flag.Parse()

	if *list {
		for _, n := range exp.Names() {
			fmt.Println(n)
		}
		return
	}

	opts := exp.Options{Quick: *quick, Seed: *seed}
	run := func(id string) {
		r, ok := exp.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		res := r(opts)
		fmt.Print(res.String())
		fmt.Printf("(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	if *name == "all" {
		for _, id := range exp.Names() {
			run(id)
		}
		return
	}
	run(*name)
}
