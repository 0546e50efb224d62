// Package exp is the experiment harness: one runner per table and figure
// of the paper's evaluation (§5), each regenerating the corresponding rows
// or series on this machine's substrates, plus the design ablations.
// cmd/eiffel-bench drives the runners; the repo-root benchmarks wrap them
// in testing.B targets. Throughput of the sharded runtime is measured end
// to end by benchmark/, and the egress path's fault tolerance by
// internal/qdisc's TestChaosEveryPreset, not here.
package exp

import (
	"fmt"
	"time"

	"eiffel/internal/bucket"
	"eiffel/internal/queue"
	"eiffel/internal/stats"
)

// Options scales experiments. Quick shrinks workloads to seconds-scale
// runs (CI; benches); full mode approaches paper-scale parameters.
type Options struct {
	// Quick selects reduced parameters.
	Quick bool
	// Seed drives workload randomness.
	Seed int64
}

func (o Options) budget() time.Duration {
	if o.Quick {
		return 20 * time.Millisecond
	}
	return 200 * time.Millisecond
}

// Result is one experiment's rendered output plus its raw series.
type Result struct {
	// ID is the experiment identifier ("fig16" etc.).
	ID string
	// Tables holds the rendered output.
	Tables []*stats.Table
	// Notes records scaling substitutions applied.
	Notes []string
}

// String renders all tables.
func (r *Result) String() string {
	s := fmt.Sprintf("=== %s ===\n", r.ID)
	for _, t := range r.Tables {
		s += t.String() + "\n"
	}
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// microQueue is the minimal surface the fill/drain microbenchmarks need.
type microQueue interface {
	Enqueue(n *bucket.Node, rank uint64)
	DequeueMin() *bucket.Node
	Len() int
}

// drainRate fills a queue from ranks() and drains it fully, repeatedly,
// until the time budget elapses; it returns million packets/second over
// the timed drains (the §5.2 methodology: "the queue is initially filled
// ...; then packets are dequeued").
func drainRate(mk func() microQueue, total int, ranks func(i int) uint64, budget time.Duration) float64 {
	q := mk()
	nodes := make([]*bucket.Node, total)
	for i := range nodes {
		nodes[i] = &bucket.Node{}
	}
	var timed time.Duration
	var ops int
	for timed < budget {
		for i, n := range nodes {
			q.Enqueue(n, ranks(i))
		}
		t0 := time.Now()
		for q.DequeueMin() != nil {
		}
		timed += time.Since(t0)
		ops += total
	}
	return float64(ops) / timed.Seconds() / 1e6
}

// mkKind adapts the queue registry to microQueue.
func mkKind(k queue.Kind, buckets int) func() microQueue {
	return func() microQueue {
		return queue.New(k, queue.Config{NumBuckets: buckets, Granularity: 1})
	}
}

// uniformFill spreads cnt packets as evenly as possible over buckets
// (ppb packets per bucket when cnt = ppb*buckets).
func uniformFill(buckets int) func(i int) uint64 {
	return func(i int) uint64 { return uint64(i % buckets) }
}

// fractionFill occupies only the first frac of a shuffled bucket set with
// one packet each.
func fractionFill(buckets int, frac float64, seed int64) func(i int) uint64 {
	perm := permutedBuckets(buckets, seed)
	occupied := int(frac * float64(buckets))
	if occupied < 1 {
		occupied = 1
	}
	return func(i int) uint64 { return uint64(perm[i%occupied]) }
}

func permutedBuckets(buckets int, seed int64) []int {
	rng := newRng(seed)
	perm := rng.Perm(buckets)
	return perm
}
