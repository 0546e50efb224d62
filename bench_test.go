package eiffel_test

import (
	"strconv"
	"testing"

	"eiffel/internal/exp"
)

// Each benchmark regenerates one of the paper's tables or figures in quick
// mode via the experiment harness; running the full-scale versions is
// cmd/eiffel-bench's job. Heavy experiments take >1s per run, so b.N stays
// at 1 and the benchmark wall time IS the experiment runtime; the headline
// figure value is attached as a custom metric where meaningful.

func runExp(b *testing.B, id string) *exp.Result {
	b.Helper()
	var res *exp.Result
	for i := 0; i < b.N; i++ {
		res = exp.Registry[id](exp.Options{Quick: true, Seed: 1})
	}
	return res
}

func metric(b *testing.B, res *exp.Result, table, row, col int, name string) {
	b.Helper()
	if table >= len(res.Tables) || row >= len(res.Tables[table].Rows) {
		return
	}
	if v, err := strconv.ParseFloat(res.Tables[table].Rows[row][col], 64); err == nil {
		b.ReportMetric(v, name)
	}
}

// BenchmarkTable1Capabilities prints the system feature matrix (Table 1).
func BenchmarkTable1Capabilities(b *testing.B) { runExp(b, "table1") }

// BenchmarkFig09KernelShaping regenerates Figure 9: cores used for
// networking under FQ, Carousel, and Eiffel.
func BenchmarkFig09KernelShaping(b *testing.B) {
	res := runExp(b, "fig9")
	metric(b, res, 0, 2, 2, "eiffel-median-cores")
	metric(b, res, 0, 0, 2, "fq-median-cores")
}

// BenchmarkFig10TimerSplit regenerates Figure 10: system vs softirq split.
func BenchmarkFig10TimerSplit(b *testing.B) {
	res := runExp(b, "fig10")
	metric(b, res, 0, 0, 3, "carousel-timer-fires")
	metric(b, res, 0, 1, 3, "eiffel-timer-fires")
}

// BenchmarkFig12HClock regenerates Figure 12: max aggregate rate vs flows.
func BenchmarkFig12HClock(b *testing.B) {
	res := runExp(b, "fig12")
	last := len(res.Tables[0].Rows) - 1
	metric(b, res, 0, last, 1, "eiffel-mbps-most-flows")
	metric(b, res, 0, last, 2, "hclock-mbps-most-flows")
}

// BenchmarkFig13Batching regenerates Figure 13: batching x packet size.
func BenchmarkFig13Batching(b *testing.B) { runExp(b, "fig13") }

// BenchmarkFig15PFabric regenerates Figure 15: pFabric rate vs flows.
func BenchmarkFig15PFabric(b *testing.B) {
	res := runExp(b, "fig15")
	last := len(res.Tables[0].Rows) - 1
	metric(b, res, 0, last, 1, "cffs-mbps")
	metric(b, res, 0, last, 2, "binheap-mbps")
}

// BenchmarkFig16PacketsPerBucket regenerates Figure 16.
func BenchmarkFig16PacketsPerBucket(b *testing.B) {
	res := runExp(b, "fig16")
	metric(b, res, 1, 0, 1, "approx-mpps-1ppb-10k")
	metric(b, res, 1, 0, 2, "cffs-mpps-1ppb-10k")
	metric(b, res, 1, 0, 3, "bh-mpps-1ppb-10k")
}

// BenchmarkFig17Occupancy regenerates Figure 17.
func BenchmarkFig17Occupancy(b *testing.B) { runExp(b, "fig17") }

// BenchmarkFig18ApproxError regenerates Figure 18.
func BenchmarkFig18ApproxError(b *testing.B) {
	res := runExp(b, "fig18")
	metric(b, res, 0, 0, 1, "avg-err-at-0.70-5k")
}

// BenchmarkFig19NetworkWide regenerates Figure 19 (quick fabric).
func BenchmarkFig19NetworkWide(b *testing.B) {
	res := runExp(b, "fig19")
	last := len(res.Tables[0].Rows) - 1
	metric(b, res, 0, last, 1, "dctcp-avg-small-fct")
	metric(b, res, 0, last, 3, "pfabric-avg-small-fct")
}

// BenchmarkFig20Choose regenerates the Figure 20 decision table.
func BenchmarkFig20Choose(b *testing.B) { runExp(b, "fig20") }

// Ablation benches: one per ablation-* experiment id.

// BenchmarkAblationHierVsFlat compares hierarchical vs flat FFS indexes.
func BenchmarkAblationHierVsFlat(b *testing.B) { runExp(b, "ablation-hier-vs-flat") }

// BenchmarkAblationAlpha sweeps the approximate queue's alpha.
func BenchmarkAblationAlpha(b *testing.B) { runExp(b, "ablation-alpha") }
