package exp

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// runQuick runs a registered experiment in quick mode and sanity-checks
// its output structure.
func runQuick(t *testing.T, id string) *Result {
	t.Helper()
	r, ok := Registry[id]
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	res := r(Options{Quick: true, Seed: 1})
	if res.ID != id {
		t.Fatalf("result id %q, want %q", res.ID, id)
	}
	if len(res.Tables) == 0 {
		t.Fatal("no tables produced")
	}
	for _, tab := range res.Tables {
		if len(tab.Rows) == 0 {
			t.Fatalf("table %q has no rows", tab.Title)
		}
	}
	return res
}

func cell(t *testing.T, res *Result, table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(res.Tables[table].Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d,%d) = %q not numeric", table, row, col, res.Tables[table].Rows[row][col])
	}
	return v
}

func TestTable1(t *testing.T) {
	res := runQuick(t, "table1")
	out := res.String()
	for _, want := range []string{"Eiffel", "Carousel", "PIFO", "hClock", "O(1)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 1 missing %q", want)
		}
	}
}

func TestFigure16Shape(t *testing.T) {
	res := runQuick(t, "fig16")
	// Every queue must be in the Mpps range (sanity: > 0.5 Mpps).
	for ti := range res.Tables {
		for ri := range res.Tables[ti].Rows {
			for ci := 1; ci <= 3; ci++ {
				if v := cell(t, res, ti, ri, ci); v <= 0.5 {
					t.Fatalf("table %d row %d col %d: %.2f Mpps implausibly low", ti, ri, ci, v)
				}
			}
		}
	}
	// The headline: bucketed FFS/approx queues beat BH at fine granularity
	// (1 pkt/bucket row, 10k buckets table).
	cffs := cell(t, res, 1, 0, 2)
	bh := cell(t, res, 1, 0, 3)
	if cffs < bh {
		t.Logf("warning: cFFS (%.2f) did not beat BH (%.2f) at 1 pkt/bucket", cffs, bh)
	}
}

func TestFigure17Shape(t *testing.T) {
	res := runQuick(t, "fig17")
	// Approximate queue throughput should not degrade with higher
	// occupancy (more occupancy = fewer estimate misses).
	lo := cell(t, res, 0, 0, 2)
	hi := cell(t, res, 0, len(res.Tables[0].Rows)-1, 2)
	if hi < lo*0.5 {
		t.Fatalf("approx rate fell with occupancy: %.2f -> %.2f", lo, hi)
	}
}

func TestFigure18ErrorDecreasesWithOccupancy(t *testing.T) {
	res := runQuick(t, "fig18")
	rows := res.Tables[0].Rows
	first := cell(t, res, 0, 0, 1)          // avg err at 0.70
	last := cell(t, res, 0, len(rows)-1, 1) // avg err at 0.99
	if last > first+0.5 && first > 0.01 {
		t.Fatalf("selection error should shrink as occupancy rises: %.2f -> %.2f", first, last)
	}
}

func TestFigure20Choices(t *testing.T) {
	res := runQuick(t, "fig20")
	rows := res.Tables[0].Rows
	want := []string{"BinHeap", "FFS", "cFFS", "cApprox"}
	for i, w := range want {
		if got := rows[i][4]; got != w {
			t.Fatalf("row %d choice = %q, want %q", i, got, w)
		}
	}
}

func TestFigure9And10Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	res9 := runQuick(t, "fig9")
	// Eiffel's median cores must not exceed FQ's: the core claim.
	fq := cell(t, res9, 0, 0, 2)
	eiffel := cell(t, res9, 0, 2, 2)
	if eiffel > fq {
		t.Fatalf("Eiffel median cores (%.4f) exceed FQ (%.4f)", eiffel, fq)
	}
	res10 := runQuick(t, "fig10")
	_ = res10
}

func TestFigure12Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	res := runQuick(t, "fig12")
	// At the largest flow count, Eiffel must beat BESS tc.
	rows := res.Tables[0].Rows
	last := len(rows) - 1
	eiffel := cell(t, res, 0, last, 1)
	tc := cell(t, res, 0, last, 3)
	if eiffel < tc {
		t.Fatalf("Eiffel (%.0f Mbps) should beat BESS tc (%.0f) at %s flows", eiffel, tc, rows[last][0])
	}
}

func TestFigure15Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	res := runQuick(t, "fig15")
	rows := res.Tables[0].Rows
	last := len(rows) - 1
	eiffel := cell(t, res, 0, last, 1)
	heap := cell(t, res, 0, last, 2)
	if eiffel <= 0 || heap <= 0 {
		t.Fatalf("zero rates: %v", rows[last])
	}
}

func TestFigure19Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := runQuick(t, "fig19")
	// pFabric must beat DCTCP on small-flow FCT at the highest load, and
	// the approximate variant must track the exact one.
	rows := res.Tables[0].Rows // avg small panel
	last := len(rows) - 1
	dctcp := cell(t, res, 0, last, 1)
	approx := cell(t, res, 0, last, 2)
	exact := cell(t, res, 0, last, 3)
	if exact > dctcp {
		t.Logf("warning: pFabric small-flow FCT (%.2f) not below DCTCP (%.2f) at top load", exact, dctcp)
	}
	if approx > exact*2 {
		t.Fatalf("approx pFabric diverged: %.2f vs exact %.2f", approx, exact)
	}
}

func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	for _, id := range []string{"ablation-hier-vs-flat", "ablation-alpha", "ablation-backends", "ablation-shaper"} {
		runQuick(t, id)
	}
}

func TestEgressQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	res := runQuick(t, "egress")
	rows := res.Tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("want 3 rows (G=1, G=2, G=4), got %d", len(rows))
	}
	// The hard acceptance half: parallel egress must not cost a single
	// per-flow order violation, and no flow may ever be released by a
	// group other than its own.
	for _, row := range rows {
		if row[5] != "0" {
			t.Fatalf("G=%s: %s per-flow order violations, want 0", row[0], row[5])
		}
		if row[6] != "0" {
			t.Fatalf("G=%s: %s flow-group violations, want 0", row[0], row[6])
		}
	}
	// Throughput sanity (the ≥1.5× G=4 acceptance figure needs a
	// multi-core runner and is tracked by BenchmarkEgress; this container
	// may be single-vCPU, where workers serialize): every row must still
	// move packets at a plausible rate. The floor is deliberately low —
	// race-instrumented runs are an order of magnitude slower than bare
	// ones, and this guard is for wedged drains, not performance.
	for ri := range rows {
		if v := cell(t, res, 0, ri, 2); v < 0.05 {
			t.Fatalf("G=%s: %.2f Mpps implausibly low", rows[ri][0], v)
		}
	}
}

func TestShapedSchedQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	res := runQuick(t, "shapedsched")
	rows := res.Tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("want 3 rows (locked tree, shaped shards, shaped shards batched), got %d", len(rows))
	}
	// The hard acceptance half: ZERO priority inversions beyond scheduler
	// bucket granularity — for the baseline, the per-element sharded
	// runtime, and the batched admission path alike.
	for _, row := range rows {
		if row[5] != "0" {
			t.Fatalf("%s: %s priority inversions beyond bucket granularity, want 0", row[0], row[5])
		}
	}
	// Throughput sanity (the ≥2× acceptance figure is tracked by
	// BenchmarkShapedSched; machine-dependent, so not asserted here): the
	// sharded runtime must at least not lose to the global lock.
	locked := cell(t, res, 0, 0, 3)
	for row := 1; row < 3; row++ {
		sharded := cell(t, res, 0, row, 3)
		if sharded < locked*0.8 {
			t.Fatalf("%s (%.2f Mpps) fell below the locked tree baseline (%.2f Mpps)",
				rows[row][0], sharded, locked)
		}
	}
}

func TestPolicySchedQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	res := runQuick(t, "policysched")
	rows := res.Tables[0].Rows
	if len(rows) != 10 {
		t.Fatalf("want 10 rows (3 policies x locked/sharded/batched + the hwfq hier-shards re-expression), got %d", len(rows))
	}
	for _, row := range rows {
		// Flow-local exactness is the hard half of the acceptance: zero
		// packets out of their flow's enqueue order, on every policy,
		// through every admission path.
		if row[5] != "0" {
			t.Fatalf("%s/%s: %s flow-order violations, want 0", row[0], row[1], row[5])
		}
		// Hierarchical WFQ: the weight-3 class's share of the served half
		// must track 3:1 — near-exact on the locked tree, bounded error
		// across shard-local virtual-time domains.
		if row[6] != "-" {
			share, err := strconv.ParseFloat(row[6], 64)
			if err != nil {
				t.Fatalf("gold-share %q not numeric: %v", row[6], err)
			}
			bound := 0.05
			if row[1] != "tree+lock" {
				bound = 0.10
			}
			if diff := share - 0.75; diff > bound || diff < -bound {
				t.Fatalf("%s/%s: gold share %.3f strays more than %.2f from 0.75",
					row[0], row[1], share, bound)
			}
		}
	}
	// Throughput sanity (the ≥2× acceptance figure is tracked by
	// BenchmarkPolicySched; machine-dependent, so not asserted here): on
	// the direct-mode policies (pfabric, lqf — single flow leaf, served
	// packet-free) the sharded runtime must at least not lose to the
	// global lock. The hierarchical WFQ rows run the full per-shard tree
	// through one consumer and are reported, not asserted: their value is
	// the bounded cross-shard fairness, not throughput.
	//
	// The bound is loose (0.7×, where full runs measure 2×+) and a
	// failing measurement retries once on a fresh run: quick mode replays
	// a small workload on whatever CPU the runner spares — on a 1-CPU box
	// `go test ./...` overlaps other packages' compilation with this
	// test's timed replays — so one reading can be ruined by transient
	// CPU theft. A real regression to locked-or-worse throughput fails
	// both runs.
	throughputOK := func(res *Result) (string, bool) {
		for p := 0; p < 2; p++ {
			locked := cell(t, res, 0, 3*p, 3)
			for row := 3*p + 1; row < 3*p+3; row++ {
				sharded := cell(t, res, 0, row, 3)
				if sharded < locked*0.7 {
					r := res.Tables[0].Rows[row]
					return fmt.Sprintf("%s/%s (%.2f Mpps) fell below the locked tree baseline (%.2f Mpps)",
						r[0], r[1], sharded, locked), false
				}
			}
		}
		return "", true
	}
	if msg, ok := throughputOK(res); !ok {
		t.Logf("retrying after a suspect measurement: %s", msg)
		if msg, ok := throughputOK(runQuick(t, "policysched")); !ok {
			t.Fatal(msg)
		}
	}
}

func TestHierSchedQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	res := runQuick(t, "hiersched")
	rows := res.Tables[0].Rows
	if len(rows) != 8 {
		t.Fatalf("want 8 rows (backend x deployment sweep), got %d", len(rows))
	}
	for _, row := range rows {
		// The three correctness columns are the acceptance invariants of
		// the sharded hierarchical path, on every backend and deployment:
		// flow-local exactness (flow-hash sharding keeps a flow's backlog
		// on one engine), bounded reservation starvation (a due
		// reservation pulls its shard's merge rank to 0 and a
		// reservation-due crossing forces a head re-peek), and the
		// cross-shard share error bound.
		if row[5] != "0" {
			t.Fatalf("%s/%s: %s flow-order violations, want 0", row[0], row[1], row[5])
		}
		if row[6] != "0" {
			t.Fatalf("%s/%s: %s reservation violations, want 0", row[0], row[1], row[6])
		}
		shareErr, err := strconv.ParseFloat(row[7], 64)
		if err != nil {
			t.Fatalf("share-err %q not numeric: %v", row[7], err)
		}
		if shareErr > 0.10 {
			t.Fatalf("%s/%s: share error %.3f exceeds the 0.10 bound", row[0], row[1], shareErr)
		}
	}
}

func TestRegistryNamesStable(t *testing.T) {
	names := Names()
	if len(names) != len(Registry) {
		t.Fatal("Names() incomplete")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("Names() not sorted")
		}
	}
}
