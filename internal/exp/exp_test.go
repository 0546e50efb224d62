package exp

import (
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
	// Approximate queue throughput should not degrade with higher
	// occupancy (more occupancy = fewer estimate misses). One attempt is a
	// single timing ratio, which CPU contention from packages testing in
	// parallel can halve on its own, so the shape fails only when every
	// attempt breaks it.
	const attempts = 3
	for i := 1; i <= attempts; i++ {
		res := runQuick(t, "fig17")
		lo := cell(t, res, 0, 0, 2)
		hi := cell(t, res, 0, len(res.Tables[0].Rows)-1, 2)
		t.Logf("attempt %d: approx rate %.2f -> %.2f with occupancy", i, lo, hi)
		if hi >= lo*0.5 {
			return
		}
	}
	t.Fatalf("approx rate fell below half with occupancy on all %d attempts", attempts)
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
	for _, id := range []string{"ablation-hier-vs-flat", "ablation-alpha"} {
		runQuick(t, id)
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
