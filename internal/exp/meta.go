package exp

import (
	"fmt"
	"sort"

	"eiffel/internal/queue"
	"eiffel/internal/stats"
)

// Table1 prints the paper's system-comparison matrix for the
// implementations in this repository. The rows are asserted by capability
// tests in exp_test.go, so the table reflects what the code actually does
// rather than what a comment claims.
func Table1(Options) *Result {
	res := &Result{ID: "table1"}
	t := &stats.Table{
		Title: "Table 1 — scheduling systems implemented in this repository",
		Headers: []string{
			"System", "Efficiency", "Unit", "WorkConserving", "Shaping", "Programmable",
		},
	}
	t.AddRow("FQ/pacing qdisc", "O(log n)", "Flows", "No", "Yes", "No")
	t.AddRow("hClock (heap)", "O(log n)", "Flows", "Yes", "Yes", "No")
	t.AddRow("Carousel (wheel)", "O(1)", "Packets", "No", "Yes", "No")
	t.AddRow("PIFO model", "O(1)", "Packets", "Yes", "Yes", "On enq")
	t.AddRow("Eiffel", "O(1)", "Packets & Flows", "Yes", "Yes", "On enq/deq")
	res.Tables = append(res.Tables, t)
	return res
}

// Figure20 exercises the decision-tree guide on the paper's own examples
// and prints the recommendation each receives.
func Figure20(Options) *Result {
	res := &Result{ID: "fig20"}
	t := &stats.Table{
		Title:   "Figure 20 — queue choice for representative policies",
		Headers: []string{"policy", "moving range", "levels", "uniform", "choose"},
	}
	cases := []struct {
		name string
		c    queue.Characteristics
	}{
		{"802.1Q strict priority (8 levels)", queue.Characteristics{PriorityLevels: 8}},
		{"pFabric remaining size", queue.Characteristics{PriorityLevels: 100000}},
		{"per-flow rate limiting (Carousel)", queue.Characteristics{MovingRange: true, PriorityLevels: 20000}},
		{"LSTF / hClock tags", queue.Characteristics{MovingRange: true, PriorityLevels: 20000, UniformOccupancy: true}},
	}
	for _, c := range cases {
		t.AddRow(c.name,
			fmt.Sprintf("%v", c.c.MovingRange),
			fmt.Sprintf("%d", c.c.PriorityLevels),
			fmt.Sprintf("%v", c.c.UniformOccupancy),
			queue.Choose(c.c).String())
	}
	res.Tables = append(res.Tables, t)
	return res
}

// Runner is a named experiment entry point.
type Runner func(Options) *Result

// Registry maps experiment ids to runners.
var Registry = map[string]Runner{
	"table1":                Table1,
	"fig9":                  Figure9,
	"fig10":                 Figure10,
	"fig12":                 Figure12,
	"fig13":                 Figure13,
	"fig15":                 Figure15,
	"fig16":                 Figure16,
	"fig17":                 Figure17,
	"fig18":                 Figure18,
	"fig19":                 Figure19,
	"fig20":                 Figure20,
	"ablation-hier-vs-flat": AblationHierVsFlat,
	"ablation-alpha":        AblationAlpha,
}

// Names returns registry keys in stable order.
func Names() []string {
	names := make([]string, 0, len(Registry))
	for k := range Registry {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
