package stats

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "demo", Headers: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("3.142", "x")
	s := tab.String()
	if s == "" || len(tab.Rows) != 2 {
		t.Fatal("table rendering broken")
	}
}
