package workload

import (
	"math/rand"
	"testing"
)

func TestWebSearchDistShape(t *testing.T) {
	d := NewSizeDist(WebSearchCDF)
	// Median around 70 KB, heavy tail: mean well above median.
	med := d.Quantile(0.5)
	if med < 30_000 || med > 150_000 {
		t.Fatalf("median = %d, want ~70KB", med)
	}
	if d.Mean() < float64(med)*3 {
		t.Fatalf("mean %v should be far above median %d (heavy tail)", d.Mean(), med)
	}
	if d.Quantile(0.95) < 5_000_000 {
		t.Fatalf("Q95 = %d, want multi-MB tail", d.Quantile(0.95))
	}
}

func TestSizeDistSamplingMatchesQuantiles(t *testing.T) {
	d := NewSizeDist(WebSearchCDF)
	rng := rand.New(rand.NewSource(1))
	small := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if d.Sample(rng) <= 100_000 {
			small++
		}
	}
	frac := float64(small) / n
	// CDF says ~55% of flows are <= 100 KB.
	if frac < 0.45 || frac < 0.3 || frac > 0.7 {
		t.Fatalf("fraction <=100KB = %v", frac)
	}
}

func TestSizeDistMonotone(t *testing.T) {
	d := NewSizeDist(WebSearchCDF)
	last := uint64(0)
	for q := 0.01; q < 1.0; q += 0.01 {
		s := d.Quantile(q)
		if s < last {
			t.Fatalf("quantile not monotone at %v", q)
		}
		last = s
	}
}

func TestPoissonArrivalRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// load 0.5 of 10G with 1MB mean flows -> ~625 flows/s -> 1.6ms gaps.
	pa := NewPoissonArrivals(rng, 0.5, 10_000_000_000, 1_000_000)
	var total int64
	const n = 50000
	for i := 0; i < n; i++ {
		total += pa.NextGap()
	}
	meanGap := float64(total) / n
	want := 1.6e6 // ns
	if meanGap < want*0.9 || meanGap > want*1.1 {
		t.Fatalf("mean gap = %v ns, want ~%v", meanGap, want)
	}
}
