package exp

import (
	"fmt"
	"math/rand"

	"eiffel/internal/bucket"
	"eiffel/internal/gradq"
	"eiffel/internal/queue"
	"eiffel/internal/stats"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// microKinds are the three §5.2 contenders.
var microKinds = []queue.Kind{queue.KindApprox, queue.KindCFFS, queue.KindBH}

// Figure16 regenerates "effect of number of packets per bucket on queue
// performance" for 5k and 10k buckets: Mpps for Approx, cFFS, BH at 1..8
// packets per bucket.
func Figure16(o Options) *Result {
	res := &Result{ID: "fig16"}
	budget := o.budget()
	for _, buckets := range []int{5000, 10000} {
		t := &stats.Table{
			Title:   fmt.Sprintf("Figure 16 — rate (Mpps) vs packets/bucket, %dk buckets", buckets/1000),
			Headers: []string{"pkts/bucket", "Approx", "cFFS", "BH"},
		}
		for _, ppb := range []int{1, 2, 4, 8} {
			row := []string{fmt.Sprintf("%d", ppb)}
			for _, k := range microKinds {
				mpps := drainRate(mkKind(k, buckets), ppb*buckets, uniformFill(buckets), budget)
				row = append(row, fmt.Sprintf("%.2f", mpps))
			}
			t.AddRow(row...)
		}
		res.Tables = append(res.Tables, t)
	}
	return res
}

// Figure17 regenerates "effect of queue occupancy on performance": Mpps at
// occupancy fractions 0.7..0.99 for 5k and 10k buckets.
func Figure17(o Options) *Result {
	res := &Result{ID: "fig17"}
	budget := o.budget()
	for _, buckets := range []int{5000, 10000} {
		t := &stats.Table{
			Title:   fmt.Sprintf("Figure 17 — rate (Mpps) vs occupancy, %dk buckets", buckets/1000),
			Headers: []string{"occupancy", "BH", "Approx", "cFFS"},
		}
		for _, frac := range []float64{0.7, 0.8, 0.9, 0.99} {
			occupied := int(frac * float64(buckets))
			fill := fractionFill(buckets, frac, o.Seed+int64(buckets))
			row := []string{fmt.Sprintf("%.2f", frac)}
			for _, k := range []queue.Kind{queue.KindBH, queue.KindApprox, queue.KindCFFS} {
				mpps := drainRate(mkKind(k, buckets), occupied, fill, budget)
				row = append(row, fmt.Sprintf("%.2f", mpps))
			}
			t.AddRow(row...)
		}
		res.Tables = append(res.Tables, t)
	}
	return res
}

// Figure18 regenerates "effect of empty buckets on the error of fetching
// the minimum element": average selection error of the instrumented
// approximate queue vs occupancy.
func Figure18(o Options) *Result {
	res := &Result{ID: "fig18"}
	t := &stats.Table{
		Title:   "Figure 18 — approximate queue selection error vs occupancy",
		Headers: []string{"occupancy", "avgErr(5k)", "maxErr(5k)", "avgErr(10k)", "maxErr(10k)"},
	}
	rounds := 20
	if o.Quick {
		rounds = 5
	}
	for _, frac := range []float64{0.7, 0.8, 0.9, 0.99} {
		row := []string{fmt.Sprintf("%.2f", frac)}
		for _, buckets := range []int{5000, 10000} {
			q := gradq.NewApprox(gradq.ApproxOptions{
				NumBuckets:  buckets,
				Granularity: 1,
				Instrument:  true,
			})
			occupied := int(frac * float64(buckets))
			fill := fractionFill(buckets, frac, o.Seed+int64(buckets))
			nodes := make([]*bucket.Node, occupied)
			for i := range nodes {
				nodes[i] = &bucket.Node{}
			}
			for r := 0; r < rounds; r++ {
				for i, n := range nodes {
					q.Enqueue(n, fill(i))
				}
				for q.DequeueMin() != nil {
				}
			}
			s := q.Stats()
			row = append(row, fmt.Sprintf("%.2f", s.AvgSelectionError),
				fmt.Sprintf("%d", s.MaxSelectionError))
		}
		t.AddRow(row...)
	}
	res.Tables = append(res.Tables, t)
	return res
}

// AblationHierVsFlat compares the hierarchical FFS index against the flat
// sequential-word scan across bucket counts — the §3.1.1 motivation for
// the hierarchy.
func AblationHierVsFlat(o Options) *Result {
	res := &Result{ID: "ablation-hier-vs-flat"}
	t := &stats.Table{
		Title:   "Ablation — hierarchical vs flat FFS index (Mpps, sparse occupancy)",
		Headers: []string{"buckets", "FFS-hier", "FFS-flat"},
	}
	budget := o.budget()
	for _, buckets := range []int{1 << 10, 1 << 14, 1 << 17} {
		// Sparse occupancy maximizes the flat scan's word-walking cost.
		occupied := buckets / 64
		if occupied < 1 {
			occupied = 1
		}
		fill := fractionFill(buckets, float64(occupied)/float64(buckets), o.Seed)
		h := drainRate(mkKind(queue.KindFFS, buckets), occupied, fill, budget)
		f := drainRate(mkKind(queue.KindFFSFlat, buckets), occupied, fill, budget)
		t.AddRow(fmt.Sprintf("%d", buckets), fmt.Sprintf("%.2f", h), fmt.Sprintf("%.2f", f))
	}
	res.Tables = append(res.Tables, t)
	return res
}

// AblationAlpha sweeps the approximate queue's alpha: estimate cost vs
// selection error (the accuracy/efficiency dial of §3.1.2).
func AblationAlpha(o Options) *Result {
	res := &Result{ID: "ablation-alpha"}
	t := &stats.Table{
		Title:   "Ablation — approximate queue alpha sweep (10k buckets, 0.9 occupancy)",
		Headers: []string{"alpha", "Mpps", "avg sel err", "search steps/lookup"},
	}
	const buckets = 10000
	budget := o.budget()
	fill := fractionFill(buckets, 0.9, o.Seed)
	occupied := int(0.9 * buckets)
	for _, alpha := range []float64{12, 16, 24, 48} {
		mk := func() microQueue {
			return gradq.NewApprox(gradq.ApproxOptions{NumBuckets: buckets, Granularity: 1, Alpha: alpha})
		}
		mpps := drainRate(mk, occupied, fill, budget)

		q := gradq.NewApprox(gradq.ApproxOptions{NumBuckets: buckets, Granularity: 1, Alpha: alpha, Instrument: true})
		nodes := make([]*bucket.Node, occupied)
		for i := range nodes {
			nodes[i] = &bucket.Node{}
			q.Enqueue(nodes[i], fill(i))
		}
		for q.DequeueMin() != nil {
		}
		s := q.Stats()
		t.AddRow(fmt.Sprintf("%.0f", alpha), fmt.Sprintf("%.2f", mpps),
			fmt.Sprintf("%.2f", s.AvgSelectionError),
			fmt.Sprintf("%.2f", float64(s.SearchSteps)/float64(s.Lookups)))
	}
	res.Tables = append(res.Tables, t)
	return res
}
