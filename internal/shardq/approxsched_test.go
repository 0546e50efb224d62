package shardq

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"eiffel/internal/bucket"
	"eiffel/internal/gradq"
	"eiffel/internal/queue"
)

// rankDist is one random rank distribution over a configured span.
type rankDist struct {
	name string
	gen  func(rng *rand.Rand, span uint64, round int) uint64
}

// rankDists are the distributions the inversion-bound properties sweep:
// the bound must hold for ANY rank pattern, so the sweep includes the
// dense/uniform case, sparse and skewed occupancy, a shifting cluster
// (moving-range style), and heavy duplicates.
var rankDists = []rankDist{
	{"uniform", func(rng *rand.Rand, span uint64, _ int) uint64 {
		return uint64(rng.Int63n(int64(span)))
	}},
	{"dense-low", func(rng *rand.Rand, span uint64, _ int) uint64 {
		if rng.Intn(16) == 0 {
			return span - 1 - uint64(rng.Int63n(int64(span/8+1)))
		}
		return uint64(rng.Int63n(int64(span/8 + 1)))
	}},
	{"bimodal", func(rng *rand.Rand, span uint64, _ int) uint64 {
		r := uint64(rng.Int63n(int64(span/16 + 1)))
		if rng.Intn(2) == 0 {
			return r
		}
		return span - 1 - r
	}},
	{"cluster", func(rng *rand.Rand, span uint64, round int) uint64 {
		width := span/32 + 1
		base := (uint64(round) * span / 7) % (span - width)
		return base + uint64(rng.Int63n(int64(width)))
	}},
	{"duplicates", func(rng *rand.Rand, span uint64, _ int) uint64 {
		return (uint64(rng.Intn(5)) * span / 5) % span
	}},
}

// drainInversionMax enqueues ranks, drains fully, and returns the largest
// rank-inversion magnitude of the drain sequence against the exact oracle
// (running-max accounting: every element is eligible, so exact order is
// nondecreasing rank).
func drainInversionMax(t *testing.T, s Scheduler, nodes []*bucket.Node, ranks []uint64, out []*bucket.Node) uint64 {
	t.Helper()
	s.EnqueueBatch(nodes, ranks)
	if s.Len() != len(nodes) {
		t.Fatalf("Len = %d after enqueueing %d", s.Len(), len(nodes))
	}
	var runMax, maxMag uint64
	popped := 0
	for {
		k := s.DequeueBatch(^uint64(0), out)
		if k == 0 {
			break
		}
		for _, n := range out[:k] {
			r := n.Rank()
			if popped > 0 && r < runMax {
				if mag := runMax - r; mag > maxMag {
					maxMag = mag
				}
			} else {
				runMax = r
			}
			popped++
		}
	}
	if popped != len(nodes) || s.Len() != 0 {
		t.Fatalf("drain popped %d of %d, Len = %d", popped, len(nodes), s.Len())
	}
	return maxMag
}

// TestGradSchedInversionBound is the containment property the sharded
// gradient backend's inversion bound rested on, kept for the estimator that
// outlives that backend: gradq's curvature estimate, which Approx and
// CApprox serve from. Over a shard's bucket geometry (vecGeometry), across
// rank distributions, seeds, geometries and alphas, every step of a full
// drain must find the true maximal marked physical bucket m inside the
// estimate's window
//
//	est-down <= m <= est+up,  down = floor(|u|+0.5)+2,  up = ceil(|u|^2)+2
//
// with |u| = 1/(2^(1/alpha)-1): the estimate is a weight-average of the
// marked set shifted by |u|, dragged below m by at most |u|*(1+|u|) under
// dense occupancy, and the +2 pads cover floating-point slop. The window
// plus one, times the bucket width, was the backend's rank-inversion bound.
// The exact configuration checks gradq's Theorem-1 index, which must name m
// itself.
func TestGradSchedInversionBound(t *testing.T) {
	configs := []struct {
		cfg   queue.Config
		alpha float64 // 16 is gradq's default at these bucket counts
		exact bool
	}{
		{queue.Config{NumBuckets: 64, Granularity: 8}, 16, false},
		{queue.Config{NumBuckets: 256, Granularity: 2048}, 16, false},
		{queue.Config{NumBuckets: 256, Granularity: 2048}, 4, false},
		{queue.Config{NumBuckets: 1024, Granularity: 1, Start: 1 << 20}, 8, false},
		{queue.Config{NumBuckets: 64, Granularity: 8}, 0, true},
	}
	for ci, c := range configs {
		nb, gran, _, base := vecGeometry(c.cfg)
		span := uint64(nb) * gran
		abs := 1 / (math.Pow(2, 1/c.alpha) - 1)
		down := min(int(math.Floor(abs+0.5))+2, nb-1)
		up := min(int(math.Ceil(abs*abs))+2, nb-1)
		for _, dist := range rankDists {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("cfg%d/%s/seed%d", ci, dist.name, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					occ := make([]int, nb) // elements per physical bucket
					var grad *gradq.Grad
					var exact *gradq.ExactIndex
					if c.exact {
						exact = gradq.NewExactIndex(nb)
					} else {
						grad = gradq.NewGrad(gradq.NewGradWeights(nb, c.alpha), func(p int) bool { return occ[p] > 0 })
					}
					for round := 0; round < 8; round++ {
						for i := 0; i < 1<<11; i++ {
							r := c.cfg.Start + dist.gen(rng, span, round)
							p := nb - 1 - int(r/gran-base)
							if occ[p]++; occ[p] == 1 {
								if exact != nil {
									exact.Set(p)
								} else {
									grad.Mark(p)
								}
							}
						}
						// Drain in exact order: the true maximum is the
						// highest physical bucket still occupied.
						for m := nb - 1; m >= 0; m-- {
							if occ[m] == 0 {
								continue
							}
							occ[m] = 0 // before Unmark: renormalisation rescans occupancy
							if exact != nil {
								if got := exact.Max(); got != m {
									t.Fatalf("round %d: Theorem-1 index names bucket %d, true max %d", round, got, m)
								}
								exact.Clear(m)
							} else {
								if est := grad.Estimate(); m < est-down || m > est+up {
									t.Fatalf("round %d: true max bucket %d outside estimate %d's window [-%d, +%d]",
										round, m, est, down, up)
								}
								grad.Unmark(m)
							}
						}
					}
				})
			}
		}
	}
}

// TestRIFOSchedInversionBound holds vecSched to VecSchedBound at the four
// coarse geometries the retired RIFO slot window (PAPERS.md) was checked
// at, each now a bucket width of the one store: inversions are pure bucket
// quantization, so the measured magnitude must stay under one bucket's
// width for every distribution. The spans match the window's, so a row
// reads as "W slots over span S" = "S/(2W) ranks per bucket".
func TestRIFOSchedInversionBound(t *testing.T) {
	configs := []queue.Config{
		{NumBuckets: 32, Granularity: 16384},              // 64 slots over 256x2048
		{NumBuckets: 8, Granularity: 65536},               // 16 slots over 256x2048
		{NumBuckets: 128, Granularity: 4},                 // 256 slots over 64x8
		{NumBuckets: 32, Granularity: 32, Start: 1 << 20}, // 64 slots over 1024x1
	}
	for ci, cfg := range configs {
		bound := VecSchedBound(cfg)
		span := 2 * uint64(cfg.NumBuckets) * cfg.Granularity
		for _, dist := range rankDists {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("cfg%d/%s/seed%d", ci, dist.name, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					s := NewVecSched(cfg)
					nodes := make([]*bucket.Node, 1<<11)
					for i := range nodes {
						nodes[i] = &bucket.Node{}
					}
					ranks := make([]uint64, len(nodes))
					out := make([]*bucket.Node, 128)
					for round := 0; round < 8; round++ {
						for i := range ranks {
							ranks[i] = cfg.Start + dist.gen(rng, span, round)
						}
						if got := drainInversionMax(t, s, nodes, ranks, out); got > bound {
							t.Fatalf("round %d: inversion magnitude %d exceeds analytic bound %d", round, got, bound)
						}
					}
				})
			}
		}
	}
}

// TestApproxSchedProgressRule pins the contract mergeRuns depends on: a
// DequeueBatch that returns 0 must leave the backend empty or with Min
// above the maxRank it was called with — for the vector store at a fine
// and a coarse bucket width over one span, where Min is quantized to the
// bucket and shares DequeueBatch's selection.
func TestApproxSchedProgressRule(t *testing.T) {
	const span = 1 << 20
	backends := map[string]Scheduler{
		"vec":    NewVecSched(queue.Config{NumBuckets: 256, Granularity: span / 512}),
		"coarse": NewVecSched(queue.Config{NumBuckets: 32, Granularity: span / 64}),
	}
	for name, s := range backends {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			nodes := make([]*bucket.Node, 512)
			ranks := make([]uint64, len(nodes))
			for i := range nodes {
				nodes[i] = &bucket.Node{}
				ranks[i] = uint64(rng.Int63n(int64(span)))
			}
			s.EnqueueBatch(nodes, ranks)
			out := make([]*bucket.Node, 64)
			for s.Len() > 0 {
				maxRank := uint64(rng.Int63n(int64(span)))
				if s.DequeueBatch(maxRank, out) == 0 {
					m, ok := s.Min()
					if !ok {
						t.Fatal("Min empty with elements queued")
					}
					if m <= maxRank {
						t.Fatalf("DequeueBatch(max=%d) returned 0 but Min=%d <= maxRank", maxRank, m)
					}
				}
			}
		})
	}
}

// runCounter wraps a shard's Scheduler and counts the non-empty
// DequeueBatch calls the cross-shard merge makes of it: each is one merge
// run, served from one shard up to the runner-up shard's Min.
type runCounter struct {
	Scheduler
	runs, pkts *int
}

func (r runCounter) DequeueBatch(maxRank uint64, out []*bucket.Node) int {
	k := r.Scheduler.DequeueBatch(maxRank, out)
	if k > 0 {
		*r.runs++
		*r.pkts += k
	}
	return k
}

// TestShapedFidelityDial turns the runtime's one fidelity dial, the
// scheduler store's bucket width, on a fixed stream shaped like the
// shape_sched workload: Zipf(1.1) picks over 4096 flows, each flow with
// one rank in 2^20, everything due, through an 8-shard Shaped. At every
// width the worst inversion of the merged drain stays within
// VecSchedBound, and the coarsest width does invert beyond a fine bucket;
// in exchange its merge runs are at least as long as the finest width's
// (fewer distinct bucket heads across shards, so a run stops at the
// runner-up less often).
func TestShapedFidelityDial(t *testing.T) {
	const flows, n, span = 4096, 1 << 14, uint64(1) << 20
	rng := rand.New(rand.NewSource(1))
	rank := make([]uint64, flows)
	for f := range rank {
		rank[f] = uint64(rng.Int63n(int64(span)))
	}
	z := rand.NewZipf(rng, 1.1, 1, flows-1)
	pick := make([]uint64, n)
	for i := range pick {
		pick[i] = z.Uint64()
	}
	widths := []uint64{128, 1024, 16384}
	mean := make([]float64, len(widths))
	for wi, w := range widths {
		cfg := queue.Config{NumBuckets: int(span / (2 * w)), Granularity: w}
		var runs, pkts int
		q := NewShaped(ShapedOptions{
			NumShards: 8,
			RingBits:  10,
			Shaper:    queue.Config{NumBuckets: 1 << 12, Granularity: 1},
			Sched:     cfg,
			Pair:      pairElem,
			SchedBackend: func(int) Scheduler {
				return runCounter{NewVecSched(cfg), &runs, &pkts}
			},
		})
		for _, f := range pick {
			e := newElem(0, rank[f])
			q.Enqueue(f, &e.timer, e.sendAt, e.rank)
		}
		out := make([]*bucket.Node, 64)
		var runMax, worst uint64
		got := 0
		for {
			k := q.GroupDequeueBatch(0, 1, ^uint64(0), out)
			if k == 0 {
				break
			}
			for _, nd := range out[:k] {
				r := nd.Data.(*elem).rank
				if got > 0 && r < runMax {
					worst = max(worst, runMax-r)
				} else {
					runMax = r
				}
				got++
			}
		}
		if got != n || q.Len() != 0 {
			t.Fatalf("width %d: drained %d of %d, Len = %d", w, got, n, q.Len())
		}
		if bound := VecSchedBound(cfg); worst > bound {
			t.Fatalf("width %d: worst inversion %d exceeds VecSchedBound %d", w, worst, bound)
		}
		mean[wi] = float64(pkts) / float64(runs)
		t.Logf("width %5d ranks: worst inversion %5d (bound %5d), %d merge runs, %.2f packets per run",
			w, worst, VecSchedBound(cfg), runs, mean[wi])
		if wi == len(widths)-1 && worst <= 127 {
			t.Fatalf("width %d: worst inversion %d, want the coarse width to show beyond 127", w, worst)
		}
	}
	if mean[len(mean)-1] < mean[0] {
		t.Fatalf("coarsest width's mean merge run %.2f is below the finest's %.2f", mean[len(mean)-1], mean[0])
	}
}
