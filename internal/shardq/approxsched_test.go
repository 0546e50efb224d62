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
// CApprox (and through CApprox, hclock's approximate shards) serve from.
// Over a shard's bucket geometry (vecGeometry), across rank distributions,
// seeds, geometries and alphas, every step of a full drain must find the
// true maximal marked physical bucket m inside the estimate's window
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

// TestRIFOSchedInversionBound is the same property for the fixed-window
// backend: inversions are pure slot quantization, so the measured
// magnitude must stay under one slot's width (RIFOSchedBound) for every
// distribution and window size.
func TestRIFOSchedInversionBound(t *testing.T) {
	configs := []struct {
		cfg   queue.Config
		slots int
	}{
		{queue.Config{NumBuckets: 256, Granularity: 2048}, 0},
		{queue.Config{NumBuckets: 256, Granularity: 2048}, 16},
		{queue.Config{NumBuckets: 64, Granularity: 8}, 256},
		{queue.Config{NumBuckets: 1024, Granularity: 1, Start: 1 << 20}, 64},
	}
	for ci, c := range configs {
		bound := RIFOSchedBound(c.cfg, c.slots)
		span := 2 * uint64(c.cfg.NumBuckets) * c.cfg.Granularity
		for _, dist := range rankDists {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("cfg%d/%s/seed%d", ci, dist.name, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					s := NewRIFOSched(c.cfg, c.slots)
					nodes := make([]*bucket.Node, 1<<11)
					for i := range nodes {
						nodes[i] = &bucket.Node{}
					}
					ranks := make([]uint64, len(nodes))
					out := make([]*bucket.Node, 128)
					for round := 0; round < 8; round++ {
						for i := range ranks {
							ranks[i] = c.cfg.Start + dist.gen(rng, span, round)
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
// above the maxRank it was called with — for the exact vector store and
// the approximate RIFO window, whose Min is quantized and shares
// DequeueBatch's selection.
func TestApproxSchedProgressRule(t *testing.T) {
	cfg := queue.Config{NumBuckets: 256, Granularity: 2048}
	backends := map[string]Scheduler{
		"vec":  NewVecSched(cfg),
		"rifo": NewRIFOSched(cfg, 64),
	}
	span := 2 * uint64(cfg.NumBuckets) * cfg.Granularity
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
