// Package workload generates the traffic the paper's experiments run on:
// the web-search flow-size distribution (from the DCTCP measurement study,
// used by pFabric and by Figure 19), Poisson flow arrivals at a target
// load, and an open world of short-lived flows for the flow-churn tests.
package workload

import (
	"math"
	"math/rand"
)

// WebSearchCDF approximates the DCTCP paper's web-search flow-size
// distribution: heavy-tailed, with ~50% of flows under 100 KB while the
// bulk of bytes comes from multi-megabyte flows. Sizes are in bytes. The
// exact measurement points are not public; this piecewise log-linear
// approximation preserves the published shape (median ~70 KB, mean ~1.6 MB,
// ~95th percentile ~10 MB) and stands in for the unpublished points.
var WebSearchCDF = []SizePoint{
	{1_000, 0.00},
	{5_000, 0.10},
	{10_000, 0.18},
	{30_000, 0.35},
	{70_000, 0.50},
	{150_000, 0.62},
	{400_000, 0.73},
	{1_000_000, 0.82},
	{3_000_000, 0.90},
	{10_000_000, 0.95},
	{30_000_000, 1.00},
}

// SizePoint is one point of a flow-size CDF.
type SizePoint struct {
	Bytes uint64
	P     float64
}

// SizeDist samples flow sizes from a piecewise log-linear CDF.
type SizeDist struct {
	points []SizePoint
	mean   float64
}

// NewSizeDist builds a sampler from CDF points (monotone in both fields,
// ending at P=1).
func NewSizeDist(points []SizePoint) *SizeDist {
	if len(points) < 2 || points[len(points)-1].P != 1 {
		panic("workload: size CDF must have >=2 points and end at P=1")
	}
	d := &SizeDist{points: points}
	// Numerical mean via fine quantile integration.
	const steps = 10000
	sum := 0.0
	for i := 0; i < steps; i++ {
		q := (float64(i) + 0.5) / steps
		sum += float64(d.Quantile(q))
	}
	d.mean = sum / steps
	return d
}

// Mean returns the distribution mean in bytes.
func (d *SizeDist) Mean() float64 { return d.mean }

// Quantile inverts the CDF with log-linear interpolation.
func (d *SizeDist) Quantile(q float64) uint64 {
	pts := d.points
	if q <= pts[0].P {
		return pts[0].Bytes
	}
	for i := 1; i < len(pts); i++ {
		if q <= pts[i].P {
			lo, hi := pts[i-1], pts[i]
			frac := (q - lo.P) / (hi.P - lo.P)
			logSize := math.Log(float64(lo.Bytes)) + frac*(math.Log(float64(hi.Bytes))-math.Log(float64(lo.Bytes)))
			return uint64(math.Exp(logSize))
		}
	}
	return pts[len(pts)-1].Bytes
}

// Sample draws a flow size.
func (d *SizeDist) Sample(rng *rand.Rand) uint64 { return d.Quantile(rng.Float64()) }

// PoissonArrivals generates exponential inter-arrival gaps for a target
// load: load fraction rho of linkBps, with flows of meanFlowBytes.
type PoissonArrivals struct {
	rng    *rand.Rand
	meanNs float64
}

// NewPoissonArrivals returns an arrival process whose average offered load
// is rho*linkBps given the flow-size mean.
func NewPoissonArrivals(rng *rand.Rand, rho float64, linkBps uint64, meanFlowBytes float64) *PoissonArrivals {
	if rho <= 0 || linkBps == 0 || meanFlowBytes <= 0 {
		panic("workload: invalid Poisson arrival parameters")
	}
	flowsPerSec := rho * float64(linkBps) / 8 / meanFlowBytes
	return &PoissonArrivals{rng: rng, meanNs: 1e9 / flowsPerSec}
}

// NextGap returns the ns until the next flow arrival.
func (p *PoissonArrivals) NextGap() int64 {
	g := p.rng.ExpFloat64() * p.meanNs
	if g < 1 {
		g = 1
	}
	return int64(g)
}

// ChurnGen drives the flow-churn experiments: an open world of short-
// lived flows, the regime the paper indicts kernel FQ's flow garbage
// collection for (§5.1, past ~40k flows). A window of live flow slots is
// concurrently active; each packet draw picks a slot by Zipf popularity
// (a few hot slots, a long tail — datacenter fan-out), and a flow expires
// once its drawn packet budget is spent, its slot re-seeded with a fresh,
// never-reused id. Globally unique ids keep per-flow order checks valid
// across expiry, and the cumulative-flow counter is the experiment's
// x-axis.
type ChurnGen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	slots   []churnSlot
	base    uint64
	nextID  uint64
	cum     uint64
	maxPkts int
}

// churnSlot is one live flow: its id, its remaining packet budget, and
// the per-flow sequence stamp of its next packet.
type churnSlot struct {
	id   uint64
	left int
	seq  uint32
}

// NewChurnGen returns a churn generator with live concurrent flow slots.
// Each flow's packet budget is uniform in [1, maxPkts]; slot popularity is
// Zipf with skew s (must be > 1; ~1.2 is a typical fan-out skew). idBase
// tags this generator's id space so several generators (one per producer
// stream) never collide: ids are idBase<<40 | counter.
func NewChurnGen(rng *rand.Rand, live, maxPkts int, s float64, idBase uint64) *ChurnGen {
	if live <= 0 || maxPkts <= 0 {
		panic("workload: churn needs live flow slots and a packet budget")
	}
	g := &ChurnGen{
		rng:     rng,
		zipf:    rand.NewZipf(rng, s, 1, uint64(live-1)),
		slots:   make([]churnSlot, live),
		base:    idBase << 40,
		maxPkts: maxPkts,
	}
	for i := range g.slots {
		g.reseed(&g.slots[i])
	}
	return g
}

// Next draws one packet: the flow it belongs to, its 0-based position in
// that flow, and the flow's remaining packet budget after it (0 = this
// packet expires the flow; the slot has already been re-seeded on return).
func (g *ChurnGen) Next() (flow uint64, seq uint32, remaining int) {
	sl := &g.slots[g.zipf.Uint64()]
	flow, seq = sl.id, sl.seq
	sl.seq++
	sl.left--
	remaining = sl.left
	if remaining == 0 {
		g.reseed(sl)
	}
	return flow, seq, remaining
}

func (g *ChurnGen) reseed(sl *churnSlot) {
	g.cum++
	g.nextID++
	*sl = churnSlot{id: g.base | g.nextID, left: 1 + g.rng.Intn(g.maxPkts)}
}

// CumulativeFlows returns how many flows were ever started (live slots
// included).
func (g *ChurnGen) CumulativeFlows() uint64 { return g.cum }

// LiveFlows returns the concurrent flow-window size.
func (g *ChurnGen) LiveFlows() int { return len(g.slots) }
