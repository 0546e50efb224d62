package main

import (
	"fmt"
	"math"

	"eiffel/internal/pkt"
	"eiffel/internal/qdisc"
)

// checker is the full per-packet check the sink runs during verify laps:
// every flow's packets must leave in the order they were admitted, and no
// packet may leave earlier than its release time minus one shaper granule.
type checker struct {
	granule int64
	dense   []uint32          // last Seq seen, by flow id
	sparse  map[uint64]uint32 // same, for workloads whose flow ids are unbounded

	released, misordered, early int64
}

func newChecker(w *workloadDef) *checker {
	c := &checker{granule: w.granule}
	if w.flows > 0 {
		c.dense = make([]uint32, w.flows)
	} else {
		c.sparse = map[uint64]uint32{}
	}
	return c
}

func (c *checker) observe(ps []*pkt.Packet, now int64) {
	for _, p := range ps {
		var last uint32
		if c.sparse != nil {
			last = c.sparse[p.Flow]
			c.sparse[p.Flow] = p.Seq
		} else {
			last = c.dense[p.Flow]
			c.dense[p.Flow] = p.Seq
		}
		if p.Seq <= last {
			c.misordered++
		}
		if p.SendAt-c.granule > now {
			c.early++
		}
	}
	c.released += int64(len(ps))
}

// verifyReport is what a verify lap found. Every field but attempted and
// the notes is a failure count.
type verifyReport struct {
	attempted  int64
	lost       int64 // admitted but never released
	misordered int64
	early      int64
	inverted   int64 // shape_sched: rank inversions beyond VecSchedBound
	shareErr   int64 // hier_qos: 1 if the tenant share error exceeds 0.10
	resViol    int64 // hier_qos: reservations not met while backlogged
	note       string
}

func (r verifyReport) failures() int64 {
	return r.lost + r.misordered + r.early + r.inverted + r.shareErr + r.resViol
}

func (r verifyReport) String() string {
	return fmt.Sprintf("attempted=%d lost=%d misordered=%d early=%d inverted=%d share_err=%d res_viol=%d %s",
		r.attempted, r.lost, r.misordered, r.early, r.inverted, r.shareErr, r.resViol, r.note)
}

// load admits one window of the workload's stream into a fresh front with
// nobody consuming — the producer finishes before the consumer starts —
// and returns the front. stamp sets each packet's release time.
func load(w *workloadDef, seed int64, stamp func(i int, p *pkt.Packet)) (front, error) {
	f, err := w.newFront()
	if err != nil {
		return nil, err
	}
	st := w.newStream(seed)
	pool := pkt.NewPool(w.window)
	buf := make([]*pkt.Packet, enqRun)
	for i := 0; i < w.window; i += enqRun {
		for j := range buf {
			buf[j] = pool.Get()
		}
		st.fill(buf)
		for j, p := range buf {
			p.SendAt = 0
			stamp(i+j, p)
		}
		if w.batched {
			f.EnqueueBatch(buf, 0)
		} else {
			for _, p := range buf {
				f.Enqueue(p, 0)
			}
		}
	}
	return f, nil
}

// finish closes a hand-drained front and folds conservation into r.
func finish(w *workloadDef, f front, c *checker, r *verifyReport) {
	rep := f.Drain([]qdisc.EgressSink{&qdisc.CountingSink{}}, qdisc.ServeOptions{})
	r.attempted = int64(w.window)
	r.lost = int64(rep.Admitted) - c.released // anything Drain still found was never released to us
	r.misordered, r.early = c.misordered, c.early
}

// verifySpanNs is the range of release times a static verify lap spreads
// one window over.
const verifySpanNs = int64(20e6)

// verifyShaped checks the two shaped workloads on a virtual clock: release
// times are spread over verifySpanNs, the clock advances one shaper
// granule at a time, and at each step everything eligible is drained. No
// packet may come out early, every flow must come out in order, and on
// shape_sched the ranks drained within one step — one fully eligible
// drain of whatever has migrated — may invert by at most VecSchedBound.
func verifyShaped(w *workloadDef, seed int64) (verifyReport, error) {
	step := verifySpanNs / int64(w.window)
	f, err := load(w, seed, func(i int, p *pkt.Packet) { p.SendAt = int64(1e6) + int64(i)*step })
	if err != nil {
		return verifyReport{}, err
	}
	var r verifyReport
	c := newChecker(w)
	bound := w.rankBound
	if bound == 0 {
		bound = math.MaxUint64
	}
	out := make([]*pkt.Packet, 1024)
	var worst uint64
	for now := int64(0); now <= int64(1e6)+verifySpanNs+2*w.granule; now += w.granule {
		var runMax uint64
		for {
			k := f.GroupDequeueBatch(0, now, out)
			if k == 0 {
				break
			}
			c.observe(out[:k], now)
			for _, p := range out[:k] {
				if p.Rank >= runMax {
					runMax = p.Rank
				} else if d := runMax - p.Rank; d > bound {
					r.inverted++
					worst = max(worst, d)
				}
			}
		}
	}
	finish(w, f, c, &r)
	if w.rankBound > 0 {
		r.note = fmt.Sprintf("(inversion bound %d, worst beyond it %d)", bound, worst)
	}
	return r, nil
}

// verifyOrder checks per-flow order on a fully eligible drain (pfabric).
func verifyOrder(w *workloadDef, seed int64) (verifyReport, error) {
	f, err := load(w, seed, func(int, *pkt.Packet) {})
	if err != nil {
		return verifyReport{}, err
	}
	var r verifyReport
	c := newChecker(w)
	out := make([]*pkt.Packet, 1024)
	for {
		k := f.GroupDequeueBatch(0, 1, out)
		if k == 0 {
			break
		}
		c.observe(out[:k], 1)
	}
	finish(w, f, c, &r)
	return r, nil
}

// verifyLinkBps is the virtual link the hier_qos verify lap drains at. It
// is slow enough that tenant 0's weighted share (1/40 of the link) is half
// its 1 Gbps reservation, so the reservation check is not vacuous.
const verifyLinkBps = 20e9

// verifyHier loads every tenant equally, drains on a virtual clock paced at
// verifyLinkBps and, over the first half of the backlog (every tenant
// still backlogged), checks that each reservation was met and that service
// followed the weights: reserved tenants get the larger of their
// reservation and their weighted share, the rest split what is left by
// weight.
func verifyHier(w *workloadDef, seed int64) (verifyReport, error) {
	f, err := load(w, seed, func(int, *pkt.Packet) {})
	if err != nil {
		return verifyReport{}, err
	}
	var r verifyReport
	c := newChecker(w)
	const perPktNs = pktSize * 8 * 1e9 / verifyLinkBps
	out := make([]*pkt.Packet, 16)
	var served [hierTenants]float64
	half, total := w.window/2, 0
	now := 0.0
	for {
		k := f.GroupDequeueBatch(0, int64(now), out)
		if k == 0 {
			break
		}
		c.observe(out[:k], int64(now))
		for _, p := range out[:k] {
			if total < half {
				served[p.Class]++
			}
			total++
		}
		now += float64(k) * perPktNs
	}
	finish(w, f, c, &r)

	ideal := hierIdealShares(verifyLinkBps)
	elapsed := float64(half) * perPktNs / 1e9
	tv := 0.0
	sp := hierSpec()
	for t := range served {
		tv += math.Abs(served[t]/float64(half)-ideal[t]) / 2
		if res := float64(sp.Tenants[t].ResBps); res > 0 && served[t]*pktSize*8/elapsed < 0.9*res {
			r.resViol++
		}
	}
	if tv > 0.10 {
		r.shareErr = 1
	}
	r.note = fmt.Sprintf("(share error %.4f of 0.10 allowed)", tv)
	return r, nil
}

// hierIdealShares water-fills the link: a reserved tenant whose weighted
// share of the link falls short of its reservation is pinned at the
// reservation, and the remaining tenants split the remaining capacity by
// weight.
func hierIdealShares(linkBps float64) [hierTenants]float64 {
	sp := hierSpec()
	var share [hierTenants]float64
	pinned := [hierTenants]bool{}
	for {
		capacity, weight := linkBps, 0.0
		for t, tn := range sp.Tenants {
			if pinned[t] {
				capacity -= float64(tn.ResBps)
			} else {
				weight += float64(tn.Weight)
			}
		}
		again := false
		for t, tn := range sp.Tenants {
			if pinned[t] {
				continue
			}
			share[t] = capacity * float64(tn.Weight) / weight
			if share[t] < float64(tn.ResBps) {
				pinned[t], share[t], again = true, float64(tn.ResBps), true
			}
		}
		if !again {
			break
		}
	}
	for t := range share {
		share[t] /= linkBps
	}
	return share
}
