package hclock

import (
	"eiffel/internal/bucket"
	"eiffel/internal/queue"
)

// This file is the reusable three-tag core of hClock, extracted from the
// single-threaded Scheduler so the sharded runtime can run one engine per
// shard. The engine arbitrates between TENANTS — tag-bearing scheduling
// entities — and owns nothing else: callers keep the packet storage (a
// flow FIFO, an in-tenant rank queue) and drive the engine through the
// pick/charge/requeue cycle:
//
//	h.Migrate(now)                 // once per clock value: release parked tenants
//	t, res := h.Pick(now, bound)   // two-phase hClock selection, detaches t
//	...pop one packet (and its size) from t's queue...
//	h.Charge(t, size, now)         // advance r/l/s tags (and the aggregate gate)
//	if backlogged { h.Requeue(t, now) } else { h.Idle(t) }
//
// Pick is the cycle's ONE index pass: at most one reservation-index peek,
// one share-index peek and one dequeue. It does not migrate — a Requeue
// that parks a tenant parks it beyond now, so nothing parked can release
// while the clock stands still, and a caller serving many picks at one
// clock value migrates once. The size charged is whatever the caller kept
// beside its queue entry; the engine never sees a packet.
//
// Between Pick and Requeue/Idle the tenant is attached to no index; the
// caller must complete the cycle before the next Pick. All methods are
// allocation-free after construction (the tag queues size their bucket
// arrays up front), which is what lets the sharded backend ride the
// //eiffel:hotpath contract.

// Tenant is one scheduling entity under a Hier engine: a traffic class
// with a reservation (minimum rate), a limit (maximum rate), and a
// proportional-share weight. Callers embed it (or point to it) next to
// their own queue state and recover that state from Self after Pick.
type Tenant struct {
	// ResBps is the effective reserved minimum rate (0 = no reservation),
	// after Init applied the engine's RateDiv renormalization.
	ResBps uint64
	// LimitBps is the effective rate cap (0 = unlimited), renormalized
	// like ResBps.
	LimitBps uint64
	// Weight is the proportional share weight (>= 1). Weights are
	// relative, so they are never renormalized.
	Weight uint64
	// Self is the caller's backpointer: Pick returns the Tenant, and the
	// caller finds its own per-tenant state here (a pointer, so storing
	// it never allocates).
	Self any

	rTag, lTag, sTag uint64
	rNode            bucket.Node
	sNode            bucket.Node
	lNode            bucket.Node

	active  bool
	limited bool
}

// Active reports whether the tenant is registered in the engine's indexes
// (or mid pick/requeue cycle).
//
//eiffel:hotpath
func (t *Tenant) Active() bool { return t.active }

// Hier is the reusable hClock engine: three priority-queue indexes over
// tenant tags (reservation clocks of ready tenants, share tags of ready
// tenants, limit clocks of parked tenants), the share-tag virtual time,
// and the optional aggregate output gate. The Backend selection picks the
// index implementation exactly as for Scheduler — binary heaps (the
// original hClock) or circular FFS queues (the Eiffel configuration).
type Hier struct {
	cfg Config

	readyR  queue.PQ // reservation tags of ready tenants with reservations
	readyS  queue.PQ // share tags of all ready tenants
	parked  queue.PQ // limit tags of tenants over their cap
	vnow    uint64   // share-tag virtual time
	nActive int
	hasRes  bool // some tenant was Init'ed with a reservation: readyR can be non-empty

	// pickedRes records whether the in-flight pick came from the
	// reservation phase. Service rendered under a reservation must not
	// count against the proportional share (mClock's decoupling: without
	// it a reservation holder's share tag inflates at its reservation
	// rate, and once contention ends the scheduler starves it until the
	// competitors' tags catch up), so Charge skips the share tag for a
	// reservation-phase pick.
	pickedRes bool

	aggNextFree uint64
}

// NewHier returns an empty engine. Config defaults apply as for New.
func NewHier(cfg Config) *Hier {
	if cfg.TagGranularityNs == 0 {
		cfg.TagGranularityNs = 2048
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 1 << 14
	}
	if cfg.RateDiv == 0 {
		cfg.RateDiv = 1
	}
	if cfg.ShareGranularity == 0 {
		cfg.ShareGranularity = cfg.TagGranularityNs * 64
	}
	mk := func(gran uint64) queue.PQ {
		qc := queue.Config{NumBuckets: cfg.Buckets, Granularity: gran}
		switch cfg.Backend {
		case BackendHeap:
			return queue.New(queue.KindBinaryHeap, qc)
		default:
			return queue.New(queue.KindCFFS, qc)
		}
	}
	return &Hier{
		cfg:    cfg,
		readyR: mk(cfg.TagGranularityNs),
		readyS: mk(cfg.ShareGranularity),
		parked: mk(cfg.TagGranularityNs),
	}
}

// Init prepares a tenant for this engine: rates are renormalized by the
// engine's RateDiv (a nonzero configured rate never renormalizes to zero
// — that would silently drop the reservation or open the cap), weight 0
// becomes 1, and the index nodes get their backpointers. Reservation must
// not exceed limit when both are set. Init must run before the tenant's
// first Activate and never again.
func (h *Hier) Init(t *Tenant, resBps, limitBps, weight uint64) {
	if weight == 0 {
		weight = 1
	}
	if limitBps > 0 && resBps > limitBps {
		panic("hclock: reservation exceeds limit")
	}
	if div := h.cfg.RateDiv; div > 1 {
		if resBps > 0 {
			if resBps /= div; resBps == 0 {
				resBps = 1
			}
		}
		if limitBps > 0 {
			if limitBps /= div; limitBps == 0 {
				limitBps = 1
			}
		}
	}
	t.ResBps, t.LimitBps, t.Weight = resBps, limitBps, weight
	h.hasRes = h.hasRes || resBps > 0
	t.rNode.Data = t
	t.sNode.Data = t
	t.lNode.Data = t
}

// Activate registers an idle tenant at the current clocks: no banked
// reservation or share credit across idle periods. The caller activates a
// tenant when its queue goes non-empty.
//
//eiffel:hotpath
func (h *Hier) Activate(t *Tenant, now int64) {
	tm := uint64(now)
	if t.rTag < tm {
		t.rTag = tm
	}
	if t.lTag < tm {
		t.lTag = tm
	}
	if t.sTag < h.vnow {
		t.sTag = h.vnow
	}
	t.active = true
	h.nActive++
	h.insert(t, now)
}

// insert places an active tenant into the ready or parked indexes
// according to its limit tag.
//
//eiffel:hotpath
func (h *Hier) insert(t *Tenant, now int64) {
	if t.LimitBps > 0 && t.lTag > uint64(now) {
		t.limited = true
		h.parked.Enqueue(&t.lNode, t.lTag)
		return
	}
	t.limited = false
	h.readyS.Enqueue(&t.sNode, t.sTag)
	if t.ResBps > 0 {
		h.readyR.Enqueue(&t.rNode, t.rTag)
	}
}

// Migrate moves tenants whose limit clock has arrived from parked to
// ready. Pick does NOT migrate: callers run this whenever their clock has
// moved, before picking or reading MinShare/DueReservation.
//
//eiffel:hotpath
func (h *Hier) Migrate(now int64) {
	for {
		r, ok := h.parked.PeekMin()
		if !ok || r > uint64(now) {
			return
		}
		n := h.parked.DequeueMin()
		t := n.Data.(*Tenant)
		t.limited = false
		h.readyS.Enqueue(&t.sNode, t.sTag)
		if t.ResBps > 0 {
			h.readyR.Enqueue(&t.rNode, t.rTag)
		}
	}
}

// PickResult is what Pick found.
type PickResult uint8

// Pick outcomes.
const (
	// Picked: the returned tenant is detached and must be charged and
	// requeued (or idled) before the next Pick.
	Picked PickResult = iota
	// PickBeyond: no reservation is due and the smallest ready share tag
	// lies beyond the caller's bound; nothing was detached.
	PickBeyond
	// PickNone: nothing is eligible — every active tenant is parked over
	// its limit, the aggregate gate is closed, or nothing is active.
	PickNone
)

// NoBound is the share bound of a caller that serves whatever hClock
// picks (the single-engine Scheduler).
const NoBound = ^uint64(0)

// Pick detaches and returns the tenant hClock serves next — the smallest
// reservation clock among due reservations (regardless of maxShare), else
// the smallest share tag among tenants under their limit provided its
// (quantized) tag is at most maxShare — and advances the share virtual
// time to a share-phase winner's tag. Tenants whose limit clock arrived
// must already have been migrated at now; see the cycle sketch above.
//
//eiffel:hotpath
func (h *Hier) Pick(now int64, maxShare uint64) (*Tenant, PickResult) {
	if h.nActive == 0 {
		return nil, PickNone
	}
	if h.cfg.AggregateLimitBps > 0 && h.aggNextFree > uint64(now) {
		return nil, PickNone
	}
	if h.hasRes {
		if r, ok := h.readyR.PeekMin(); ok && r <= uint64(now) {
			// Reservation phase: a reservation clock is due.
			t := h.readyR.DequeueMin().Data.(*Tenant)
			h.readyS.Remove(&t.sNode)
			h.pickedRes = true
			return t, Picked
		}
	}
	r, ok := h.readyS.PeekMin()
	if !ok {
		return nil, PickNone // every active tenant is over its limit
	}
	if r > maxShare {
		return nil, PickBeyond
	}
	// Share phase: proportional fairness among ready tenants. Only this
	// phase advances the share virtual time — a reservation pick is
	// outside the proportional schedule.
	t := h.readyS.DequeueMin().Data.(*Tenant)
	if t.ResBps > 0 {
		// Membership is static, not queried: insert and Migrate index a
		// ready reservation holder's rNode in readyR always. (Node.Queued()
		// would not do: the comparison heaps of BackendHeap never set the
		// bucket owner, so a Queued() guard would skip this removal and
		// leave a stale node in the index.)
		h.readyR.Remove(&t.rNode)
	}
	h.pickedRes = false
	if t.sTag > h.vnow {
		h.vnow = t.sTag
	}
	return t, Picked
}

// Charge advances the picked tenant's three tags for size bytes of
// service and moves the aggregate gate.
//
//eiffel:hotpath
func (h *Hier) Charge(t *Tenant, size uint64, now int64) {
	bits := size * 8
	if t.ResBps > 0 {
		t.rTag += bits * 1e9 / t.ResBps
	}
	if t.LimitBps > 0 {
		t.lTag += bits * 1e9 / t.LimitBps
	}
	if !h.pickedRes {
		t.sTag += size * sChargeScale / t.Weight
	}
	if h.cfg.AggregateLimitBps > 0 {
		// Bounded catch-up (64 KiB) so busy-poll jitter does not erode
		// the aggregate rate; the timestamp chain still caps the
		// long-run rate at the limit.
		start := h.aggNextFree
		burst := uint64(64<<10) * 8 * 1e9 / h.cfg.AggregateLimitBps
		if floor := uint64(now) - burst; uint64(now) > burst && start < floor {
			start = floor
		}
		h.aggNextFree = start + bits*1e9/h.cfg.AggregateLimitBps
	}
}

// Requeue re-registers a picked tenant that still has backlog: back into
// the ready indexes, or parked when the charge pushed it over its limit.
//
//eiffel:hotpath
func (h *Hier) Requeue(t *Tenant, now int64) { h.insert(t, now) }

// Idle retires a picked tenant whose queue drained. The tenant rejoins at
// the then-current clocks on its next Activate.
//
//eiffel:hotpath
func (h *Hier) Idle(t *Tenant) {
	t.active = false
	t.limited = false
	h.nActive--
}

// MinShare returns the (quantized) smallest share tag among ready
// tenants, ok=false when none is ready. Callers that merge several
// engines by virtual time (the sharded backend) read this as the engine's
// head rank; run Migrate first for a fresh view.
//
//eiffel:hotpath
func (h *Hier) MinShare() (uint64, bool) { return h.readyS.PeekMin() }

// DueReservation reports whether some ready tenant's reservation clock is
// due at now — the condition under which Pick serves the reservation
// phase regardless of share tags.
//
//eiffel:hotpath
func (h *Hier) DueReservation(now int64) bool {
	r, ok := h.readyR.PeekMin()
	return ok && r <= uint64(now)
}

// NextReservation returns the (quantized) earliest reservation clock
// among ready tenants, ok=false when no ready tenant holds a
// reservation. Clock-propagating owners read this to learn when a future
// clock advance will flip DueReservation — the reservation-due crossing
// that must trigger a head re-peek in a merged deployment.
//
//eiffel:hotpath
func (h *Hier) NextReservation() (uint64, bool) { return h.readyR.PeekMin() }

// NextEvent returns the earliest time a currently ineligible tenant
// becomes eligible (the parked set's head or the aggregate gate), for
// timer-driven callers. ok is false when no tenant is active or work is
// ready now.
func (h *Hier) NextEvent(now int64) (int64, bool) {
	if h.nActive == 0 {
		return 0, false
	}
	if h.readyS.Len() > 0 {
		if h.cfg.AggregateLimitBps > 0 && h.aggNextFree > uint64(now) {
			return int64(h.aggNextFree), true
		}
		return now, true
	}
	if r, ok := h.parked.PeekMin(); ok {
		return int64(r), true
	}
	return 0, false
}
