package stats

import (
	"fmt"
	"math/bits"
	"strings"
)

// Admission aggregates bounded-admission accounting for a qdisc: how many
// packets were offered, admitted, and dropped, with drops attributed to
// fixed per-tenant buckets. The aggregate counters are bumped once per
// batch (two atomic adds on the hot path, not three per packet); the
// per-tenant buckets are bumped per dropped packet on the refusal path,
// which is off the fast path by construction. The accounting invariant
// the churn tests assert — offered == admitted + dropped — holds
// exactly under drop-tail, because every refused packet is either counted
// dropped here or handed back to the caller (backpressure), never both.
type Admission struct {
	offered  Counter
	admitted Counter
	dropped  Counter
	tenants  []Counter // drop counters indexed by tenant & (len-1)
}

// NewAdmission returns an accounting block with the given number of
// per-tenant drop buckets (rounded up to a power of two, minimum 1);
// tenants hash into buckets by low bits.
func NewAdmission(tenants int) *Admission {
	if tenants < 1 {
		tenants = 1
	}
	if tenants&(tenants-1) != 0 {
		tenants = 1 << bits.Len(uint(tenants))
	}
	return &Admission{tenants: make([]Counter, tenants)}
}

// Account records one admission batch: offered packets of which admitted
// were published and dropped were refused and discarded. Backpressured
// refusals (returned to the caller for retry) are accounted as neither
// admitted nor dropped — the caller re-offers them.
//
//eiffel:hotpath
func (a *Admission) Account(offered, admitted, dropped uint64) {
	if offered > 0 {
		a.offered.Add(offered)
	}
	if admitted > 0 {
		a.admitted.Add(admitted)
	}
	if dropped > 0 {
		a.dropped.Add(dropped)
	}
}

// DropTenant attributes one dropped packet to tenant's bucket. The
// aggregate drop count is maintained by Account; this only classifies.
//
//eiffel:hotpath
func (a *Admission) DropTenant(tenant int32) {
	a.tenants[int(uint32(tenant))&(len(a.tenants)-1)].Inc()
}

// Offered returns the total packets offered.
func (a *Admission) Offered() uint64 { return a.offered.Load() }

// Admitted returns the total packets admitted.
func (a *Admission) Admitted() uint64 { return a.admitted.Load() }

// Dropped returns the total packets dropped.
func (a *Admission) Dropped() uint64 { return a.dropped.Load() }

// TenantDrops returns tenant's drop-bucket count.
func (a *Admission) TenantDrops(tenant int32) uint64 {
	return a.tenants[int(uint32(tenant))&(len(a.tenants)-1)].Load()
}

// DropRatio returns dropped/offered (0 when nothing was offered).
func (a *Admission) DropRatio() float64 {
	off := a.offered.Load()
	if off == 0 {
		return 0
	}
	return float64(a.dropped.Load()) / float64(off)
}

// String renders the counters for experiment tables.
func (a *Admission) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered=%d admitted=%d dropped=%d drop-ratio=%.4f",
		a.offered.Load(), a.admitted.Load(), a.dropped.Load(), a.DropRatio())
	for i := range a.tenants {
		if n := a.tenants[i].Load(); n > 0 {
			fmt.Fprintf(&b, " t%d=%d", i, n)
		}
	}
	return b.String()
}
