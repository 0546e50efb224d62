package qdisc

import (
	"eiffel/internal/pkt"
	"eiffel/internal/shardq"
	"eiffel/internal/stats"
)

// This file is the qdisc-level admission policy hook over the runtime's
// bounded-admission surface (shardq.Options.ShardBound): what to DO with
// a packet the bound refuses. Two policies, the classic pair:
//
//   - drop-tail: the qdisc discards the refused packet and accounts it —
//     aggregate and per-tenant — in a stats.Admission block. The caller
//     gets the refusals back too (it owns the packet memory), but they
//     are already counted as dropped and must not be re-offered.
//   - backpressure: the refusals come back to the caller uncounted; the
//     caller owns the retry (or the drop, which it then accounts itself).
//
// Either way EnqueueBatchAdmit never blocks and never spills past the
// bound, and the invariant offered == admitted + dropped + backpressured
// holds exactly per call.

// AdmitPolicy selects the qdisc-level overload behavior for packets a
// shard occupancy bound refuses.
type AdmitPolicy uint8

const (
	// AdmitDropTail discards refused packets, counting them dropped
	// (aggregate and per-tenant) in the qdisc's Admission block.
	AdmitDropTail AdmitPolicy = iota
	// AdmitBackpressure hands refused packets back to the caller without
	// counting them dropped; the caller owns the retry.
	AdmitBackpressure
)

// String names the policy.
func (p AdmitPolicy) String() string {
	if p == AdmitBackpressure {
		return "backpressure"
	}
	return "drop-tail"
}

// admitState is the per-qdisc admission configuration and accounting the
// three sharded qdiscs embed.
type admitState struct {
	pol AdmitPolicy
	adm *stats.Admission
}

func newAdmitState(pol AdmitPolicy, tenants int) admitState {
	return admitState{pol: pol, adm: stats.NewAdmission(tenants)}
}

// Admission returns the admission accounting block.
func (a *admitState) Admission() *stats.Admission { return a.adm }

// AdmitPolicy returns the configured overload policy.
func (a *admitState) AdmitPolicy() AdmitPolicy { return a.pol }

// settle converts a runtime admission outcome into the qdisc contract:
// refused nodes become packets appended to rej (via fromNode — SchedNode
// or TimerNode depending on which handle the qdisc publishes), and the
// batch is accounted under the configured policy.
//
//eiffel:hotpath
func (a *admitState) settle(res shardq.Admit, offered int,
	fromNode func(*shardq.Node) *pkt.Packet, rej []*pkt.Packet) (int, []*pkt.Packet) {
	nrej := len(res.Rejected)
	if nrej == 0 {
		a.adm.Account(uint64(offered), uint64(res.Admitted), 0)
		return res.Admitted, rej
	}
	if a.pol == AdmitDropTail {
		a.adm.Account(uint64(offered), uint64(res.Admitted), uint64(nrej))
		for _, n := range res.Rejected {
			p := fromNode(n)
			a.adm.DropTenant(p.Class)
			rej = append(rej, p)
		}
	} else {
		a.adm.Account(uint64(offered), uint64(res.Admitted), 0)
		for _, n := range res.Rejected {
			rej = append(rej, fromNode(n))
		}
	}
	return res.Admitted, rej
}
