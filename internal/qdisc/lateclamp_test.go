package qdisc

import (
	"testing"

	"eiffel/internal/hclock"
	"eiffel/internal/pifo"
	"eiffel/internal/pkt"
	"eiffel/internal/policy"
	"eiffel/internal/queue"
)

// timedUser is one timed user of the moving window (ffsq.Window) as
// TestLateClamp drives it: hold element id until at, say when service is
// next needed, and hand out what is due.
type timedUser struct {
	park func(id int, at int64) // admitted at clock 0
	next func(now int64) (int64, bool)
	pop  func(now int64) (id int, ok bool)
}

// qdiscUser drives a Qdisc: element 1 is a flow of its own, 2 and 3 are
// consecutive packets of a second flow.
func qdiscUser(q Qdisc) timedUser {
	pool := pkt.NewPool(4)
	return timedUser{
		park: func(id int, at int64) {
			p := pool.Get()
			p.Flow, p.Seq, p.SendAt, p.Size, p.Rank = uint64(min(id, 2)), uint32(id), at, 1500, 7
			q.Enqueue(p, 0)
		},
		next: q.NextTimer,
		pop: func(now int64) (int, bool) {
			if p := q.Dequeue(now); p != nil {
				return int(p.Seq), true
			}
			return 0, false
		},
	}
}

// treeUser parks one time-gated leaf per element in a pifo.Tree's shaper.
func treeUser() timedUser {
	cfg := queue.Config{NumBuckets: 64, Granularity: 64}
	tr := pifo.NewTree(pifo.TreeOptions{
		RootRanker: policy.StrictChild{}, RootQueue: cfg,
		ShaperBuckets: cfg.NumBuckets, ShaperGranularity: cfg.Granularity,
	})
	pool := pkt.NewPool(4)
	return timedUser{
		park: func(id int, at int64) {
			p := pool.Get()
			p.Seq, p.SendAt, p.Size = uint32(id), at, 1500
			tr.Enqueue(tr.NewTimeGatedLeaf(nil, pifo.ClassOptions{Queue: cfg}), p, 0)
		},
		next: func(int64) (int64, bool) { return tr.NextEvent() },
		pop: func(now int64) (int, bool) {
			if p := tr.Dequeue(now); p != nil {
				return int(p.Seq), true
			}
			return 0, false
		},
	}
}

// hierUser parks one limited tenant per element in an hclock.Hier: at 1
// Gbps a charge of at/8 bytes puts the tenant's limit clock at at.
func hierUser() timedUser {
	h := hclock.NewHier(hclock.Config{Buckets: 64, TagGranularityNs: 64})
	ids := [4]int{0, 1, 2, 3}
	return timedUser{
		park: func(id int, at int64) {
			t := &hclock.Tenant{Self: &ids[id]}
			h.Init(t, 0, 1e9, 1)
			h.Activate(t, 0)
			if picked, res := h.Pick(0, hclock.NoBound); res != hclock.Picked || picked != t {
				panic("hierUser: the tenant just activated is the only ready one")
			}
			h.Charge(t, uint64(at)/8, 0)
			h.Requeue(t, 0)
		},
		next: h.NextEvent,
		pop: func(now int64) (int, bool) {
			h.Migrate(now)
			t, res := h.Pick(now, hclock.NoBound)
			if res != hclock.Picked {
				return 0, false
			}
			h.Idle(t)
			return *t.Self.(*int), true
		},
	}
}

// TestLateClamp: a release time that arrives behind a far one is not held
// for the far one's sake, for every timed user of the moving window. Two
// ways a window used to get ahead of the clock — a peek at the far element
// rotated it there, and an idle one was anchored at a far arrival — after
// which the earlier element was clamped to the window's first bucket, half
// a horizon late or more; behind a shaper stage a successor of its flow
// that arrived already due then overtook it. Each user must say to wake no
// later than the earliest element it still holds, and release each element
// at its own time, a flow's in order. All windows are 2 x 64 buckets of
// 64 ns; times are multiples of 8 so that hClock's byte charges hit them.
func TestLateClamp(t *testing.T) {
	const buckets, horizon = 64, 8192
	shaped := ShapedShardedOptions{Shards: 1, ShaperBuckets: buckets, HorizonNs: horizon}
	users := []struct {
		name string
		mk   func() timedUser
	}{
		{"NewEiffel", func() timedUser { return qdiscUser(NewEiffel(buckets, horizon, 0)) }},
		{"NewLocked(NewEiffel)", func() timedUser { return qdiscUser(NewLocked(NewEiffel(buckets, horizon, 0))) }},
		{"ShapedTree", func() timedUser { return qdiscUser(NewShapedTree(shaped)) }},
		{"pifo.Tree shaper", treeUser},
		{"hclock.Hier parked", hierUser},
		{"NewMultiSharded", func() timedUser {
			return qdiscUser(serial(NewMultiSharded(MultiShardedOptions{ShardedOptions: ShardedOptions{
				Shards: 1, Buckets: buckets, HorizonNs: horizon,
			}})))
		}},
		{"NewMultiShaped", func() timedUser {
			return qdiscUser(serial(NewMultiShaped(MultiShapedOptions{ShapedShardedOptions: shaped})))
		}},
	}
	sequences := []struct {
		name string
		far  int64
		peek bool // between the far arrival and the near one
	}{
		{"peek-rotation", 5000, true},
		{"idle-anchor", 20000, false},
	}
	for _, u := range users {
		for _, s := range sequences {
			t.Run(u.name+"/"+s.name, func(t *testing.T) {
				q := u.mk()
				const near, near2 = 104, 152
				wakeBy := func(now, earliest int64) {
					t.Helper()
					if at, ok := q.next(now); !ok || at > max(now, earliest) {
						t.Errorf("next(%d) = (%d,%v) with an element due at %d unreleased", now, at, ok, earliest)
					}
				}
				release := func(now int64, want ...int) {
					t.Helper()
					for _, w := range want {
						if id, ok := q.pop(now); !ok || id != w {
							t.Fatalf("pop(%d) = (%d,%v), want element %d", now, id, ok, w)
						}
					}
					if id, ok := q.pop(now); ok {
						t.Fatalf("pop(%d) released element %d before its time", now, id)
					}
				}
				q.park(1, s.far)
				if s.peek {
					wakeBy(0, s.far)
				}
				q.park(2, near)
				wakeBy(0, near)
				release(50)
				wakeBy(50, near)
				q.park(3, near2)
				release(near, 2)
				wakeBy(near, near2)
				release(200, 3)
				wakeBy(200, s.far)
				release(s.far, 1)
				if at, ok := q.next(s.far); ok {
					t.Errorf("next(%d) = %d with everything released", s.far, at)
				}
			})
		}
	}
}
