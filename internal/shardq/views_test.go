package shardq

import (
	"testing"

	"eiffel/internal/bucket"
	"eiffel/internal/queue"
)

// elem is a two-handle test element, the shape pkt.Packet has: one node
// for the time-indexed shaper, one for the priority-indexed scheduler.
type elem struct {
	timer, sched bucket.Node
	sendAt, rank uint64
	id           int
}

func newElem(sendAt, rank uint64) *elem {
	e := &elem{sendAt: sendAt, rank: rank}
	e.timer.Data = e
	e.sched.Data = e
	return e
}

func pairElem(n *bucket.Node) *bucket.Node { return &n.Data.(*elem).sched }

// viewOpts is the sizing the shared suites vary.
type viewOpts struct {
	shards, groups int
	ringBits       uint
	bound          int
}

// view is one typed view of the runtime reduced to Core's uniform
// surface, so the admission, lifecycle, producer and group suites run
// against both from one body. Every element a shared suite publishes is
// due immediately and drains run at now = 0, so the priority is the only
// key that matters and both views must behave identically; either way a
// drain returns the element's sched handle.
type view struct {
	name string
	mk   func(o viewOpts) *Core
	// keys maps an element and its priority to the triple to publish.
	keys func(e *elem, rank uint64) (n *Node, k1, k2 uint64)
}

var exactCfg = queue.Config{NumBuckets: 1 << 12, Granularity: 1}

var views = []view{
	{
		name: "Q",
		mk: func(o viewOpts) *Core {
			return New(Options{
				NumShards: o.shards, NumGroups: o.groups, RingBits: o.ringBits,
				ShardBound: o.bound, Queue: exactCfg,
			}).Core
		},
		keys: func(e *elem, rank uint64) (*Node, uint64, uint64) { return &e.sched, rank, 0 },
	},
	{
		name: "Shaped",
		mk: func(o viewOpts) *Core {
			return NewShaped(ShapedOptions{
				NumShards: o.shards, NumGroups: o.groups, RingBits: o.ringBits,
				ShardBound: o.bound, Shaper: exactCfg, Sched: exactCfg, Pair: pairElem,
			}).Core
		},
		keys: func(e *elem, rank uint64) (*Node, uint64, uint64) { return &e.timer, 0, rank },
	},
}

func forEachView(t *testing.T, f func(t *testing.T, v view)) {
	for _, v := range views {
		t.Run(v.name, func(t *testing.T) { f(t, v) })
	}
}

// mkElems returns n elements with ids 0..n-1.
func mkElems(n int) []*elem {
	es := make([]*elem, n)
	for i := range es {
		es[i] = newElem(0, 0)
		es[i].id = i
	}
	return es
}

// try, enq and stage publish e with the given priority through the three
// admission paths.
func (v view) try(c *Core, flow uint64, e *elem, rank uint64) bool {
	n, k1, k2 := v.keys(e, rank)
	return c.TryEnqueue(flow, n, k1, k2)
}

func (v view) enq(c *Core, flow uint64, e *elem, rank uint64) {
	n, k1, k2 := v.keys(e, rank)
	c.Enqueue(flow, n, k1, k2)
}

func (v view) stage(p *Producer, flow uint64, e *elem, rank uint64) {
	n, k1, k2 := v.keys(e, rank)
	p.Enqueue(flow, n, k1, k2)
}

// drainAll pops up to len(out) elements eligible at now with rank at or
// below maxRank, group by group from the calling goroutine: what every
// group's worker would release, concatenated.
func drainAll(c *Core, now, maxRank uint64, out []*bucket.Node) int {
	k := 0
	for g := 0; g < c.NumGroups() && k < len(out); g++ {
		k += c.GroupDequeueBatch(g, now, maxRank, out[k:])
	}
	return k
}

// popMin pops group 0's minimum element eligible at now, or nil.
func popMin(c *Core, now uint64) *bucket.Node {
	var one [1]*bucket.Node
	if c.GroupDequeueBatch(0, now, ^uint64(0), one[:]) == 0 {
		return nil
	}
	return one[0]
}

// drainIDs drains c completely, chunk elements per call, returning the
// elements' ids in release order.
func drainIDs(c *Core, chunk int) []int {
	out := make([]*bucket.Node, chunk)
	var got []int
	for {
		k := drainAll(c, 0, ^uint64(0), out)
		if k == 0 {
			return got
		}
		for _, n := range out[:k] {
			got = append(got, n.Data.(*elem).id)
		}
	}
}
