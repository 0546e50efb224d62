// Package cmpq implements the comparison-based priority queues the paper
// measures Eiffel against (§2): a binary min-heap (the C++ std::
// priority_queue stand-in used by the hClock and pFabric baselines) and a
// red-black tree (the kernel qdisc substrate under FQ/pacing). Both cost
// O(log n) per operation in the number of queued elements — the bound
// bucketed integer queues break.
package cmpq

import "eiffel/internal/bucket"

// Heap is a binary min-heap over intrusive nodes. Node.Pos holds the heap
// index, enabling O(log n) removal of arbitrary elements (what heap-based
// hClock needs to detach a tenant from its tag indexes).
type Heap struct {
	items []*bucket.Node
}

// NewHeap returns an empty binary min-heap.
func NewHeap() *Heap { return &Heap{} }

// Len returns the number of queued elements.
func (h *Heap) Len() int { return len(h.items) }

// Enqueue inserts n with the given rank.
func (h *Heap) Enqueue(n *bucket.Node, rank uint64) {
	n.SetRank(rank)
	n.Pos = int32(len(h.items))
	h.items = append(h.items, n)
	h.up(int(n.Pos))
}

// DequeueMin removes and returns the minimum-rank element, or nil. Ties
// break arbitrarily (binary heaps are not stable), matching the baseline
// the paper compares against.
func (h *Heap) DequeueMin() *bucket.Node {
	if len(h.items) == 0 {
		return nil
	}
	top := h.items[0]
	h.removeAt(0)
	return top
}

// PeekMin returns the minimum rank without removing.
func (h *Heap) PeekMin() (uint64, bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	return h.items[0].Rank(), true
}

// Remove detaches n, which must be queued here, in O(log n).
func (h *Heap) Remove(n *bucket.Node) {
	i := int(n.Pos)
	if i < 0 || i >= len(h.items) || h.items[i] != n {
		panic("cmpq: Remove of a node not in this heap")
	}
	h.removeAt(i)
}

func (h *Heap) removeAt(i int) {
	last := len(h.items) - 1
	h.swap(i, last)
	h.items[last].Pos = -1
	h.items = h.items[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
}

func (h *Heap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].Pos = int32(i)
	h.items[j].Pos = int32(j)
}

func (h *Heap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].Rank() <= h.items[i].Rank() {
			break
		}
		h.swap(p, i)
		i = p
	}
}

func (h *Heap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h.items[l].Rank() < h.items[s].Rank() {
			s = l
		}
		if r < n && h.items[r].Rank() < h.items[s].Rank() {
			s = r
		}
		if s == i {
			return
		}
		h.swap(i, s)
		i = s
	}
}
