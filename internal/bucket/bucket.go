// Package bucket provides the shared substrate for bucketed integer priority
// queues: an intrusive node and a fixed array of FIFO buckets supporting O(1)
// push, pop-front and removal of arbitrary elements.
//
// Every queue in this repository (cFFS, gradient, BH, timing wheel, and the
// comparison-based baselines) moves the same Node type around, so schedulers
// can switch backends without re-allocating per-element state. A Node is
// meant to be embedded in (or owned 1:1 by) the queued item — a packet or a
// flow — with Data pointing back at the item, mirroring the intrusive
// list_head style the kernel qdiscs in the paper rely on.
package bucket

// Node is the intrusive handle for one queued element. The zero value is a
// detached node. A node may be in at most one bucket Array (or one
// comparison-based queue) at a time.
type Node struct {
	next, prev *Node
	owner      *Array
	rank       uint64
	bucket     int32

	// Pos is scratch space for comparison-based backends (heap index).
	// Bucketed queues ignore it.
	Pos int32

	// Data points back at the element that owns this node. It is set once
	// by the owner and never touched by queues.
	Data any
}

// Rank returns the rank recorded when the node was last enqueued. Bucketed
// queues keep the true (un-quantized) rank here so circular queues can
// re-distribute overflowed elements correctly.
//
//eiffel:hotpath
func (n *Node) Rank() uint64 { return n.rank }

// SetRank records r on a detached node. Queues overwrite it on enqueue; it
// exists so comparison-based backends can share the same handle.
//
//eiffel:hotpath
func (n *Node) SetRank(r uint64) { n.rank = r }

// Next returns the node behind n in its bucket, or nil at the tail. A walk
// that removes the node it stands on reads Next first.
//
//eiffel:hotpath
func (n *Node) Next() *Node { return n.next }

// Queued reports whether the node currently sits in a bucket Array.
//
//eiffel:hotpath
func (n *Node) Queued() bool { return n.owner != nil }

// InArray reports whether the node currently sits in a.
//
//eiffel:hotpath
func (n *Node) InArray(a *Array) bool { return n.owner == a }

// BucketIndex returns the bucket the node sits in, or -1 if detached.
//
//eiffel:hotpath
func (n *Node) BucketIndex() int {
	if n.owner == nil {
		return -1
	}
	return int(n.bucket)
}

type list struct {
	head, tail *Node
}

// Array is a fixed-size array of FIFO buckets. It maintains element counts
// but no occupancy index; the owning queue layers its own index (bitmap,
// hierarchy, curvature, or heap) on top, driven by the became-empty /
// became-nonempty results of each mutation.
type Array struct {
	buckets []list
	lens    []int32
	count   int
}

// NewArray returns an Array with n empty buckets. n must be positive.
func NewArray(n int) *Array {
	if n <= 0 {
		panic("bucket: NewArray needs a positive bucket count")
	}
	return &Array{
		buckets: make([]list, n),
		lens:    make([]int32, n),
	}
}

// NumBuckets returns the number of buckets.
func (a *Array) NumBuckets() int { return len(a.buckets) }

// Len returns the total number of queued nodes.
//
//eiffel:hotpath
func (a *Array) Len() int { return a.count }

// BucketLen returns the number of nodes in bucket i.
func (a *Array) BucketLen(i int) int { return int(a.lens[i]) }

// BucketEmpty reports whether bucket i holds no nodes.
//
//eiffel:hotpath
func (a *Array) BucketEmpty(i int) bool { return a.buckets[i].head == nil }

// Push appends n to the FIFO tail of bucket i recording rank, and reports
// whether the bucket transitioned from empty to non-empty. n must be
// detached.
//
//eiffel:hotpath
func (a *Array) Push(i int, n *Node, rank uint64) (becameNonEmpty bool) {
	if n.owner != nil {
		panic("bucket: Push of a node that is already queued")
	}
	n.owner = a
	n.bucket = int32(i)
	n.rank = rank
	l := &a.buckets[i]
	n.prev = l.tail
	n.next = nil
	if l.tail != nil {
		l.tail.next = n
	} else {
		l.head = n
	}
	l.tail = n
	a.lens[i]++
	a.count++
	return n.prev == nil
}

// Front returns the FIFO head of bucket i without removing it, or nil.
//
//eiffel:hotpath
func (a *Array) Front(i int) *Node { return a.buckets[i].head }

// PopFront removes and returns the FIFO head of bucket i, reporting whether
// the bucket became empty. It returns (nil, false) on an empty bucket.
//
//eiffel:hotpath
func (a *Array) PopFront(i int) (n *Node, becameEmpty bool) {
	l := &a.buckets[i]
	n = l.head
	if n == nil {
		return nil, false
	}
	becameEmpty = a.unlink(n)
	return n, becameEmpty
}

// DrainBucket detaches every node of bucket i at once, writing them to out
// in FIFO order, and returns how many it wrote. When the bucket holds more
// nodes than out has room for it drains nothing and returns (0, false) —
// callers fall back to per-node PopFront. The bulk path walks the list
// once and settles the bucket's count bookkeeping in O(1) instead of
// per-node, which is what makes whole-bucket batch dequeues cheap.
//
//eiffel:hotpath
func (a *Array) DrainBucket(i int, out []*Node) (n int, ok bool) {
	cnt := int(a.lens[i])
	if cnt == 0 || cnt > len(out) {
		return 0, false
	}
	l := &a.buckets[i]
	k := 0
	for nd := l.head; nd != nil; {
		next := nd.next
		nd.next, nd.prev, nd.owner = nil, nil, nil
		nd.bucket = -1
		out[k] = nd
		k++
		nd = next
	}
	l.head, l.tail = nil, nil
	a.lens[i] = 0
	a.count -= cnt
	return cnt, true
}

// Remove detaches n from whatever bucket it is in, reporting whether that
// bucket became empty. n must currently be in this array.
//
//eiffel:hotpath
func (a *Array) Remove(n *Node) (becameEmpty bool) {
	if n.owner != a {
		panic("bucket: Remove of a node that is not in this array")
	}
	return a.unlink(n)
}

//eiffel:hotpath
func (a *Array) unlink(n *Node) (becameEmpty bool) {
	l := &a.buckets[n.bucket]
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	becameEmpty = l.head == nil
	a.lens[n.bucket]--
	a.count--
	n.next, n.prev, n.owner = nil, nil, nil
	n.bucket = -1
	return becameEmpty
}

// Circular queues rotate by swapping *Array pointers (their halves are held
// by pointer), so rotation is O(1) and node owner pointers stay valid; no
// content-level swap is provided.
