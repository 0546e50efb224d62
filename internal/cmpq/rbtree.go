package cmpq

// RBTree is a red-black tree keyed by uint64 rank, the data structure
// behind the kernel's FQ/pacing qdisc that the paper identifies as a main
// source of shaping overhead (§5.1.1). Duplicate keys are allowed; equal
// keys are ordered by insertion (new duplicates go right), giving FIFO
// semantics among ties.
type RBTree struct {
	root *RBNode
	nil_ *RBNode // sentinel
	size int
}

// RBNode is one tree node. Value carries the caller's payload.
type RBNode struct {
	Key   uint64
	Value any

	left, right, parent *RBNode
	red                 bool
}

// NewRBTree returns an empty red-black tree.
func NewRBTree() *RBTree {
	s := &RBNode{}
	s.left, s.right, s.parent = s, s, s
	return &RBTree{root: s, nil_: s}
}

// Len returns the number of nodes.
func (t *RBTree) Len() int { return t.size }

// Insert adds a node with the given key and value, returning the node
// handle for later Delete.
func (t *RBTree) Insert(key uint64, value any) *RBNode {
	z := &RBNode{Key: key, Value: value, left: t.nil_, right: t.nil_, red: true}
	y := t.nil_
	x := t.root
	for x != t.nil_ {
		y = x
		if z.Key < x.Key {
			x = x.left
		} else {
			x = x.right
		}
	}
	z.parent = y
	switch {
	case y == t.nil_:
		t.root = z
	case z.Key < y.Key:
		y.left = z
	default:
		y.right = z
	}
	t.size++
	t.insertFixup(z)
	return z
}

// Min returns the node with the smallest key, or nil if empty.
func (t *RBTree) Min() *RBNode {
	if t.root == t.nil_ {
		return nil
	}
	x := t.root
	for x.left != t.nil_ {
		x = x.left
	}
	return x
}

func (t *RBTree) rotateLeft(x *RBNode) {
	y := x.right
	x.right = y.left
	if y.left != t.nil_ {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == t.nil_:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *RBTree) rotateRight(x *RBNode) {
	y := x.left
	x.left = y.right
	if y.right != t.nil_ {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == t.nil_:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *RBTree) insertFixup(z *RBNode) {
	for z.parent.red {
		if z.parent == z.parent.parent.left {
			y := z.parent.parent.right
			if y.red {
				z.parent.red = false
				y.red = false
				z.parent.parent.red = true
				z = z.parent.parent
			} else {
				if z == z.parent.right {
					z = z.parent
					t.rotateLeft(z)
				}
				z.parent.red = false
				z.parent.parent.red = true
				t.rotateRight(z.parent.parent)
			}
		} else {
			y := z.parent.parent.left
			if y.red {
				z.parent.red = false
				y.red = false
				z.parent.parent.red = true
				z = z.parent.parent
			} else {
				if z == z.parent.left {
					z = z.parent
					t.rotateRight(z)
				}
				z.parent.red = false
				z.parent.parent.red = true
				t.rotateLeft(z.parent.parent)
			}
		}
	}
	t.root.red = false
}

func (t *RBTree) transplant(u, v *RBNode) {
	switch {
	case u.parent == t.nil_:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	v.parent = u.parent
}

// Delete removes z from the tree. z must be in the tree.
func (t *RBTree) Delete(z *RBNode) {
	y := z
	yWasRed := y.red
	var x *RBNode
	switch {
	case z.left == t.nil_:
		x = z.right
		t.transplant(z, z.right)
	case z.right == t.nil_:
		x = z.left
		t.transplant(z, z.left)
	default:
		y = z.right
		for y.left != t.nil_ {
			y = y.left
		}
		yWasRed = y.red
		x = y.right
		if y.parent == z {
			x.parent = y
		} else {
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.red = z.red
	}
	t.size--
	if !yWasRed {
		t.deleteFixup(x)
	}
	z.left, z.right, z.parent = nil, nil, nil
}

func (t *RBTree) deleteFixup(x *RBNode) {
	for x != t.root && !x.red {
		if x == x.parent.left {
			w := x.parent.right
			if w.red {
				w.red = false
				x.parent.red = true
				t.rotateLeft(x.parent)
				w = x.parent.right
			}
			if !w.left.red && !w.right.red {
				w.red = true
				x = x.parent
			} else {
				if !w.right.red {
					w.left.red = false
					w.red = true
					t.rotateRight(w)
					w = x.parent.right
				}
				w.red = x.parent.red
				x.parent.red = false
				w.right.red = false
				t.rotateLeft(x.parent)
				x = t.root
			}
		} else {
			w := x.parent.left
			if w.red {
				w.red = false
				x.parent.red = true
				t.rotateRight(x.parent)
				w = x.parent.left
			}
			if !w.right.red && !w.left.red {
				w.red = true
				x = x.parent
			} else {
				if !w.left.red {
					w.right.red = false
					w.red = true
					t.rotateLeft(w)
					w = x.parent.left
				}
				w.red = x.parent.red
				x.parent.red = false
				w.left.red = false
				t.rotateRight(x.parent)
				x = t.root
			}
		}
	}
	x.red = false
}
