// Package ffsq implements the Find-First-Set based integer priority queues
// from §3.1.1 of the Eiffel paper (NSDI 2019): a flat multi-word bitmap (the
// Linux SCHED_FIFO style sequential scan), a hierarchical bitmap with
// branching factor 64 (the PIQ style tree), a fixed-range bucketed queue
// built on either index, and the paper's central contribution — the circular
// hierarchical FFS queue (cFFS) that follows a moving rank range with two
// pointer-swapped halves.
//
// All queues store intrusive bucket.Node handles, keep elements FIFO within
// a bucket, and find the minimum (or maximum) non-empty bucket with a
// constant number of machine FFS operations (math/bits compiles to
// TZCNT/LZCNT on amd64).
package ffsq

import "math/bits"

// Index tracks which buckets of a fixed-size array are non-empty and finds
// extreme non-empty buckets. Implementations: Bitmap (flat scan) and Hier
// (hierarchical, O(log64 n) worst case independent of occupancy).
type Index interface {
	// Set marks bucket i non-empty. Idempotent.
	Set(i int)
	// Clear marks bucket i empty. Idempotent.
	Clear(i int)
	// Test reports whether bucket i is marked non-empty.
	Test(i int) bool
	// Min returns the smallest marked bucket, or -1 if none.
	Min() int
	// Max returns the largest marked bucket, or -1 if none.
	Max() int
	// Empty reports whether no bucket is marked.
	Empty() bool
	// Size returns the number of tracked buckets.
	Size() int
}

// Bitmap is a flat multi-word occupancy bitmap. Finding the minimum scans
// words sequentially, which is O(words) worst case — efficient only for a
// small number of words (the paper's example: the kernel's 100 realtime
// priorities over two 64-bit words).
type Bitmap struct {
	words []uint64
	n     int
	count int
}

// NewBitmap returns a Bitmap tracking n buckets.
func NewBitmap(n int) *Bitmap {
	if n <= 0 {
		panic("ffsq: NewBitmap needs a positive size")
	}
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Size returns the number of tracked buckets.
func (b *Bitmap) Size() int { return b.n }

// Empty reports whether no bucket is marked.
func (b *Bitmap) Empty() bool { return b.count == 0 }

// Test reports whether bucket i is marked.
func (b *Bitmap) Test(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set marks bucket i.
func (b *Bitmap) Set(i int) {
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b.words[w]&m == 0 {
		b.words[w] |= m
		b.count++
	}
}

// Clear unmarks bucket i.
func (b *Bitmap) Clear(i int) {
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b.words[w]&m != 0 {
		b.words[w] &^= m
		b.count--
	}
}

// Min returns the smallest marked bucket, or -1.
func (b *Bitmap) Min() int {
	if b.count == 0 {
		return -1
	}
	for w, word := range b.words {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// Max returns the largest marked bucket, or -1.
func (b *Bitmap) Max() int {
	if b.count == 0 {
		return -1
	}
	for w := len(b.words) - 1; w >= 0; w-- {
		if word := b.words[w]; word != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(word)
		}
	}
	return -1
}

// Hier is a hierarchical occupancy bitmap with branching factor 64: bit j of
// a word at level l+1 summarizes word j at level l. Find-min descends the
// tree with one FFS per level — O(log64 n) operations regardless of how many
// buckets are marked, the property Objective 1 of the paper relies on.
type Hier struct {
	levels [][]uint64
	n      int
	count  int
}

// NewHier returns a hierarchical index tracking n buckets.
func NewHier(n int) *Hier {
	if n <= 0 {
		panic("ffsq: NewHier needs a positive size")
	}
	h := &Hier{n: n}
	for bitsLeft := n; ; {
		words := (bitsLeft + 63) / 64
		h.levels = append(h.levels, make([]uint64, words))
		if words == 1 {
			break
		}
		bitsLeft = words
	}
	return h
}

// Size returns the number of tracked buckets.
func (h *Hier) Size() int { return h.n }

// Empty reports whether no bucket is marked.
//
//eiffel:hotpath
func (h *Hier) Empty() bool { return h.count == 0 }

// Test reports whether bucket i is marked.
//
//eiffel:hotpath
func (h *Hier) Test(i int) bool { return h.levels[0][i>>6]&(1<<(uint(i)&63)) != 0 }

// Set marks bucket i, updating summary levels.
//
//eiffel:hotpath
func (h *Hier) Set(i int) {
	if h.Test(i) {
		return
	}
	h.count++
	for lvl := range h.levels {
		w, m := i>>6, uint64(1)<<(uint(i)&63)
		old := h.levels[lvl][w]
		h.levels[lvl][w] = old | m
		if old != 0 {
			return // summary above already set
		}
		i = w
	}
}

// Clear unmarks bucket i, updating summary levels.
//
//eiffel:hotpath
func (h *Hier) Clear(i int) {
	if !h.Test(i) {
		return
	}
	h.count--
	for lvl := range h.levels {
		w, m := i>>6, uint64(1)<<(uint(i)&63)
		h.levels[lvl][w] &^= m
		if h.levels[lvl][w] != 0 {
			return // word still non-empty: summary above unchanged
		}
		i = w
	}
}

// Min returns the smallest marked bucket, or -1.
//
//eiffel:hotpath
func (h *Hier) Min() int {
	if h.count == 0 {
		return -1
	}
	top := len(h.levels) - 1
	j := bits.TrailingZeros64(h.levels[top][0])
	for lvl := top - 1; lvl >= 0; lvl-- {
		j = j<<6 + bits.TrailingZeros64(h.levels[lvl][j])
	}
	return j
}

// Max returns the largest marked bucket, or -1.
func (h *Hier) Max() int {
	if h.count == 0 {
		return -1
	}
	top := len(h.levels) - 1
	j := 63 - bits.LeadingZeros64(h.levels[top][0])
	for lvl := top - 1; lvl >= 0; lvl-- {
		j = j<<6 + 63 - bits.LeadingZeros64(h.levels[lvl][j])
	}
	return j
}
