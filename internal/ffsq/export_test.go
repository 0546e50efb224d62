package ffsq

import "fmt"

// WindowStats exposes a store's window counters to the external tests.
func (c *store[N, K]) WindowStats() (swaps, overflows, jumps, clamped uint64) { return c.w.Stats() }

// AuditChunks checks that every chunk the store ever allocated is linked
// exactly once — in one bucket chain of one level, or the free list — and
// that the live entries add up to Len.
func (c *store[N, K]) AuditChunks() error {
	seen := map[*chunk[N, K]]bool{}
	live := 0
	walk := func(l chain[N, K]) error {
		for ch := l.head; ch != nil; ch = ch.next {
			if seen[ch] {
				return fmt.Errorf("a chunk is linked twice")
			}
			seen[ch] = true
			live += ch.n - ch.off
			if ch.next == nil && ch != l.tail {
				return fmt.Errorf("a chain's tail is not its last chunk")
			}
		}
		return nil
	}
	for s := c; s != nil; s = s.up {
		for _, h := range s.h {
			for _, l := range h.b {
				if err := walk(l); err != nil {
					return err
				}
			}
		}
	}
	for ch := c.pool.free; ch != nil; ch = ch.next {
		if seen[ch] {
			return fmt.Errorf("a chunk is in the free list and somewhere else")
		}
		seen[ch] = true
	}
	if live != c.Len() || len(seen) != c.pool.chunks {
		return fmt.Errorf("%d live elements (Len %d), %d chunks reachable of %d allocated", live, c.Len(), len(seen), c.pool.chunks)
	}
	return nil
}

// Moves returns how many elements the store's levels took in from their
// coarse level or sent back to it, summed over every level.
func (c *store[N, K]) Moves() uint64 {
	m := uint64(0)
	for ; c != nil; c = c.up {
		m += c.moved
	}
	return m
}

// CoarseClamped returns how many arrivals the store's coarse levels
// clamped: none may, or their buckets would stop being disjoint.
func (c *store[N, K]) CoarseClamped() uint64 {
	k := uint64(0)
	for c = c.up; c != nil; c = c.up {
		k += c.w.clamped
	}
	return k
}

// Moves returns how many elements the queue's levels re-placed from their
// overflow (the list or the coarse level) or spilled from the list into
// the coarse level, summed over every level.
func (c *CFFS) Moves() uint64 {
	m := uint64(0)
	for ; c != nil; c = c.up {
		m += c.moved
	}
	return m
}

// CoarseClamped returns how many arrivals the queue's coarse levels
// clamped: none may, or their buckets would stop being disjoint.
func (c *CFFS) CoarseClamped() uint64 {
	k := uint64(0)
	for c = c.up; c != nil; c = c.up {
		k += c.w.clamped
	}
	return k
}
