// Package queue defines the common priority-queue contract every Eiffel
// backend satisfies, a registry for constructing backends by kind (the
// experiment harness sweeps them), and the Figure 20 decision guide for
// picking a backend from scheduling-policy characteristics.
package queue

import (
	"fmt"

	"eiffel/internal/bheapq"
	"eiffel/internal/bucket"
	"eiffel/internal/cmpq"
	"eiffel/internal/ffsq"
	"eiffel/internal/gradq"
)

// PQ is a min-priority queue over intrusive nodes. Bucketed backends
// quantize ranks to their granularity; the approximate backends may return
// a near-minimum element (see gradq). All backends preserve FIFO order
// among equal-bucket elements except the comparison heaps, which are
// unstable.
type PQ interface {
	// Enqueue inserts n with the given rank.
	Enqueue(n *bucket.Node, rank uint64)
	// DequeueMin removes and returns the minimum element, or nil.
	DequeueMin() *bucket.Node
	// PeekMin returns the (bucket-quantized) minimum rank, or ok=false.
	PeekMin() (uint64, bool)
	// Remove detaches a queued node.
	Remove(n *bucket.Node)
	// Len returns the number of queued elements.
	Len() int
}

// Kind names a queue backend.
type Kind int

// Backend kinds.
const (
	// KindCFFS is the circular hierarchical FFS queue — Eiffel's default.
	KindCFFS Kind = iota
	// KindFFS is a fixed-range hierarchical FFS queue.
	KindFFS
	// KindFFSFlat is a fixed-range FFS queue with sequential word scan.
	KindFFSFlat
	// KindApprox is the approximate gradient queue (fixed range).
	KindApprox
	// KindCApprox is the circular approximate gradient queue.
	KindCApprox
	// KindBH is the bucketed queue with a binary-heap occupancy index.
	KindBH
	// KindBinaryHeap is a comparison-based binary heap (no buckets).
	KindBinaryHeap
)

// String returns the short name used in experiment tables.
func (k Kind) String() string {
	switch k {
	case KindCFFS:
		return "cFFS"
	case KindFFS:
		return "FFS"
	case KindFFSFlat:
		return "FFS-flat"
	case KindApprox:
		return "Approx"
	case KindCApprox:
		return "cApprox"
	case KindBH:
		return "BH"
	case KindBinaryHeap:
		return "BinHeap"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config sizes a backend. Comparison-based kinds ignore all fields.
type Config struct {
	// NumBuckets is the bucket count (per half for circular kinds).
	NumBuckets int
	// Granularity is the rank width of one bucket (default 1).
	Granularity uint64
	// Start anchors the range: the base of fixed-range queues, the
	// initial window position of circular ones.
	Start uint64
	// Alpha tunes the approximate kinds (0 = default).
	Alpha float64
}

// WithDefaults fills the zero fields New would fill.
func (c Config) WithDefaults() Config {
	if c.NumBuckets == 0 {
		c.NumBuckets = 1 << 14
	}
	if c.Granularity == 0 {
		c.Granularity = 1
	}
	return c
}

// New constructs a backend of the given kind.
func New(k Kind, cfg Config) PQ {
	cfg = cfg.WithDefaults()
	switch k {
	case KindCFFS:
		return ffsq.NewCFFS(ffsq.CFFSOptions{
			NumBuckets:  cfg.NumBuckets,
			Granularity: cfg.Granularity,
			Start:       cfg.Start,
		})
	case KindFFS:
		return ffsq.NewFixed(cfg.NumBuckets, cfg.Granularity, cfg.Start)
	case KindFFSFlat:
		return ffsq.NewFixedFlat(cfg.NumBuckets, cfg.Granularity, cfg.Start)
	case KindApprox:
		return gradq.NewApprox(gradq.ApproxOptions{
			NumBuckets:  cfg.NumBuckets,
			Granularity: cfg.Granularity,
			Base:        cfg.Start,
			Alpha:       cfg.Alpha,
		})
	case KindCApprox:
		return gradq.NewCApprox(gradq.CApproxOptions{
			NumBuckets:  cfg.NumBuckets,
			Granularity: cfg.Granularity,
			Start:       cfg.Start,
			Alpha:       cfg.Alpha,
		})
	case KindBH:
		return bheapq.New(cfg.NumBuckets, cfg.Granularity, cfg.Start)
	case KindBinaryHeap:
		return cmpq.NewHeap()
	default:
		panic(fmt.Sprintf("queue: unknown kind %d", int(k)))
	}
}
