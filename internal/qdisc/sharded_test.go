package qdisc

import (
	"sync"
	"testing"

	"eiffel/internal/pkt"
)

// TestShardedShaping checks Qdisc shaping semantics: packets do not come
// out before their release bucket, empty means (0, false) timers, and
// NextTimer reports the soonest deadline across shards.
func TestShardedShaping(t *testing.T) {
	q := serial(NewMultiSharded(MultiShardedOptions{ShardedOptions: ShardedOptions{Shards: 4, Buckets: 1000, HorizonNs: 2000, Start: 0}}))
	// Granularity = 2000/(2*1000) = 1 ns per bucket: exact ranks.
	if _, ok := q.NextTimer(0); ok {
		t.Fatal("NextTimer ok on empty qdisc")
	}
	pool := pkt.NewPool(8)
	sendAts := []int64{900, 300, 600}
	for i, at := range sendAts {
		p := pool.Get()
		p.Flow = uint64(i * 97)
		p.SendAt = at
		q.Enqueue(p, 0)
	}
	if got := q.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if next, ok := q.NextTimer(0); !ok || next != 300 {
		t.Fatalf("NextTimer = (%d, %v), want (300, true)", next, ok)
	}
	if p := q.Dequeue(299); p != nil {
		t.Fatalf("Dequeue(299) released SendAt=%d early", p.SendAt)
	}
	for _, want := range []int64{300, 600, 900} {
		p := q.Dequeue(1000)
		if p == nil || p.SendAt != want {
			t.Fatalf("Dequeue = %v, want SendAt %d", p, want)
		}
	}
	if p := q.Dequeue(1000); p != nil {
		t.Fatal("Dequeue non-nil on empty qdisc")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

// TestShardedEnqueueBatchConcurrent hammers batch admission from many
// goroutines at once on the timer front — each call borrows a pooled
// staging handle, so concurrent batches must neither lose nor duplicate
// packets.
func TestShardedEnqueueBatchConcurrent(t *testing.T) {
	q := NewMultiSharded(MultiShardedOptions{ShardedOptions: ShardedOptions{
		Shards: 4, Buckets: 2048, HorizonNs: 2e9, RingBits: 8,
	}})
	const producers = 8
	const perProducer = 3000
	sets := shapedPackets(producers, perProducer, 1)
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perProducer; i += 64 {
				j := i + 64
				if j > perProducer {
					j = perProducer
				}
				q.EnqueueBatch(sets[w][i:j], 0)
			}
		}(w)
	}
	wg.Wait()
	if got := q.Len(); got != producers*perProducer {
		t.Fatalf("Len = %d after concurrent batch admission, want %d", got, producers*perProducer)
	}
	seen := make(map[uint64]bool, producers*perProducer)
	out := make([]*pkt.Packet, 256)
	for {
		k := q.GroupDequeueBatch(0, horizon, out)
		if k == 0 {
			break
		}
		for _, p := range out[:k] {
			key := p.Flow<<32 | p.ID
			if seen[key] {
				t.Fatalf("packet flow=%d id=%d released twice", p.Flow, p.ID)
			}
			seen[key] = true
		}
	}
	if len(seen) != producers*perProducer {
		t.Fatalf("released %d distinct packets, want %d", len(seen), producers*perProducer)
	}
}
