package qdisc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eiffel/internal/pkt"
)

func TestLockedConcurrentProducers(t *testing.T) {
	q := NewLocked(NewEiffel(4096, 2e9, 0))
	const producers = 8
	const perProducer = 2000

	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := pkt.NewPool(perProducer) // pools are not shared: one per goroutine
			for i := 0; i < perProducer; i++ {
				p := pool.Get()
				p.Flow = uint64(w + 1)
				p.Size = 1500
				p.SendAt = int64(i) * 1000
				q.Enqueue(p, 0)
			}
		}(w)
	}

	var consumed atomic.Int64
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		// The consumer must not give up while producers may still be
		// waiting to run: on a single-CPU machine a spin loop with a fixed
		// iteration budget can exhaust itself inside one scheduler quantum,
		// before the first producer has enqueued anything (the seed bug:
		// "consumed 0 of 16000"). Yield when idle, advance the virtual
		// clock off the qdisc's own timer, and bound the wait by wall time
		// so a genuine packet-loss regression still fails instead of
		// hanging.
		deadline := time.Now().Add(30 * time.Second)
		now := int64(0)
		for consumed.Load() < producers*perProducer {
			p := q.Dequeue(now)
			if p == nil {
				if next, ok := q.NextTimer(now); ok && next > now {
					now = next
				} else {
					now += 1000
				}
				if time.Now().After(deadline) {
					return
				}
				runtime.Gosched()
				continue
			}
			consumed.Add(1)
		}
	}()
	wg.Wait()
	cwg.Wait()
	if got := consumed.Load(); got != producers*perProducer {
		t.Fatalf("consumed %d of %d", got, producers*perProducer)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

func TestLockedName(t *testing.T) {
	q := NewLocked(NewFQ())
	if q.Name() != "FQ+lock" {
		t.Fatalf("Name = %q", q.Name())
	}
}

// benchContention runs the shared locked-vs-sharded workload (8 producers,
// one consumer) and reports throughput; ns/op covers one full run, and the
// Mpps metric is the figure README quotes.
func benchContention(b *testing.B, mk func() Qdisc, opt ContentionOptions) {
	const producers = 8
	const perProducer = 20000
	workload := ContentionPackets(producers, perProducer)
	q := mk()
	var packets int
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ReplayContentionOpts(q, workload, opt)
		packets += res.Packets
		elapsed += res.Elapsed
	}
	b.StopTimer()
	if elapsed > 0 {
		b.ReportMetric(float64(packets)/elapsed.Seconds()/1e6, "Mpps")
	}
}

func BenchmarkLockedContention(b *testing.B) {
	benchContention(b, func() Qdisc { return NewLocked(NewEiffel(20000, 2e9, 0)) }, ContentionOptions{})
}

// shardedContentionOpts is the throughput configuration README documents:
// 8 shards x 2500 buckets (the same total bucket memory as the Locked
// baseline's single 20000-bucket cFFS), rings sized to absorb the offered
// burst — as Carousel sizes its wheel to the horizon. The consumer drains
// at the horizon, so every packet is overdue on arrival and takes the
// timer rule's due-bypass.
var shardedContentionOpts = ShardedOptions{
	Shards: 8, Buckets: 2500, HorizonNs: 2e9, RingBits: 15,
}

// contentionProducerBatch is the producer-side run length the batched
// benchmarks admit through EnqueueBatch (the README's "batched" column).
const contentionProducerBatch = 256

// BenchmarkShardedContention drives the batched producer pipeline —
// staging, multi-slot ring claims, bulk flushes — the configuration the
// runtime is built for and the number README tracks.
func BenchmarkShardedContention(b *testing.B) {
	benchContention(b, func() Qdisc { return NewMultiSharded(MultiShardedOptions{ShardedOptions: shardedContentionOpts}) },
		ContentionOptions{ProducerBatch: contentionProducerBatch})
}

// BenchmarkShardedContentionPerElement is the PR-2 admission path — one
// Enqueue (one ring CAS) per packet — kept as the batching ablation.
func BenchmarkShardedContentionPerElement(b *testing.B) {
	benchContention(b, func() Qdisc { return NewMultiSharded(MultiShardedOptions{ShardedOptions: shardedContentionOpts}) }, ContentionOptions{})
}
