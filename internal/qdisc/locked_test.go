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
