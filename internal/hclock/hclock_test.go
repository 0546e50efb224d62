package hclock

import (
	"testing"

	"eiffel/internal/pkt"
)

var backends = []Backend{BackendEiffel, BackendHeap}

func drive(s *Scheduler, pool *pkt.Pool, flows []uint64, pktSize uint32, perFlow int, horizon int64) map[uint64]int64 {
	for i := 0; i < perFlow; i++ {
		for _, id := range flows {
			p := pool.Get()
			p.Flow = id
			p.Size = pktSize
			s.Enqueue(p, 0)
		}
	}
	bytes := map[uint64]int64{}
	now := int64(0)
	for now < horizon {
		p := s.Dequeue(now)
		if p == nil {
			next, ok := s.NextEvent(now)
			if !ok {
				break
			}
			if next <= now {
				next = now + 1000
			}
			now = next
			continue
		}
		bytes[p.Flow] += int64(p.Size)
	}
	return bytes
}

func TestProportionalShares(t *testing.T) {
	for _, b := range backends {
		t.Run(b.String(), func(t *testing.T) {
			s := New(Config{Backend: b, AggregateLimitBps: 100_000_000})
			s.AddFlow(1, 0, 0, 3)
			s.AddFlow(2, 0, 0, 1)
			pool := pkt.NewPool(4096)
			bytes := drive(s, pool, []uint64{1, 2}, 1250, 2000, 100_000_000) // 100 ms
			total := bytes[1] + bytes[2]
			if total == 0 {
				t.Fatal("no throughput")
			}
			share := float64(bytes[1]) / float64(total)
			if share < 0.68 || share > 0.82 {
				t.Fatalf("weight-3 flow got %.2f of bytes, want ~0.75", share)
			}
		})
	}
}

func TestLimitEnforced(t *testing.T) {
	for _, b := range backends {
		t.Run(b.String(), func(t *testing.T) {
			s := New(Config{Backend: b})
			s.AddFlow(1, 0, 10_000_000, 1) // 10 Mbps cap
			s.AddFlow(2, 0, 0, 1)
			pool := pkt.NewPool(8192)
			const horizon = int64(200_000_000) // 200 ms
			bytes := drive(s, pool, []uint64{1, 2}, 1250, 3000, horizon)
			rate1 := float64(bytes[1]) * 8 / (float64(horizon) / 1e9)
			if rate1 > 10_000_000*1.10 {
				t.Fatalf("limited flow exceeded cap: %.2f Mbps", rate1/1e6)
			}
		})
	}
}

func TestReservationMet(t *testing.T) {
	for _, b := range backends {
		t.Run(b.String(), func(t *testing.T) {
			// Flow 1 reserves 40 Mbps of a 50 Mbps aggregate but has tiny
			// weight; without the reservation phase it would get ~1/101 of
			// the bandwidth.
			s := New(Config{Backend: b, AggregateLimitBps: 50_000_000})
			s.AddFlow(1, 40_000_000, 0, 1)
			s.AddFlow(2, 0, 0, 100)
			pool := pkt.NewPool(16384)
			const horizon = int64(100_000_000) // 100 ms
			bytes := drive(s, pool, []uint64{1, 2}, 1250, 4000, horizon)
			rate1 := float64(bytes[1]) * 8 / (float64(horizon) / 1e9)
			if rate1 < 40_000_000*0.85 {
				t.Fatalf("reservation not met: %.2f Mbps, want ~40", rate1/1e6)
			}
		})
	}
}

func TestWorkConservingUnderLimits(t *testing.T) {
	for _, b := range backends {
		t.Run(b.String(), func(t *testing.T) {
			// One flow capped at 5 Mbps, one unlimited: the unlimited flow
			// must soak up everything the cap releases.
			s := New(Config{Backend: b, AggregateLimitBps: 100_000_000})
			s.AddFlow(1, 0, 5_000_000, 1)
			s.AddFlow(2, 0, 0, 1)
			pool := pkt.NewPool(32768)
			const horizon = int64(100_000_000)
			bytes := drive(s, pool, []uint64{1, 2}, 1250, 6000, horizon)
			total := float64(bytes[1]+bytes[2]) * 8 / (float64(horizon) / 1e9)
			if total < 100_000_000*0.85 {
				t.Fatalf("aggregate underutilized: %.2f Mbps of 100", total/1e6)
			}
		})
	}
}

func TestFlowFIFOOrder(t *testing.T) {
	s := New(Config{Backend: BackendEiffel})
	s.AddFlow(1, 0, 0, 1)
	pool := pkt.NewPool(16)
	var ids []uint64
	for i := 0; i < 5; i++ {
		p := pool.Get()
		p.Flow = 1
		p.Size = 100
		ids = append(ids, p.ID)
		s.Enqueue(p, 0)
	}
	for i := 0; i < 5; i++ {
		p := s.Dequeue(0)
		if p == nil || p.ID != ids[i] {
			t.Fatalf("packet %d out of order", i)
		}
	}
}

func TestEmptyAndIdle(t *testing.T) {
	s := New(Config{Backend: BackendEiffel})
	s.AddFlow(1, 0, 1_000_000, 1)
	if s.Dequeue(0) != nil {
		t.Fatal("empty scheduler must return nil")
	}
	if _, ok := s.NextEvent(0); ok {
		t.Fatal("NextEvent on empty scheduler")
	}
	pool := pkt.NewPool(4)
	p := pool.Get()
	p.Flow = 1
	p.Size = 1250
	s.Enqueue(p, 1e9)
	got := s.Dequeue(1e9)
	if got == nil {
		t.Fatal("packet lost after idle start")
	}
	// Flow is now over its limit; a second packet must wait.
	p2 := pool.Get()
	p2.Flow = 1
	p2.Size = 1250
	s.Enqueue(p2, 1e9)
	if s.Dequeue(1e9) != nil {
		t.Fatal("limit not enforced immediately after first packet")
	}
	next, ok := s.NextEvent(1e9)
	if !ok || next <= 1e9 {
		t.Fatalf("NextEvent = (%d,%v), want future time", next, ok)
	}
	if s.Dequeue(next+10000) == nil {
		t.Fatal("packet not released at limit clock")
	}
}

func BenchmarkDequeueEiffel(b *testing.B) { benchBackend(b, BackendEiffel) }
func BenchmarkDequeueHeap(b *testing.B)   { benchBackend(b, BackendHeap) }

func benchBackend(b *testing.B, be Backend) {
	s := New(Config{Backend: be})
	const flows = 1000
	for i := uint64(1); i <= flows; i++ {
		s.AddFlow(i, 0, 0, 1+i%7)
	}
	pool := pkt.NewPool(flows * 4)
	now := int64(0)
	for i := uint64(1); i <= flows; i++ {
		for j := 0; j < 3; j++ {
			p := pool.Get()
			p.Flow = i
			p.Size = 1500
			s.Enqueue(p, now)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1200
		p := s.Dequeue(now)
		if p == nil {
			b.Fatal("unexpected nil")
		}
		s.Enqueue(p, now)
	}
}
