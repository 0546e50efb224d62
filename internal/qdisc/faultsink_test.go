package qdisc

import (
	"errors"
	"testing"
	"time"

	"eiffel/internal/pkt"
)

// ---- the fault-injecting sink TestChaosEveryPreset drives ------------------

// errInjected is the error a faulting TryTx returns: the refusal is
// retryable by contract.
var errInjected = errors.New("fault: transient tx error")

// faultProfile is one fault schedule. Rates are per-TryTx-call
// probabilities in [0, 1], drawn from a deterministic splitmix64 stream
// seeded by Seed: the same profile over the same call sequence misbehaves
// identically. At most one fault fires per call, checked in the order
// panic, stall, error, partial, slow.
type faultProfile struct {
	// Name labels the profile in failure messages.
	Name string
	// Seed drives the fault schedule (same seed, same schedule).
	Seed uint64
	// PanicRate is the probability a call panics BEFORE accepting
	// anything — the recoverable worst case (no packet is in limbo, so
	// supervision can re-offer the whole batch).
	PanicRate float64
	// StallRate is the probability a call sleeps StallFor before
	// accepting — the wedged-TX-queue case the watchdog exists for.
	StallRate float64
	// ErrRate is the probability a call accepts nothing and returns
	// errInjected.
	ErrRate float64
	// PartialRate is the probability a call accepts a strict non-zero
	// prefix (a uniform 1..len-1 cut) of the batch.
	PartialRate float64
	// SlowRate is the probability a call sleeps SlowFor and then accepts
	// everything — degraded but not refusing.
	SlowRate float64
	// StallFor and SlowFor size the two sleeps.
	StallFor time.Duration
	SlowFor  time.Duration
}

// faultCounts reports how often each fault fired.
type faultCounts struct {
	Calls    uint64
	Panics   uint64
	Stalls   uint64
	Errors   uint64
	Partials uint64
	Slows    uint64
}

// faultSink is a FallibleSink that misbehaves per its profile while
// keeping an exact ledger of every packet it accepted, so a test can
// assert zero lost and zero duplicated packets no matter which faults
// fired. Like every sink it is driven by one worker goroutine at a time,
// and its ledger is read after the workers are joined.
type faultSink struct {
	prof faultProfile
	rng  uint64

	seen   map[uint64]uint32 // packet ID → accept count
	acc    uint64            // total accepts (sum of seen)
	dups   uint64            // accepts beyond the first per ID
	counts faultCounts
}

func newFaultSink(prof faultProfile) *faultSink {
	return &faultSink{prof: prof, rng: prof.Seed, seen: make(map[uint64]uint32)}
}

// next is splitmix64: deterministic, seed-driven, stdlib-free.
func (s *faultSink) next() uint64 {
	s.rng += 0x9E3779B97F4A7C15
	z := s.rng
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// chance draws one uniform [0,1) variate against p.
func (s *faultSink) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(s.next()>>11)/(1<<53) < p
}

// accept records the accepted packets in the ledger.
func (s *faultSink) accept(ps []*pkt.Packet) {
	for _, p := range ps {
		s.seen[p.ID]++
		if s.seen[p.ID] > 1 {
			s.dups++
		}
	}
	s.acc += uint64(len(ps))
}

// TryTx implements the fallible egress contract, injecting at most one
// fault per call on the profile's schedule. A panicking call accepts
// nothing first, so a supervised worker that recovers re-offers the
// exact batch and the ledger never sees a limbo packet.
func (s *faultSink) TryTx(ps []*pkt.Packet) (int, error) {
	s.counts.Calls++
	if s.chance(s.prof.PanicRate) {
		s.counts.Panics++
		panic("fault: injected sink panic")
	}
	if s.chance(s.prof.StallRate) {
		s.counts.Stalls++
		time.Sleep(s.prof.StallFor)
		s.accept(ps)
		return len(ps), nil
	}
	if s.chance(s.prof.ErrRate) {
		s.counts.Errors++
		return 0, errInjected
	}
	if len(ps) > 1 && s.chance(s.prof.PartialRate) {
		s.counts.Partials++
		n := 1 + int(s.next()%uint64(len(ps)-1)) // strict non-zero prefix
		s.accept(ps[:n])
		return n, nil
	}
	if s.chance(s.prof.SlowRate) {
		s.counts.Slows++
		time.Sleep(s.prof.SlowFor)
	}
	s.accept(ps)
	return len(ps), nil
}

// Tx is the infallible surface: accept everything (no faults), so a
// faultSink can also stand in where a plain EgressSink is expected.
func (s *faultSink) Tx(ps []*pkt.Packet) { s.accept(ps) }

// Accepted returns how many packets the sink accepted in total
// (duplicates included).
func (s *faultSink) Accepted() uint64 { return s.acc }

// Unique returns how many distinct packet IDs the sink accepted.
func (s *faultSink) Unique() uint64 { return uint64(len(s.seen)) }

// Dups returns how many accepts were duplicates (same packet ID accepted
// more than once) — must be zero under exactly-once egress.
func (s *faultSink) Dups() uint64 { return s.dups }

// Counts returns the fault-fire tallies.
func (s *faultSink) Counts() faultCounts { return s.counts }

// SawID reports whether the sink ever accepted packet id.
func (s *faultSink) SawID(id uint64) bool { return s.seen[id] > 0 }

func faultBatch(pool *pkt.Pool, n int) []*pkt.Packet {
	ps := make([]*pkt.Packet, n)
	for i := range ps {
		ps[i] = pool.Get()
	}
	return ps
}

// TestSinkDeterministic pins the seed contract: two sinks with the same
// profile fed the same call sequence misbehave identically.
func TestSinkDeterministic(t *testing.T) {
	prof := faultProfile{Name: "t", Seed: 42, ErrRate: 0.3, PartialRate: 0.3}
	a, b := newFaultSink(prof), newFaultSink(prof)
	pool := pkt.NewPool(64)
	ps := faultBatch(pool, 8)
	for i := 0; i < 200; i++ {
		an, aerr := a.TryTx(ps)
		bn, berr := b.TryTx(ps)
		if an != bn || (aerr == nil) != (berr == nil) {
			t.Fatalf("call %d diverged: (%d,%v) vs (%d,%v)", i, an, aerr, bn, berr)
		}
	}
	if a.Counts() != b.Counts() {
		t.Fatalf("fault tallies diverged: %+v vs %+v", a.Counts(), b.Counts())
	}
	if a.Counts().Errors == 0 || a.Counts().Partials == 0 {
		t.Fatalf("profile never fired: %+v", a.Counts())
	}
}

// TestSinkLedger covers the exactly-once bookkeeping: unique vs
// duplicate accepts, and the prefix contract of partial accepts.
func TestSinkLedger(t *testing.T) {
	s := newFaultSink(faultProfile{Name: "clean"})
	pool := pkt.NewPool(8)
	ps := faultBatch(pool, 4)
	if n, err := s.TryTx(ps); n != 4 || err != nil {
		t.Fatalf("clean TryTx = (%d, %v), want full accept", n, err)
	}
	if s.Accepted() != 4 || s.Unique() != 4 || s.Dups() != 0 {
		t.Fatalf("ledger %d/%d/%d after one accept, want 4/4/0", s.Accepted(), s.Unique(), s.Dups())
	}
	if !s.SawID(ps[0].ID) {
		t.Fatal("SawID false for an accepted packet")
	}
	s.Tx(ps[:2]) // re-offer: the ledger must count the duplicates
	if s.Accepted() != 6 || s.Unique() != 4 || s.Dups() != 2 {
		t.Fatalf("ledger %d/%d/%d after re-offer, want 6/4/2", s.Accepted(), s.Unique(), s.Dups())
	}
}

// TestSinkPartialIsStrictPrefix: a partial accept takes a non-empty,
// non-total prefix, so retry progress is always possible.
func TestSinkPartialIsStrictPrefix(t *testing.T) {
	s := newFaultSink(faultProfile{Name: "p", Seed: 7, PartialRate: 1})
	pool := pkt.NewPool(64)
	for i := 0; i < 100; i++ {
		ps := faultBatch(pool, 6)
		n, err := s.TryTx(ps)
		if err != nil {
			t.Fatalf("partial profile returned error %v", err)
		}
		if n < 1 || n >= len(ps) {
			t.Fatalf("partial accept n=%d of %d, want a strict non-zero prefix", n, len(ps))
		}
	}
	if s.Counts().Partials != 100 {
		t.Fatalf("partials = %d, want every call", s.Counts().Partials)
	}
}
