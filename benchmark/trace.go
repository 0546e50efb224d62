package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"eiffel/internal/pkt"
)

// Tracing is outside-in: spans are recorded from the benchmark's own
// files, around the calls into each layer, never inside the program. Two
// goroutines exist, so there are two tracers and no sharing: the
// generator's (fill, wait, enqueue) and the worker's (dequeue, tx, nap).
// Each loop iteration is one batch: a root span with the layer calls as
// its children, all carrying the batch id. Time and counts accumulate for
// every batch; the spans themselves are kept for one batch in keepEvery
// and written out as Chrome trace events when the run ends.

type spanKind int

const (
	spanBatch   spanKind = iota // root: one generator run or one worker poll
	spanFill                    // generator: stream.fill + stamping (harness)
	spanWait                    // generator: waiting for returned packets (idle)
	spanEnqueue                 // generator: front.Enqueue / EnqueueBatch (qdisc)
	spanDequeue                 // worker: front.GroupDequeueBatch, packets returned (qdisc)
	spanPoll                    // worker: front.GroupDequeueBatch, nothing returned (qdisc)
	spanTx                      // worker: sink.Tx (harness)
	spanNap                     // worker: idle nap (idle)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"batch", "gen.fill", "gen.wait", "qdisc.enqueue", "qdisc.dequeue", "qdisc.poll", "sink.tx", "worker.nap"}

const keepEvery = 64

type span struct {
	kind       spanKind
	start, end int64
	batch      int64
	pkts       int
}

type spanTotals struct {
	ns, calls, pkts [numSpanKinds]int64
}

// sub returns t - o, the totals of the interval between two snapshots.
func (t spanTotals) sub(o spanTotals) spanTotals {
	for k := range t.ns {
		t.ns[k] -= o.ns[k]
		t.calls[k] -= o.calls[k]
		t.pkts[k] -= o.pkts[k]
	}
	return t
}

// busy is the time the goroutine spent working: its batches minus the
// parts of them it spent idle.
func (t spanTotals) busy() int64 { return t.ns[spanBatch] - t.ns[spanWait] - t.ns[spanNap] }

// covered is the part of busy time inside a child span — the layers' self
// times. What is left is loop overhead the trace does not attribute.
func (t spanTotals) covered() int64 {
	return t.ns[spanFill] + t.ns[spanEnqueue] + t.ns[spanDequeue] + t.ns[spanPoll] + t.ns[spanTx]
}

// tracer belongs to one goroutine. A nil tracer is tracing switched off:
// every method is a no-op that does not read the clock.
type tracer struct {
	tid   int
	clock func() int64
	spanTotals
	batch int64
	start int64
	keep  bool
	spans []span

	// Phase marks: the generator asks (markReq), the tracer's own
	// goroutine copies its totals into the next mark at its next batch and
	// acknowledges (markAck). No allocation, no shared writes.
	markReq, markAck atomic.Int32
	marks            [8]spanTotals
}

func newTracer(tid int, clock func() int64) *tracer {
	return &tracer{tid: tid, clock: clock, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// begin opens the next batch.
func (t *tracer) begin() {
	if t == nil {
		return
	}
	t.batch++
	t.keep = t.batch%keepEvery == 0 && len(t.spans) < cap(t.spans)-8
	t.start = t.clock()
}

// add records one child span of the open batch.
func (t *tracer) add(k spanKind, start, end int64, pkts int) {
	if t == nil {
		return
	}
	t.ns[k] += end - start
	t.calls[k]++
	t.pkts[k] += int64(pkts)
	if t.keep {
		t.spans = append(t.spans, span{k, start, end, t.batch, pkts})
	}
}

// end closes the open batch.
func (t *tracer) end() {
	if t == nil {
		return
	}
	t.add(spanBatch, t.start, t.clock(), 0)
}

// serveIdleNap mirrors qdisc's unexported constant of the same name: how
// long a Serve worker sleeps when its group has nothing to drain.
const serveIdleNap = 50 * time.Microsecond

// tracedWorker is the benchmark's one-group drain loop, a mirror of
// qdisc.Server.worker (GroupDequeueBatch -> sink.Tx -> nap when empty)
// with a span around each call. It runs only in traced runs; end-to-end
// metrics are always measured against the real ServeWith fleet.
type tracedWorker struct {
	halt atomic.Bool
	done chan struct{}
	tr   *tracer
}

func startTracedWorker(f front, clock func() int64, sk *sink, tr *tracer) *tracedWorker {
	w := &tracedWorker{done: make(chan struct{}), tr: tr}
	go func() {
		defer close(w.done)
		out := make([]*pkt.Packet, enqRun)
		for !w.halt.Load() {
			tr.begin()
			t0 := tr.start
			k := f.GroupDequeueBatch(0, t0, out)
			t1 := clock()
			if k == 0 {
				tr.add(spanPoll, t0, t1, 0)
				time.Sleep(serveIdleNap)
				tr.add(spanNap, t1, clock(), 0)
			} else {
				tr.add(spanDequeue, t0, t1, k)
				sk.Tx(out[:k])
				tr.add(spanTx, t1, clock(), k)
				clear(out[:k])
			}
			tr.end()
			tr.serveMarks()
		}
	}()
	return w
}

func (w *tracedWorker) stop() {
	w.halt.Store(true)
	<-w.done
}

// serveMarks answers a pending mark request; the traced goroutine calls it
// once per batch.
func (t *tracer) serveMarks() {
	if r := t.markReq.Load(); r != t.markAck.Load() {
		t.marks[r-1] = t.spanTotals
		t.markAck.Store(r)
	}
}

// mark returns the totals of a tracer owned by another goroutine, as of
// that goroutine's next batch boundary. The worker loops at least once per
// idle nap, so the wait is about a millisecond at most.
func (t *tracer) mark() spanTotals {
	r := t.markReq.Add(1)
	for t.markAck.Load() != r {
		time.Sleep(50 * time.Microsecond)
	}
	return t.marks[r-1]
}

// writeChromeTrace writes the kept spans of all tracers as Chrome
// trace-event JSON (load in chrome://tracing or ui.perfetto.dev). Each
// event carries its batch id; the root of a batch is the "batch" event
// with the same id on the same thread.
func writeChromeTrace(path string, trs ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprint(bw, "[")
	first := true
	for _, t := range trs {
		for _, s := range t.spans {
			if !first {
				fmt.Fprint(bw, ",")
			}
			first = false
			parent := int64(-1)
			if s.kind != spanBatch {
				parent = s.batch
			}
			fmt.Fprintf(bw, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"batch\":%d,\"parent\":%d,\"pkts\":%d}}",
				spanNames[s.kind], t.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.batch, parent, s.pkts)
		}
	}
	fmt.Fprint(bw, "\n]\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
