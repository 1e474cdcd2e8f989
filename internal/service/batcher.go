package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// The dynamic micro-batcher: the core of merserved. Single-read and
// small-batch requests are queued and coalesced into shared engine calls;
// every member request then demuxes its own window of the shared Results.
// This is the MICA/SNAP serving shape over the paper's resident index:
// per-call engine overhead (pool spawn, phase accounting, stats merge) is
// paid once per coalesced call instead of once per request, so single-read
// throughput tracks the batch path's.
//
// Batching is continuous, not clocked: when the engine is idle, the next
// queued request dispatches immediately (an idle engine is never held
// hostage to a timer), and while an engine call is in flight new arrivals
// accumulate — the following call takes them all, up to maxBatch reads.
// Under concurrent load batches grow to the arrival rate with no tuning.
// The two knobs bound the trade: maxBatch caps reads per engine call, and
// maxWait caps how long a queued request may wait for a busy engine before
// an overlapping call is dispatched anyway (so one slow mega-batch cannot
// stall the queue).
//
// Admission control is a bound on queued reads: a submit that would push
// the queue past capacity is rejected immediately (the handler turns that
// into 429 + Retry-After), so latency stays bounded instead of the queue
// growing without limit under overload.

// Sentinel errors the handlers translate to HTTP statuses.
var (
	ErrOverloaded = errors.New("service: admission queue full")
	ErrDraining   = errors.New("service: draining")
)

// alignFunc runs one coalesced engine call. On success the returned
// engineCall owns one reference (the dispatcher's); on error any index pin
// the call took must already be released.
type alignFunc func(ctx context.Context, reads []meraligner.Seq) (*engineCall, error)

// engineCall is the outcome of one coalesced engine call plus the pin that
// keeps its index alive. SAM rendering dereferences the target sequence
// bytes, which live in the snapshot mapping — so a catalog-managed index
// evicted or hot-swapped out mid-response must not unmap until every
// member request has finished rendering. The refcount encodes exactly
// that: the dispatcher holds one reference while demuxing, each surviving
// member window holds one until its response is written, and release (the
// catalog Handle's) runs when the last reference drops. targets is
// captured from the pinned index at call time, so responses render against
// the index that actually served them even if the reference was swapped
// meanwhile.
type engineCall struct {
	res     *meraligner.Results
	targets []meraligner.Seq
	release func() // index pin release; nil for unmanaged (static) sources
	left    atomic.Int32
}

// newEngineCall wraps one completed engine call with the caller's single
// reference.
func newEngineCall(res *meraligner.Results, targets []meraligner.Seq, release func()) *engineCall {
	c := &engineCall{res: res, targets: targets, release: release}
	c.left.Store(1)
	return c
}

// retain adds one reference (a member window keeping the index pinned).
// It is only called while the caller still holds its own reference (the
// dispatcher drops its reference after the demux loop), so the count never
// rises from zero and a released pin is never resurrected.
func (c *engineCall) retain() { c.left.Add(1) }

// finish drops one reference, releasing the index pin on the last.
func (c *engineCall) finish() {
	if c.left.Add(-1) == 0 && c.release != nil {
		c.release()
	}
}

// window is one request's view of a coalesced engine call: the shared
// call (Results + pinned targets) and read slice of the whole call, plus
// this request's query range. Slice() rebases the range into a standalone
// per-request Results; SAM rendering streams the range straight from the
// shared Results via SAMStream.WriteRange. The holder must call finish()
// exactly once, after its last use of the call's Results or targets.
type window struct {
	call  *engineCall
	reads []meraligner.Seq
	lo    int
	hi    int

	// Trace material, stamped by the dispatcher (or the direct path):
	// when this request entered the queue, when its engine call
	// dispatched and completed, and how many member requests shared the
	// call. Plain timestamps — the batcher itself knows nothing about
	// traces.
	enq      time.Time
	disp     time.Time
	done     time.Time
	requests int
}

// record adds this request's queue-wait and engine spans to tr: the
// batch_wait span is the coalesce wait (enqueue to dispatch), the engine
// span the shared call itself, annotated with the call's aggregate read
// stats. nil traces and windows without timing (in-process callers) are
// no-ops.
func (w *window) record(tr *telemetry.Trace) {
	if tr == nil || w.disp.IsZero() {
		return
	}
	tr.Add("batch_wait", w.enq, w.disp.Sub(w.enq), func(sp *telemetry.Span) {
		sp.Requests = w.requests
		sp.Reads = w.hi - w.lo
	})
	tr.Add("engine", w.disp, w.done.Sub(w.disp), func(sp *telemetry.Span) {
		sp.Requests = w.requests
		sp.Reads = len(w.reads)
		sp.SWCalls = w.call.res.SWCalls
		sp.SeedLookups = w.call.res.SeedLookups
	})
}

// slice returns the request's own Results, rebased to its reads. The
// returned Results is heap-only (no mapped memory), so it outlives
// finish().
func (w *window) slice() *meraligner.Results { return w.call.res.Slice(w.lo, w.hi) }

// finish drops this window's reference on the shared engine call.
func (w *window) finish() { w.call.finish() }

// pending is one queued request.
type pending struct {
	ctx   context.Context
	reads []meraligner.Seq
	enq   time.Time // when submit queued it (queue-wait span material)
	win   *window
	err   error
	done  chan struct{}
}

// batcherStats are the micro-batcher's observation hooks (filled by the
// server's stats collector).
type batcherStats interface {
	observeBatch(requests, reads int)
	observeCanceled()
}

type batcher struct {
	align    alignFunc
	maxBatch int
	maxWait  time.Duration
	capacity int // admission bound on queued reads
	base     context.Context
	st       batcherStats

	mu       sync.Mutex
	cond     *sync.Cond // broadcast on queue/inflight transitions
	queue    []*pending
	queued   int // reads queued
	inflight int // engine calls running
	closed   bool

	wake    chan struct{} // 1-buffered dispatcher kick
	stopped chan struct{} // dispatcher exited
}

func newBatcher(base context.Context, align alignFunc, maxBatch int, maxWait time.Duration, capacity int, st batcherStats) *batcher {
	b := &batcher{
		align:    align,
		maxBatch: maxBatch,
		maxWait:  maxWait,
		capacity: capacity,
		base:     base,
		st:       st,
		wake:     make(chan struct{}, 1),
		stopped:  make(chan struct{}),
	}
	b.cond = sync.NewCond(&b.mu)
	go b.run()
	return b
}

// queuedReads reports the reads currently waiting (for stats).
func (b *batcher) queuedReads() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.queued
}

// isClosed reports whether drain has started.
func (b *batcher) isClosed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// inflightCalls reports engine calls currently running (for tests/stats).
func (b *batcher) inflightCalls() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inflight
}

// enterDirect/exitDirect bracket an engine call the batcher did not
// dispatch (the big-request direct path): the shared inflight count keeps
// window-holding honest — queued small requests coalesce behind a big
// direct call instead of dispatching into an already-saturated engine —
// and makes drain wait for direct calls too. Like submit, it refuses with
// ErrDraining once drain has begun, so no call starts after drain saw the
// batcher idle.
func (b *batcher) enterDirect() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrDraining
	}
	b.inflight++
	return nil
}

func (b *batcher) exitDirect() {
	b.mu.Lock()
	b.inflight--
	b.cond.Broadcast()
	b.mu.Unlock()
	b.kick() // the engine may be idle now: let a held window dispatch
}

// submit enqueues one request's reads and blocks until its batch completes
// or ctx is done. On success the returned window gives the request its
// share of the coalesced call.
func (b *batcher) submit(ctx context.Context, reads []meraligner.Seq) (*window, error) {
	p := &pending{ctx: ctx, reads: reads, enq: time.Now(), done: make(chan struct{})}
	b.mu.Lock()
	switch {
	case b.closed:
		b.mu.Unlock()
		return nil, ErrDraining
	case b.queued+len(reads) > b.capacity:
		b.mu.Unlock()
		return nil, ErrOverloaded
	}
	b.queue = append(b.queue, p)
	b.queued += len(reads)
	b.mu.Unlock()
	b.kick()

	select {
	case <-p.done:
		return p.win, p.err
	case <-ctx.Done():
		// The dispatcher observes the dead ctx at take or demux time and
		// discards this request's share; batchmates are unaffected. The
		// demux may still have assigned (and retained) a window for this
		// request — both channels can be ready at once — so finish the
		// orphan once the dispatcher is done with it, or the index pin
		// would leak.
		go func() {
			<-p.done
			if p.win != nil {
				p.win.finish()
			}
		}()
		return nil, ctx.Err()
	}
}

// kick nudges the dispatcher without blocking; coalesced signals are fine —
// the dispatcher always rechecks the queue.
func (b *batcher) kick() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// closeNow stops admission without waiting: the dispatcher flushes any
// remaining queue (against a presumably-canceled base context) and exits.
// Hard-stop companion of drain; safe to call more than once.
func (b *batcher) closeNow() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.kick()
}

// drain stops admission and flushes: queued requests still execute (in
// final batches), in-flight calls finish. It returns when the batcher is
// empty or ctx expires — on expiry the base context should be canceled by
// the caller to abort in-flight engine calls.
func (b *batcher) drain(ctx context.Context) error {
	b.closeNow()

	idle := make(chan struct{})
	go func() {
		b.mu.Lock()
		for len(b.queue) > 0 || b.inflight > 0 {
			b.cond.Wait()
		}
		b.mu.Unlock()
		close(idle)
	}()
	select {
	case <-idle:
		<-b.stopped
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run is the dispatcher: one goroutine owning batch formation. Executions
// are spawned asynchronously so arrivals keep accumulating while an engine
// call is in flight — the source of the coalescing.
func (b *batcher) run() {
	defer close(b.stopped)
	for {
		if !b.waitForWork() {
			return
		}
		b.waitWindow()
		batch, reads := b.take()
		if len(batch) > 0 {
			go b.execute(batch, reads)
		}
	}
}

// waitForWork blocks until the queue is nonempty; false means closed with
// an empty queue (time to exit).
func (b *batcher) waitForWork() bool {
	for {
		b.mu.Lock()
		n, closed := len(b.queue), b.closed
		b.mu.Unlock()
		if n > 0 {
			return true
		}
		if closed {
			return false
		}
		<-b.wake
	}
}

// waitWindow holds the queue open for coalescing while the engine is busy:
// it returns as soon as the engine is idle (an overlapping call may start
// immediately), when maxBatch reads are queued, when maxWait has elapsed
// since the window opened (bounding the wait behind one slow call), or
// when the batcher is draining (drain flushes immediately).
func (b *batcher) waitWindow() {
	if b.maxWait <= 0 {
		return
	}
	timer := time.NewTimer(b.maxWait)
	defer timer.Stop()
	for {
		b.mu.Lock()
		ready := b.queued >= b.maxBatch || b.closed || b.inflight == 0
		b.mu.Unlock()
		if ready {
			return
		}
		select {
		case <-timer.C:
			return
		case <-b.wake:
		}
	}
}

// take pops the next coalesced batch: pendings in arrival order up to
// maxBatch reads (a lone oversized request still goes through whole).
// Requests whose context died while queued are completed with their
// context's error and never reach the engine.
func (b *batcher) take() ([]*pending, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var batch []*pending
	reads := 0
	for len(b.queue) > 0 {
		p := b.queue[0]
		if err := p.ctx.Err(); err != nil {
			b.pop()
			p.err = err
			close(p.done)
			if b.st != nil {
				b.st.observeCanceled()
			}
			continue
		}
		if reads > 0 && reads+len(p.reads) > b.maxBatch {
			break
		}
		b.pop()
		batch = append(batch, p)
		reads += len(p.reads)
	}
	if len(batch) > 0 {
		b.inflight++
	}
	b.cond.Broadcast()
	return batch, reads
}

// pop removes the queue head (caller holds mu).
func (b *batcher) pop() {
	p := b.queue[0]
	b.queue[0] = nil
	b.queue = b.queue[1:]
	b.queued -= len(p.reads)
}

// execute runs one coalesced engine call and demuxes the shared Results to
// every member. A member whose client disconnected mid-flight gets its
// context error (its share is discarded); the others are untouched.
func (b *batcher) execute(batch []*pending, reads int) {
	all := make([]meraligner.Seq, 0, reads)
	for _, p := range batch {
		all = append(all, p.reads...)
	}
	ctx, cancel := groupContext(b.base, batch)
	disp := time.Now()
	call, err := b.align(ctx, all)
	finished := time.Now()
	cancel()
	if err == nil && b.st != nil {
		// Only completed calls count, matching the direct path — failed or
		// fully-canceled batches served nothing.
		b.st.observeBatch(len(batch), reads)
	}

	lo := 0
	for _, p := range batch {
		hi := lo + len(p.reads)
		switch {
		case err != nil:
			p.err = err
		case p.ctx.Err() != nil:
			p.err = p.ctx.Err()
			if b.st != nil {
				b.st.observeCanceled()
			}
		default:
			call.retain() // the member's reference, dropped by win.finish
			p.win = &window{call: call, reads: all, lo: lo, hi: hi,
				enq: p.enq, disp: disp, done: finished, requests: len(batch)}
		}
		close(p.done)
		lo = hi
	}
	if call != nil {
		call.finish() // the dispatcher's reference from alignFunc
	}

	b.mu.Lock()
	b.inflight--
	b.cond.Broadcast()
	b.mu.Unlock()
	b.kick() // the engine may be idle now: let a held window dispatch
}

// groupContext derives the engine context of one coalesced call: it dies
// when the server's base context does, or when every member request's own
// context is done — one surviving client keeps the batch alive; a lone
// disconnect never kills its batchmates' work.
func groupContext(base context.Context, batch []*pending) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(base)
	var left atomic.Int32
	left.Store(int32(len(batch)))
	for _, p := range batch {
		go func(done <-chan struct{}) {
			select {
			case <-done:
				if left.Add(-1) == 0 {
					cancel()
				}
			case <-ctx.Done():
			}
		}(p.ctx.Done())
	}
	return ctx, cancel
}
