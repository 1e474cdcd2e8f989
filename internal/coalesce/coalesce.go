// Package coalesce is the one continuous micro-batching queue of meraligner's
// network tiers: concurrent small submissions glue into shared calls, so a
// per-call cost is paid once per batching window instead of once per
// submitter. merserved (internal/service, items = reads, call = one engine
// dispatch over the resident index), the scatter/gather router
// (internal/cluster, call = one HTTP round-trip per shard) and the
// network-DHT client (internal/dhtnet, items = seed lookups, call = one
// lookup RPC per owner) all run this queue. It is the serving-tier form of
// the paper's aggregated remote stores: many small operations packed into
// one message.
//
// Batching is continuous, not clocked: when no call is running, the next
// queued submission dispatches immediately (an idle backend is never held
// hostage to a timer), and while a call is in flight new arrivals
// accumulate — the following call takes them all, up to MaxBatch items.
// Under concurrent load batches grow to the arrival rate with no tuning.
// The two knobs bound the trade: MaxBatch caps items per call, and MaxWait
// caps how long a queued submission may wait behind a busy call before an
// overlapping call is dispatched anyway (so one slow mega-batch cannot
// stall the queue).
//
// Admission control is a bound on queued items: a submission that would
// push the queue past Capacity is refused at once with ErrOverloaded (the
// HTTP tiers answer 429 + Retry-After), so latency stays bounded instead of
// the queue growing without limit under overload.
//
// A call runs under a group context that dies with the coalescer's base
// context or when every member's own context is done: one lone disconnect
// never kills its batchmates' call. Submissions already at batch size gain
// nothing from queueing and go through Direct, which shares the in-flight
// count (queued submissions coalesce behind it, Drain waits for it).
// Results that pin resources (merserved's catalog index) set
// Config.Release, which runs once the last member has released its window.
package coalesce

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel errors callers translate to their transport's statuses (the HTTP
// tiers map them to 429 + Retry-After and 503 draining).
var (
	// ErrOverloaded: the submission would push the queue past its admission
	// bound; the caller should shed load or retry later.
	ErrOverloaded = errors.New("coalesce: admission queue full")
	// ErrDraining: the coalescer no longer admits work.
	ErrDraining = errors.New("coalesce: draining")
)

// Func runs one coalesced call over the concatenated items of a batch.
type Func[T, R any] func(ctx context.Context, items []T) (R, error)

// Prepare lets the owner derive call-scoped context state from a batch's
// member contexts just before dispatch (the router uses this to stamp a
// carrier span context, adopting a lone member's trace so shard-side logs
// join up). A nil Prepare dispatches with the group context unchanged.
type Prepare func(ctx context.Context, members []context.Context) context.Context

// Stats receives the coalescer's observation hooks. Implementations must be
// concurrency-safe; a nil Stats disables observation.
type Stats interface {
	// ObserveBatch records one successful coalesced call: how many member
	// submissions shared it and how many items they contributed in total.
	ObserveBatch(requests, items int)
	// ObserveCanceled records a member whose context died before its share
	// of a call could be delivered.
	ObserveCanceled()
}

// Window is one submission's view of a coalesced call: the shared result
// plus this member's item range within the concatenated batch, and the
// timings needed to replay the queue wait into a request trace. The holder
// calls Release after its last use of Result; without Config.Release that
// is a no-op.
type Window[R any] struct {
	Result R
	Lo, Hi int // this member's items occupy batch positions [Lo, Hi)

	Enq      time.Time // when this member entered the queue
	Disp     time.Time // when its call dispatched
	Done     time.Time // when the call finished
	Requests int       // member submissions sharing the call

	ref *shared[R] // nil when the result needs no release
}

// Release drops this window's hold on the shared result; the last hold
// dropped runs Config.Release. Releasing a window twice is a no-op.
func (w *Window[R]) Release() {
	if r := w.ref; r != nil {
		w.ref = nil
		r.drop()
	}
}

// shared counts the holds on one successful call's result: the demux holds
// one while it delivers windows, each delivered window one more. The count
// only rises while the demux still holds its own, so it never climbs back
// from zero and release runs exactly once.
type shared[R any] struct {
	res     R
	release func(R)
	left    atomic.Int32
}

func (r *shared[R]) drop() {
	if r.left.Add(-1) == 0 {
		r.release(r.res)
	}
}

// pending is one queued submission.
type pending[T, R any] struct {
	ctx   context.Context
	items []T
	enq   time.Time
	win   *Window[R]
	err   error
	done  chan struct{}
}

// Config assembles a Coalescer. Call is required; everything else has a
// workable zero value except MaxBatch and Capacity, which bound batch size
// and admitted backlog and must be positive for the queue to admit anything.
type Config[T, R any] struct {
	Call     Func[T, R]
	MaxBatch int           // items per coalesced call
	MaxWait  time.Duration // window held open behind a busy call; <=0 disables
	Capacity int           // admission bound on queued items
	Stats    Stats         // optional observation hooks
	Prepare  Prepare       // optional pre-dispatch context hook

	// Release, when set, runs exactly once per successful call, after the
	// demux has finished and every delivered window has been released —
	// the hook for results that pin resources until every member is done
	// with them. Failed calls never reach it: Call must free whatever it
	// took before returning an error.
	Release func(R)
}

// Coalescer is the continuous micro-batching queue. Create with New; it owns
// one dispatcher goroutine until Close or Drain completes.
type Coalescer[T, R any] struct {
	call     Func[T, R]
	prepare  Prepare
	release  func(R)
	maxBatch int
	maxWait  time.Duration
	capacity int // admission bound on queued items
	base     context.Context
	st       Stats

	mu       sync.Mutex
	cond     *sync.Cond // broadcast on queue/inflight transitions
	queue    []*pending[T, R]
	queued   int // items queued
	inflight int // calls running
	closed   bool

	wake    chan struct{} // 1-buffered dispatcher kick
	stopped chan struct{} // dispatcher exited
}

// New starts a coalescer whose calls derive from base.
func New[T, R any](base context.Context, cfg Config[T, R]) *Coalescer[T, R] {
	c := &Coalescer[T, R]{
		call:     cfg.Call,
		prepare:  cfg.Prepare,
		release:  cfg.Release,
		maxBatch: cfg.MaxBatch,
		maxWait:  cfg.MaxWait,
		capacity: cfg.Capacity,
		base:     base,
		st:       cfg.Stats,
		wake:     make(chan struct{}, 1),
		stopped:  make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.run()
	return c
}

// QueuedItems reports the items currently waiting (for stats).
func (c *Coalescer[T, R]) QueuedItems() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queued
}

// Closed reports whether drain has started.
func (c *Coalescer[T, R]) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Direct runs one call over items without queueing — the path for a
// submission already at batch size, which gains nothing from waiting for
// batchmates. The call runs under the caller's own ctx with no Prepare, but
// counts as in flight: queued submissions coalesce behind it, and Drain
// waits for it. Like Submit, it refuses with ErrDraining once drain has
// begun, so no call starts after Drain saw the coalescer idle. Stats are
// not observed; the returned window (Requests 1) takes part in Release.
func (c *Coalescer[T, R]) Direct(ctx context.Context, items []T) (*Window[R], error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrDraining
	}
	c.inflight++
	c.mu.Unlock()
	defer c.callDone()

	start := time.Now()
	res, err := c.call(ctx, items)
	if err != nil {
		return nil, err
	}
	return &Window[R]{Result: res, Lo: 0, Hi: len(items), Enq: start, Disp: start, Done: time.Now(), Requests: 1, ref: c.share(res)}, nil
}

// share starts the hold count on one successful call's result with the
// caller's own hold, or returns nil when results need no release.
func (c *Coalescer[T, R]) share(res R) *shared[R] {
	if c.release == nil {
		return nil
	}
	r := &shared[R]{res: res, release: c.release}
	r.left.Store(1)
	return r
}

// callDone retires one in-flight call: Drain may now find the coalescer
// idle, and a window held open behind the call may dispatch.
func (c *Coalescer[T, R]) callDone() {
	c.mu.Lock()
	c.inflight--
	c.cond.Broadcast()
	c.mu.Unlock()
	c.kick()
}

// Submit enqueues one submission's items and blocks until its call completes
// or ctx is done.
func (c *Coalescer[T, R]) Submit(ctx context.Context, items []T) (*Window[R], error) {
	p := &pending[T, R]{ctx: ctx, items: items, enq: time.Now(), done: make(chan struct{})}
	c.mu.Lock()
	switch {
	case c.closed:
		c.mu.Unlock()
		return nil, ErrDraining
	case c.queued+len(items) > c.capacity:
		c.mu.Unlock()
		return nil, ErrOverloaded
	}
	c.queue = append(c.queue, p)
	c.queued += len(items)
	c.mu.Unlock()
	c.kick()

	select {
	case <-p.done:
		return p.win, p.err
	case <-ctx.Done():
		// The dispatcher observes the dead ctx at take or demux time and
		// discards this member's share; batchmates are unaffected. The demux
		// may still have delivered a window — both channels can be ready at
		// once — so release the orphan once the demux is done with it, or
		// the result would never be released.
		if c.release != nil {
			go func() {
				<-p.done
				if p.win != nil {
					p.win.Release()
				}
			}()
		}
		return nil, ctx.Err()
	}
}

// kick nudges the dispatcher without blocking.
func (c *Coalescer[T, R]) kick() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Close stops admission without waiting; the dispatcher flushes any
// remaining queue and exits. Safe to call more than once.
func (c *Coalescer[T, R]) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.kick()
}

// Drain stops admission and flushes: queued submissions still execute, then
// in-flight calls finish. Returns when empty or ctx expires.
func (c *Coalescer[T, R]) Drain(ctx context.Context) error {
	c.Close()

	idle := make(chan struct{})
	go func() {
		c.mu.Lock()
		for len(c.queue) > 0 || c.inflight > 0 {
			c.cond.Wait()
		}
		c.mu.Unlock()
		close(idle)
	}()
	select {
	case <-idle:
		<-c.stopped
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run is the dispatcher: one goroutine owning batch formation; executions
// are spawned so arrivals accumulate while a call is in flight.
func (c *Coalescer[T, R]) run() {
	defer close(c.stopped)
	for {
		if !c.waitForWork() {
			return
		}
		c.waitWindow()
		batch, items := c.take()
		if len(batch) > 0 {
			go c.execute(batch, items)
		}
	}
}

// waitForWork blocks until the queue is nonempty; false means closed with
// an empty queue.
func (c *Coalescer[T, R]) waitForWork() bool {
	for {
		c.mu.Lock()
		n, closed := len(c.queue), c.closed
		c.mu.Unlock()
		if n > 0 {
			return true
		}
		if closed {
			return false
		}
		<-c.wake
	}
}

// waitWindow holds the queue open for coalescing while a call is in flight,
// returning when no call is running, maxBatch items are queued, maxWait
// elapsed, or drain started.
func (c *Coalescer[T, R]) waitWindow() {
	if c.maxWait <= 0 {
		return
	}
	timer := time.NewTimer(c.maxWait)
	defer timer.Stop()
	for {
		c.mu.Lock()
		ready := c.queued >= c.maxBatch || c.closed || c.inflight == 0
		c.mu.Unlock()
		if ready {
			return
		}
		select {
		case <-timer.C:
			return
		case <-c.wake:
		}
	}
}

// take pops the next coalesced batch: pendings in arrival order up to
// maxBatch items (a lone oversized submission still goes whole); dead-ctx
// submissions complete with their error and never dispatch.
func (c *Coalescer[T, R]) take() ([]*pending[T, R], int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var batch []*pending[T, R]
	items := 0
	for len(c.queue) > 0 {
		p := c.queue[0]
		if err := p.ctx.Err(); err != nil {
			c.pop()
			p.err = err
			close(p.done)
			if c.st != nil {
				c.st.ObserveCanceled()
			}
			continue
		}
		if items > 0 && items+len(p.items) > c.maxBatch {
			break
		}
		c.pop()
		batch = append(batch, p)
		items += len(p.items)
	}
	if len(batch) > 0 {
		c.inflight++
	}
	c.cond.Broadcast()
	return batch, items
}

// pop removes the queue head (caller holds mu).
func (c *Coalescer[T, R]) pop() {
	p := c.queue[0]
	c.queue[0] = nil
	c.queue = c.queue[1:]
	c.queued -= len(p.items)
}

// execute runs one coalesced call and demuxes the shared result to every
// member by item range. A member whose ctx died mid-flight gets its ctx
// error (its share is discarded); the others are untouched.
func (c *Coalescer[T, R]) execute(batch []*pending[T, R], items int) {
	all := make([]T, 0, items)
	for _, p := range batch {
		all = append(all, p.items...)
	}
	ctx, cancel := groupContext(c.base, batch)
	if c.prepare != nil {
		members := make([]context.Context, len(batch))
		for i, p := range batch {
			members[i] = p.ctx
		}
		ctx = c.prepare(ctx, members)
	}
	disp := time.Now()
	res, err := c.call(ctx, all)
	finished := time.Now()
	cancel()
	if err == nil && c.st != nil {
		// Only completed calls count — failed or fully canceled batches
		// served nothing.
		c.st.ObserveBatch(len(batch), items)
	}
	var ref *shared[R] // the demux's hold, dropped after the loop
	if err == nil {
		ref = c.share(res)
	}

	lo := 0
	for _, p := range batch {
		hi := lo + len(p.items)
		switch {
		case err != nil:
			p.err = err
		case p.ctx.Err() != nil:
			p.err = p.ctx.Err()
			if c.st != nil {
				c.st.ObserveCanceled()
			}
		default:
			p.win = &Window[R]{Result: res, Lo: lo, Hi: hi, Enq: p.enq, Disp: disp, Done: finished, Requests: len(batch)}
			if ref != nil {
				ref.left.Add(1)
				p.win.ref = ref
			}
		}
		close(p.done)
		lo = hi
	}
	if ref != nil {
		ref.drop()
	}
	c.callDone()
}

// groupContext derives the call context of one coalesced batch: done when
// the base context is, or when every member's own context is — a lone
// disconnect never kills its batchmates' call. One AfterFunc per member
// counts the departures; the returned cancel unregisters them all.
func groupContext[T, R any](base context.Context, batch []*pending[T, R]) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(base)
	var left atomic.Int32
	left.Store(int32(len(batch)))
	stops := make([]func() bool, len(batch))
	for i, p := range batch {
		stops[i] = context.AfterFunc(p.ctx, func() {
			if left.Add(-1) == 0 {
				cancel()
			}
		})
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}
