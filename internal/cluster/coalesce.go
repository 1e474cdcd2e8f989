package cluster

import (
	"context"
	"strconv"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/coalesce"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// The router's micro-batcher: the generic internal/coalesce queue pointed at
// the fleet. Concurrent single-read requests glue into shared scatters, so
// the per-scatter cost — one HTTP round-trip per shard — is paid once per
// batching window instead of once per request. What remains here is the
// router-specific dressing: the scatter span-context carrier, and the
// trace-replay of a window into a request's telemetry.

// Sentinel errors the handlers translate to HTTP statuses (same statuses as
// the single node: 429 + Retry-After, 503 draining).
var (
	errOverloaded = coalesce.ErrOverloaded
	errDraining   = coalesce.ErrDraining
)

// scatterFunc runs one coalesced scatter across the fleet and returns the
// merged outcome.
type scatterFunc func(ctx context.Context, reads []meraligner.Seq) (*gather, error)

// cwindow is one request's view of a coalesced scatter: the shared merged
// gather plus this request's read range within it, and the timing needed
// to replay the scatter into the request's trace.
type cwindow struct {
	g  *gather
	lo int
	hi int

	enq      time.Time // when this request entered the queue
	disp     time.Time // when its scatter dispatched
	done     time.Time // when the scatter finished
	requests int       // member requests sharing the scatter
}

// record replays the window into a request trace: the queue wait as a
// batch_wait span, then one rpc span per shard call of the scatter (with
// the carrier trace ID as Link, so shard-side logs can be joined).
func (w *cwindow) record(tr *telemetry.Trace) {
	if tr == nil || w.disp.IsZero() {
		return
	}
	tr.Add("batch_wait", w.enq, w.disp.Sub(w.enq), func(sp *telemetry.Span) {
		sp.Requests = w.requests
		sp.Reads = w.hi - w.lo
	})
	for i := range w.g.calls {
		c := &w.g.calls[i]
		tr.Add("rpc", c.start, c.dur, func(sp *telemetry.Span) {
			sp.Shard = strconv.Itoa(c.shard)
			sp.Replica = strconv.Itoa(c.replica)
			sp.Addr = c.addr
			sp.Retries = c.attempts - 1
			sp.Hedged = c.hedged
			sp.Link = w.g.carrier
			if c.err != nil {
				sp.Status = "error"
				sp.Error = c.err.Error()
			}
		})
	}
}

// coalescerStats are the coalescer's observation hooks.
type coalescerStats interface {
	observeBatch(requests, reads int)
	observeCanceled()
}

// statsAdapter bridges the router's unexported hooks to coalesce.Stats.
type statsAdapter struct{ st coalescerStats }

func (a statsAdapter) ObserveBatch(requests, items int) { a.st.observeBatch(requests, items) }
func (a statsAdapter) ObserveCanceled()                 { a.st.observeCanceled() }

// coalescer wraps the generic queue with the router's read/gather types.
type coalescer struct {
	q *coalesce.Coalescer[meraligner.Seq, *gather]
}

func newCoalescer(base context.Context, scatter scatterFunc, maxBatch int, maxWait time.Duration, capacity int, st coalescerStats) *coalescer {
	var stats coalesce.Stats
	if st != nil {
		stats = statsAdapter{st}
	}
	q := coalesce.New(base, coalesce.Config[meraligner.Seq, *gather]{
		Call:     coalesce.Func[meraligner.Seq, *gather](scatter),
		MaxBatch: maxBatch,
		MaxWait:  maxWait,
		Capacity: capacity,
		Stats:    stats,
		Prepare:  scatterCarrier,
	})
	return &coalescer{q: q}
}

// scatterCarrier stamps a carrier span context on the scatter so shard-side
// logs can be correlated: a lone member's own trace travels to the shards
// intact; a multi-request batch gets a fresh carrier trace, recorded as Link
// on each member's rpc spans.
func scatterCarrier(ctx context.Context, members []context.Context) context.Context {
	var carrier telemetry.SpanContext
	if len(members) == 1 {
		if tr := telemetry.TraceFrom(members[0]); tr != nil {
			carrier = tr.SpanContext().ChildOf()
		} else {
			carrier = telemetry.NewSpanContext()
		}
	} else {
		carrier = telemetry.NewSpanContext()
	}
	return telemetry.WithSpanContext(ctx, carrier)
}

// queuedReads reports the reads currently waiting (for stats).
func (c *coalescer) queuedReads() int { return c.q.QueuedItems() }

// isClosed reports whether drain has started.
func (c *coalescer) isClosed() bool { return c.q.Closed() }

func (c *coalescer) enterDirect() error { return c.q.EnterDirect() }
func (c *coalescer) exitDirect()        { c.q.ExitDirect() }

// submit enqueues one request's reads and blocks until its scatter
// completes or ctx is done.
func (c *coalescer) submit(ctx context.Context, reads []meraligner.Seq) (*cwindow, error) {
	w, err := c.q.Submit(ctx, reads)
	if err != nil {
		return nil, err
	}
	return &cwindow{
		g: w.Result, lo: w.Lo, hi: w.Hi,
		enq: w.Enq, disp: w.Disp, done: w.Done, requests: w.Requests,
	}, nil
}

// closeNow stops admission without waiting.
func (c *coalescer) closeNow() { c.q.Close() }

// drain stops admission and flushes: queued requests still execute, then
// in-flight scatters finish. Returns when empty or ctx expires.
func (c *coalescer) drain(ctx context.Context) error { return c.q.Drain(ctx) }
