package coalesce

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitUntil polls cond until it holds, failing the test after 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// blockingCall returns a Call whose every invocation announces itself on
// starts (handing the test its private release channel) and blocks until
// released — the deterministic way to hold the backend busy so arrivals
// coalesce behind it. The result is the call's batch size.
func blockingCall() (Func[int, int], chan chan struct{}) {
	starts := make(chan chan struct{})
	return func(ctx context.Context, batch []int) (int, error) {
		release := make(chan struct{})
		starts <- release
		select {
		case <-release:
			return len(batch), nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}, starts
}

type submitResult struct {
	win *Window[int]
	err error
}

// submitAsync runs one Submit in the background.
func submitAsync(c *Coalescer[int, int], ctx context.Context, n int) chan submitResult {
	out := make(chan submitResult, 1)
	go func() {
		w, err := c.Submit(ctx, make([]int, n))
		out <- submitResult{w, err}
	}()
	return out
}

func TestQueuedCancelDropsOnlyThatRequest(t *testing.T) {
	// A and B queue behind a busy call; A's ctx dies while still queued.
	// The next batch must carry only B.
	call, starts := blockingCall()
	c := New(context.Background(), Config[int, int]{Call: call, MaxBatch: 64, MaxWait: time.Second, Capacity: 1024})

	primer := submitAsync(c, context.Background(), 1)
	relPrimer := <-starts // backend now busy with the primer

	ctxA, cancelA := context.WithCancel(context.Background())
	resA := submitAsync(c, ctxA, 1)
	waitUntil(t, "A to queue", func() bool { return c.QueuedItems() == 1 })
	resB := submitAsync(c, context.Background(), 2)
	waitUntil(t, "B to queue", func() bool { return c.QueuedItems() == 3 })

	cancelA()
	ra := <-resA
	if !errors.Is(ra.err, context.Canceled) {
		t.Fatalf("canceled request returned %v, want context.Canceled", ra.err)
	}
	close(relPrimer)
	if pr := <-primer; pr.err != nil {
		t.Fatalf("primer failed: %v", pr.err)
	}
	close(<-starts) // release the follow-up batch (B, with A dropped)
	rb := <-resB
	if rb.err != nil {
		t.Fatalf("batchmate failed: %v", rb.err)
	}
	if rb.win == nil || rb.win.Hi-rb.win.Lo != 2 || rb.win.Result != 2 {
		t.Fatalf("B's window should hold exactly its own 2 items (A dropped at take): %+v", rb.win)
	}
	if err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestMidFlightDisconnectCancelsOnlyThatRequest(t *testing.T) {
	// A and B coalesce into one call (formed behind a busy primer); A's ctx
	// dies while that call is in flight. B's share must be intact, and the
	// call's context must survive (one member remains).
	call, starts := blockingCall()
	c := New(context.Background(), Config[int, int]{Call: call, MaxBatch: 8, MaxWait: time.Second, Capacity: 64})

	primer := submitAsync(c, context.Background(), 1)
	relPrimer := <-starts

	ctxA, cancelA := context.WithCancel(context.Background())
	resA := submitAsync(c, ctxA, 1)
	waitUntil(t, "A to queue first", func() bool { return c.QueuedItems() == 1 })
	resB := submitAsync(c, context.Background(), 2)
	waitUntil(t, "B to queue behind A", func() bool { return c.QueuedItems() == 3 })

	close(relPrimer)
	relAB := <-starts // the coalesced [A,B] call is now in flight
	cancelA()
	ra := <-resA // A unblocks immediately on its own ctx
	if !errors.Is(ra.err, context.Canceled) {
		t.Fatalf("canceled member got %v, want context.Canceled", ra.err)
	}
	close(relAB)
	rb := <-resB
	if rb.err != nil || rb.win == nil {
		t.Fatalf("surviving member got (%+v, %v), want its window", rb.win, rb.err)
	}
	if rb.win.Lo != 1 || rb.win.Hi != 3 {
		t.Fatalf("surviving member window [%d,%d), want [1,3)", rb.win.Lo, rb.win.Hi)
	}
	if pr := <-primer; pr.err != nil {
		t.Fatalf("primer failed: %v", pr.err)
	}
	if err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestAllMembersGoneCancelsEngineCall(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	call := func(ctx context.Context, batch []int) (int, error) {
		entered <- struct{}{}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-release:
			return len(batch), nil
		}
	}
	c := New(context.Background(), Config[int, int]{Call: call, MaxBatch: 8, MaxWait: 20 * time.Millisecond, Capacity: 64})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Submit(ctx, make([]int, 1))
		done <- err
	}()
	<-entered
	cancel() // the only member leaves: the call must die with it
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit returned %v, want context.Canceled", err)
	}
	if err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(release)
}

// TestDirectPathRefusedAfterDrain: a Direct call running before Drain holds
// Drain open until it returns; once Drain has begun, Direct refuses with
// ErrDraining (as Submit does), so no call can start after Drain reported
// the coalescer idle.
func TestDirectPathRefusedAfterDrain(t *testing.T) {
	call, starts := blockingCall()
	c := New(context.Background(), Config[int, int]{Call: call, MaxBatch: 4, Capacity: 16})
	direct := make(chan submitResult, 1)
	go func() {
		w, err := c.Direct(context.Background(), make([]int, 5))
		direct <- submitResult{w, err}
	}()
	relDirect := <-starts // the direct call is in flight

	drained := make(chan error, 1)
	go func() { drained <- c.Drain(context.Background()) }()
	waitUntil(t, "drain to begin", c.Closed)
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while a direct call was in flight", err)
	default:
	}
	refuseDirect(t, c, starts, "after drain began")
	close(relDirect)
	rd := <-direct
	if rd.err != nil || rd.win == nil {
		t.Fatalf("direct call got (%+v, %v), want its window", rd.win, rd.err)
	}
	if rd.win.Lo != 0 || rd.win.Hi != 5 || rd.win.Result != 5 || rd.win.Requests != 1 {
		t.Fatalf("direct window %+v, want [0,5) of a 5-item call serving 1 request", rd.win)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	refuseDirect(t, c, starts, "after drain finished")
}

// refuseDirect asserts that a Direct call is refused with ErrDraining
// without its call ever starting.
func refuseDirect(t *testing.T, c *Coalescer[int, int], starts chan chan struct{}, when string) {
	t.Helper()
	refused := make(chan error, 1)
	go func() {
		_, err := c.Direct(context.Background(), make([]int, 5))
		refused <- err
	}()
	select {
	case err := <-refused:
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("Direct %s: %v, want ErrDraining", when, err)
		}
	case rel := <-starts:
		close(rel)
		t.Fatalf("Direct %s started a call", when)
	}
}

// callResult is one call's shared result in TestReleaseExactlyOnce.
type callResult struct {
	ok       bool         // the call succeeded
	released atomic.Int32 // Release invocations
}

// TestReleaseExactlyOnce drives concurrent Submits — some with contexts
// canceled before, during and after dispatch, some carrying a poison item
// that fails their whole call — plus Direct calls, and checks the Release
// contract: exactly once per successful call, never while a delivered
// window is still held, never for a failed call.
func TestReleaseExactlyOnce(t *testing.T) {
	const poison = -1
	var (
		mu    sync.Mutex
		calls []*callResult
	)
	call := func(ctx context.Context, items []int) (*callResult, error) {
		r := &callResult{}
		mu.Lock()
		calls = append(calls, r)
		mu.Unlock()
		select {
		case <-time.After(time.Duration(rand.Intn(300)) * time.Microsecond):
		case <-ctx.Done():
			return r, ctx.Err()
		}
		for _, it := range items {
			if it == poison {
				return r, errors.New("poisoned batch")
			}
		}
		r.ok = true
		return r, nil
	}
	release := func(r *callResult) {
		if !r.ok {
			t.Errorf("Release ran for a failed call")
		}
		if n := r.released.Add(1); n != 1 {
			t.Errorf("Release ran %d times for one call", n)
		}
	}
	c := New(context.Background(), Config[int, *callResult]{
		Call: call, MaxBatch: 16, MaxWait: 200 * time.Microsecond, Capacity: 1 << 20, Release: release,
	})

	// hold checks a delivered window against premature release, holds it
	// briefly, checks again, and releases it.
	hold := func(w *Window[*callResult]) {
		if w.Result.released.Load() != 0 {
			t.Errorf("result released before its delivered window")
		}
		time.Sleep(time.Duration(rand.Intn(200)) * time.Microsecond)
		if w.Result.released.Load() != 0 {
			t.Errorf("result released while a delivered window was held")
		}
		w.Release()
		w.Release() // a second release of one window is a no-op
	}

	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 25; op++ {
				items := make([]int, 1+rng.Intn(4))
				if rng.Intn(10) == 0 {
					items[0] = poison
				}
				ctx, cancel := context.WithCancel(context.Background())
				var (
					w   *Window[*callResult]
					err error
				)
				switch rng.Intn(6) {
				case 0: // canceled before submission
					cancel()
					w, err = c.Submit(ctx, items)
				case 1: // canceled while queued or in flight
					time.AfterFunc(time.Duration(rng.Intn(400))*time.Microsecond, cancel)
					w, err = c.Submit(ctx, items)
				case 2: // a direct call
					w, err = c.Direct(ctx, make([]int, 16))
				default: // canceled only after delivery
					w, err = c.Submit(ctx, items)
				}
				if err == nil {
					hold(w)
				}
				cancel()
			}
		}(int64(g))
	}
	wg.Wait()
	if err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Windows orphaned by a dead ctx are released asynchronously once their
	// demux finishes; give them a moment to land.
	mu.Lock()
	defer mu.Unlock()
	waitUntil(t, "every successful call to be released", func() bool {
		for _, r := range calls {
			if r.ok && r.released.Load() == 0 {
				return false
			}
		}
		return true
	})
	var ok, failed int
	for _, r := range calls {
		if r.ok {
			ok++
		} else {
			failed++
		}
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("workload exercised %d successful and %d failed calls; want both", ok, failed)
	}
	if provokeOrphans(t, release) == 0 {
		t.Log("no orphaned window was provoked; the orphan release path went unchecked")
	}
}

// canceledCount is a Stats that counts ObserveCanceled.
type canceledCount struct{ n atomic.Int64 }

func (s *canceledCount) ObserveBatch(int, int) {}
func (s *canceledCount) ObserveCanceled()      { s.n.Add(1) }

// provokeOrphans drives the one race no hook can order: a member's ctx
// dying after the demux delivered its window but before Submit saw it, so
// Submit returns the ctx error and the window is left to the queue to
// release. Each call cancels its members' contexts asynchronously as it
// returns; rounds repeat until some orphans were seen (a Submit failing
// with its ctx error that the queue did not count as canceled), and the
// Release contract is then checked for every call. It returns the orphan
// count.
func provokeOrphans(t *testing.T, release func(*callResult)) int64 {
	const members = 8
	var (
		mu      sync.Mutex
		calls   []*callResult
		cancels [members]context.CancelFunc
		st      canceledCount
	)
	call := func(_ context.Context, items []int) (*callResult, error) {
		r := &callResult{ok: true}
		mu.Lock()
		calls = append(calls, r)
		for _, id := range items {
			go cancels[id]()
		}
		mu.Unlock()
		return r, nil
	}
	var ctxErrs atomic.Int64
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && ctxErrs.Load()-st.n.Load() < 3 {
		// A fresh queue per round: its Drain settles the round's cancel
		// counts, which may land after the Submits returned.
		c := New(context.Background(), Config[int, *callResult]{
			Call: call, MaxBatch: members, MaxWait: time.Millisecond, Capacity: members, Stats: &st, Release: release,
		})
		var wg sync.WaitGroup
		for id := 0; id < members; id++ {
			ctx, cancel := context.WithCancel(context.Background())
			mu.Lock()
			cancels[id] = cancel
			mu.Unlock()
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				defer cancel()
				w, err := c.Submit(ctx, []int{id})
				switch {
				case err == nil:
					w.Release()
				case errors.Is(err, context.Canceled):
					ctxErrs.Add(1)
				default:
					t.Errorf("Submit: %v", err)
				}
			}(id)
		}
		wg.Wait()
		if err := c.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	waitUntil(t, "every orphaned window to be released", func() bool {
		for _, r := range calls {
			if r.released.Load() == 0 {
				return false
			}
		}
		return true
	})
	return ctxErrs.Load() - st.n.Load()
}
