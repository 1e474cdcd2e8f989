package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lbl-repro/meraligner/internal/service"
)

const (
	// p99LimitMs is the latency limit a ladder step must meet for
	// max_rate_rps.
	p99LimitMs = 50.0
	// requestTimeout bounds one request from its due time. A request that
	// takes longer is cancelled and counted as failed; its latency is
	// recorded as the timeout, so it misses any limit below it.
	requestTimeout = time.Second
	// maxLagMs is the generator lag bound: a step whose p99 dispatch lag
	// exceeds it ran off schedule and is marked invalid. The generator
	// shares two CPUs with the engine, and Go preempts a running goroutine
	// only after 10 ms, so lag up to two such slices is scheduling noise.
	maxLagMs = 20.0
	// maxInflight caps the load side's concurrent requests. A request due
	// while the cap is reached is refused by the load side and counted as
	// failed: the system has fallen a whole second's work behind.
	maxInflight = 1024
	// reportedRequests is the request count of the low and high steps:
	// enough for a p99 with ten samples beyond it.
	reportedRequests = 1000
	// probeSeconds is the length of each step above the high one, which
	// only decides max_rate_rps.
	probeSeconds = 0.8
)

// requestFunc sends one request body and reports whether it succeeded.
type requestFunc func(ctx context.Context, body []byte) error

// discardResponse is an http.ResponseWriter that keeps the status and,
// when asked, the body.
type discardResponse struct {
	hdr    http.Header
	status int
	body   *bytes.Buffer // nil unless the caller wants the body
}

func (d *discardResponse) Header() http.Header { return d.hdr }
func (d *discardResponse) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}
func (d *discardResponse) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	if d.body != nil {
		d.body.Write(p)
	}
	return len(p), nil
}

// serveSAM posts one FASTQ body to the service's /v1/align in process,
// asking for SAM, and returns the response body when keep is set.
func serveSAM(ctx context.Context, srv *service.Server, body []byte, keep bool) ([]byte, error) {
	req := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/align", bytes.NewReader(body))
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("Accept", "text/x-sam")
	rw := &discardResponse{hdr: make(http.Header)}
	if keep {
		rw.body = &bytes.Buffer{}
	}
	srv.ServeHTTP(rw, req)
	if rw.status != http.StatusOK {
		return nil, fmt.Errorf("status %d", rw.status)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if keep {
		return rw.body.Bytes(), nil
	}
	return nil, nil
}

// stepResult is one open-loop step.
type stepResult struct {
	step
	N     int
	Start time.Time
	Lat   latencySummary // milliseconds from each request's due time
	LagMs latencySummary // how late the generator dispatched
}

// runStep offers n requests at rate, each due at start+i/rate, taking
// bodies in turn from next. Latency runs from the due time, so a stall
// delays every request scheduled behind it.
func runStep(ctx context.Context, rate float64, n int, bodies [][]byte, next *int, do requestFunc) stepResult {
	lat := make([]float64, n)
	lag := make([]float64, n)
	var failed atomic.Int64
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag[i] = float64(time.Since(due)) / 1e6
		body := bodies[*next%len(bodies)]
		*next++
		if inflight.Load() >= maxInflight {
			failed.Add(1)
			lat[i] = float64(requestTimeout) / 1e6
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			rctx, cancel := context.WithDeadline(ctx, due.Add(requestTimeout))
			err := do(rctx, body)
			cancel()
			d := time.Since(due)
			if err != nil || d > requestTimeout {
				failed.Add(1)
				d = requestTimeout
			}
			lat[i] = float64(d) / 1e6
		}(i, due)
	}
	wg.Wait()
	r := stepResult{N: n, Start: start}
	r.Lat = summarize(lat)
	r.LagMs = summarize(lag)
	r.step = step{Rate: rate, Failed: int(failed.Load()), P99Ms: r.Lat.P99, Valid: r.LagMs.P99 <= maxLagMs}
	return r
}

// ladderResult is the whole open-loop phase.
type ladderResult struct {
	steps     []stepResult
	low, high stepResult
	maxRate   float64
	attempted int
	wall      float64
}

// runLadder runs the low and high steps (the first two), then climbs the remaining rates
// until one misses, and derives max_rate_rps. onStep, when set, runs after
// each step (the traced run reads the service's spans there).
func runLadder(ctx context.Context, w workload, bodies [][]byte, do requestFunc, onStep func(i int, r stepResult)) ladderResult {
	var out ladderResult
	t0 := time.Now()
	next := 0
	var plain []step
	for i, rate := range w.ladder() {
		n := reportedRequests
		if i >= 2 {
			n = int(rate * probeSeconds)
		}
		r := runStep(ctx, rate, n, bodies, &next, do)
		out.steps = append(out.steps, r)
		out.attempted += r.N
		plain = append(plain, r.step)
		if onStep != nil {
			onStep(i, r)
		}
		switch i {
		case 0:
			out.low = r
		case 1:
			out.high = r
		}
		if i >= 1 && (r.Failed > 0 || !(r.P99Ms <= p99LimitMs) || !r.Valid) {
			break
		}
	}
	out.maxRate = maxRate(plain, p99LimitMs)
	out.wall = time.Since(t0).Seconds()
	return out
}

// closedLoopClients is the number of concurrent closed-loop clients of
// serve-open's end-to-end run: enough to keep the engine busy and let
// requests coalesce, and few enough that admission never refuses one.
const closedLoopClients = 16

// closedLoopWindow is the interval over which one served-throughput
// sample is taken; reads_per_s is the median sample.
const closedLoopWindow = 500 * time.Millisecond

type closedLoopResult struct {
	rates            []float64 // reads/s per window
	reads            int
	requests, failed int
	cpu              float64
}

// closedLoop sends request bodies of readsPer reads from closedLoopClients
// clients, each sending its next request when the previous one has
// completed, for seconds seconds.
func closedLoop(ctx context.Context, sys *system, bodies [][]byte, readsPer int, seconds float64) (closedLoopResult, error) {
	var out closedLoopResult
	windows := int(math.Ceil(seconds / closedLoopWindow.Seconds()))
	perWindow := make([]atomic.Int64, windows)
	var next, requests, failed atomic.Int64
	c0 := cpuSeconds()
	t0 := time.Now()
	end := t0.Add(time.Duration(windows) * closedLoopWindow)
	var wg sync.WaitGroup
	for c := 0; c < closedLoopClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := next.Add(1) - 1
				body := bodies[i%int64(len(bodies))]
				requests.Add(1)
				rctx, cancel := context.WithTimeout(ctx, requestTimeout)
				err := sys.serveRequest(rctx, body)
				cancel()
				done := time.Since(t0)
				if err != nil {
					failed.Add(1)
					continue
				}
				if wi := int(done / closedLoopWindow); wi < windows {
					perWindow[wi].Add(int64(readsPer))
				}
			}
		}()
	}
	wg.Wait()
	out.cpu = cpuSeconds() - c0
	for i := range perWindow {
		n := perWindow[i].Load()
		out.reads += int(n)
		out.rates = append(out.rates, float64(n)/closedLoopWindow.Seconds())
	}
	out.requests, out.failed = int(requests.Load()), int(failed.Load())
	if out.reads == 0 {
		return out, fmt.Errorf("closed loop completed no request")
	}
	return out, nil
}
