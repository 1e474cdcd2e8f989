package cluster

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// Router observability: lock-free counters and the shared telemetry.Hist
// latency histograms, mirroring internal/service's scheme (same bucket
// layout, same quantile estimator) so a merrouted dashboard reads like a
// merserved one.

// routerStats aggregates the router's live counters. It implements
// coalesce.Stats for the micro-batcher's observations.
type routerStats struct {
	start time.Time

	requests atomic.Int64 // align requests served to completion
	rejected atomic.Int64 // 429s (admission queue full)
	canceled atomic.Int64 // client disconnects
	reads    atomic.Int64 // reads accepted for scattering
	tooShort atomic.Int64 // reads rejected as shorter than K

	degradedServed atomic.Int64 // partial responses served (partial policy)
	failedRequests atomic.Int64 // requests failed on shard errors

	primaries        atomic.Int64 // first-choice replica launches (hedge budget base)
	failovers        atomic.Int64 // launches on another replica after a failure
	hedges           atomic.Int64 // speculative second-replica launches
	hedgeWins        atomic.Int64 // hedges that answered before the primary
	deadlineRejected atomic.Int64 // requests rejected as doomed by their deadline

	batches          atomic.Int64 // scatters issued by the coalescer
	batchedReads     atomic.Int64 // reads across those scatters
	coalescedBatches atomic.Int64 // scatters gluing >= 2 requests
	maxBatchReads    atomic.Int64 // largest scatter seen

	reqLatency telemetry.Hist // request wall time, enqueue -> response ready
}

func newRouterStats() *routerStats { return &routerStats{start: time.Now()} }

func (s *routerStats) ObserveBatch(requests, reads int) {
	s.batches.Add(1)
	s.batchedReads.Add(int64(reads))
	if requests >= 2 {
		s.coalescedBatches.Add(1)
	}
	for {
		cur := s.maxBatchReads.Load()
		if int64(reads) <= cur || s.maxBatchReads.CompareAndSwap(cur, int64(reads)) {
			return
		}
	}
}

func (s *routerStats) ObserveCanceled() { s.canceled.Add(1) }

// snapshot renders the wire RouterStats counters (identity, readiness, and
// the shard list are filled in by the Router).
func (s *routerStats) snapshot() client.RouterStats {
	st := client.RouterStats{
		Requests:         s.requests.Load(),
		Rejected:         s.rejected.Load(),
		Canceled:         s.canceled.Load(),
		Reads:            s.reads.Load(),
		TooShort:         s.tooShort.Load(),
		DegradedServed:   s.degradedServed.Load(),
		FailedRequests:   s.failedRequests.Load(),
		Failovers:        s.failovers.Load(),
		Hedges:           s.hedges.Load(),
		HedgeWins:        s.hedgeWins.Load(),
		DeadlineRejected: s.deadlineRejected.Load(),
		Batches:          s.batches.Load(),
		BatchedReads:     s.batchedReads.Load(),
		CoalescedBatches: s.coalescedBatches.Load(),
		MaxBatchReads:    s.maxBatchReads.Load(),
		RequestP50Ms:     s.reqLatency.Quantile(0.50) / 1e6,
		RequestP99Ms:     s.reqLatency.Quantile(0.99) / 1e6,
	}
	if st.Batches > 0 {
		st.MeanBatchReads = float64(st.BatchedReads) / float64(st.Batches)
	}
	return st
}

// writeMetrics renders the router's Prometheus text exposition:
// merrouted_* request/coalescing series shaped like merserved_*, the
// per-shard merrouted_shard_* series labeled {shard="id",addr="..."},
// native cumulative histograms, and the Go runtime gauges. req and
// shardLat are the request and per-shard RPC latency histogram
// snapshots; shardLat is indexed like st.Shards.
func writeMetrics(w io.Writer, st client.RouterStats, req telemetry.HistSnapshot, shardLat []telemetry.HistSnapshot) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	b01 := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	counter("merrouted_requests_total", "align requests served to completion", st.Requests)
	counter("merrouted_rejected_total", "requests rejected with 429 (queue full)", st.Rejected)
	counter("merrouted_canceled_total", "requests canceled by client disconnect", st.Canceled)
	counter("merrouted_reads_total", "reads accepted for scattering", st.Reads)
	counter("merrouted_too_short_reads_total", "reads rejected as shorter than K", st.TooShort)
	counter("merrouted_degraded_requests_total", "partial responses served under the partial policy", st.DegradedServed)
	counter("merrouted_failed_requests_total", "requests failed on shard errors", st.FailedRequests)
	counter("merrouted_failovers_total", "scatters re-launched on another replica after a failure", st.Failovers)
	counter("merrouted_hedges_total", "speculative second-replica launches", st.Hedges)
	counter("merrouted_hedge_wins_total", "hedged launches that answered before the primary", st.HedgeWins)
	counter("merrouted_deadline_rejected_total", "requests rejected as already doomed by their deadline", st.DeadlineRejected)
	counter("merrouted_batches_total", "coalesced scatters issued", st.Batches)
	counter("merrouted_batched_reads_total", "reads across coalesced scatters", st.BatchedReads)
	counter("merrouted_coalesced_batches_total", "scatters serving >= 2 requests", st.CoalescedBatches)
	gauge("merrouted_batch_reads_max", "largest coalesced scatter", float64(st.MaxBatchReads))
	gauge("merrouted_batch_reads_mean", "mean reads per scatter", st.MeanBatchReads)
	gauge("merrouted_queue_reads", "reads queued for the next batching window", float64(st.QueueReads))
	gauge("merrouted_ready", "1 once the global target catalog is assembled", b01(st.Ready))
	gauge("merrouted_draining", "1 while draining (healthz returns 503)", b01(st.Draining))
	fmt.Fprintf(w, "# HELP merrouted_request_latency_seconds request wall time quantiles\n")
	fmt.Fprintf(w, "# TYPE merrouted_request_latency_seconds summary\n")
	fmt.Fprintf(w, "merrouted_request_latency_seconds{quantile=\"0.5\"} %g\n", st.RequestP50Ms/1e3)
	fmt.Fprintf(w, "merrouted_request_latency_seconds{quantile=\"0.99\"} %g\n", st.RequestP99Ms/1e3)

	shardSeries := func(name, help, typ string, v func(client.ShardStatus) float64, format string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, sh := range st.Shards {
			fmt.Fprintf(w, "%s{shard=\"%d\",addr=%q} "+format+"\n", name, sh.ID, sh.Addr, v(sh))
		}
	}
	shardCounter := func(name, help string, v func(client.ShardStatus) int64) {
		shardSeries(name, help, "counter", func(sh client.ShardStatus) float64 { return float64(v(sh)) }, "%.0f")
	}
	shardSeries("merrouted_shard_up", "1 when the shard's last readiness probe succeeded", "gauge",
		func(sh client.ShardStatus) float64 { return b01(sh.Up) }, "%g")
	shardCounter("merrouted_shard_calls_total", "align RPC attempts issued to the shard",
		func(sh client.ShardStatus) int64 { return sh.Calls })
	shardCounter("merrouted_shard_retries_total", "align RPC attempts beyond the first",
		func(sh client.ShardStatus) int64 { return sh.Retries })
	shardCounter("merrouted_shard_errors_total", "align RPCs that exhausted their retries",
		func(sh client.ShardStatus) int64 { return sh.Errors })
	shardSeries("merrouted_shard_inflight", "align RPCs in flight right now", "gauge",
		func(sh client.ShardStatus) float64 { return float64(sh.Inflight) }, "%g")
	fmt.Fprintf(w, "# HELP merrouted_shard_call_latency_seconds per-attempt RPC wall time quantiles\n")
	fmt.Fprintf(w, "# TYPE merrouted_shard_call_latency_seconds summary\n")
	for _, sh := range st.Shards {
		fmt.Fprintf(w, "merrouted_shard_call_latency_seconds{shard=\"%d\",addr=%q,quantile=\"0.5\"} %g\n", sh.ID, sh.Addr, sh.CallP50Ms/1e3)
		fmt.Fprintf(w, "merrouted_shard_call_latency_seconds{shard=\"%d\",addr=%q,quantile=\"0.99\"} %g\n", sh.ID, sh.Addr, sh.CallP99Ms/1e3)
	}
	// Per-replica series, labeled {shard,replica,addr}. State encodes the
	// circuit breaker: 0 closed, 1 half_open, 2 open.
	breakerCode := func(state string) float64 {
		switch state {
		case client.BreakerHalfOpen:
			return 1
		case client.BreakerOpen:
			return 2
		default:
			return 0
		}
	}
	replicaSeries := func(name, help, typ string, v func(client.ReplicaStatus) float64, format string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, sh := range st.Shards {
			for j, rep := range sh.Replicas {
				fmt.Fprintf(w, "%s{shard=\"%d\",replica=\"%d\",addr=%q} "+format+"\n", name, sh.ID, j, rep.Addr, v(rep))
			}
		}
	}
	replicaSeries("merrouted_replica_state", "circuit-breaker state: 0 closed, 1 half_open, 2 open", "gauge",
		func(rep client.ReplicaStatus) float64 { return breakerCode(rep.State) }, "%g")
	replicaSeries("merrouted_replica_up", "1 when the replica's last readiness probe succeeded", "gauge",
		func(rep client.ReplicaStatus) float64 { return b01(rep.Up) }, "%g")
	replicaSeries("merrouted_replica_calls_total", "align RPC attempts issued to the replica", "counter",
		func(rep client.ReplicaStatus) float64 { return float64(rep.Calls) }, "%.0f")
	replicaSeries("merrouted_replica_errors_total", "replica align RPCs that exhausted their retries", "counter",
		func(rep client.ReplicaStatus) float64 { return float64(rep.Errors) }, "%.0f")
	replicaSeries("merrouted_replica_inflight", "replica align RPCs in flight right now", "gauge",
		func(rep client.ReplicaStatus) float64 { return float64(rep.Inflight) }, "%g")
	// Native cumulative histograms under new *_duration_seconds names (the
	// *_latency_seconds summaries above keep their historical type).
	telemetry.WriteHistHeader(w, "merrouted_request_duration_seconds", "request wall time histogram")
	req.WriteSeries(w, "merrouted_request_duration_seconds", "")
	telemetry.WriteHistHeader(w, "merrouted_shard_call_duration_seconds", "per-attempt shard RPC wall time histogram")
	for i, sh := range st.Shards {
		if i < len(shardLat) {
			shardLat[i].WriteSeries(w, "merrouted_shard_call_duration_seconds",
				fmt.Sprintf("shard=\"%d\",addr=%q", sh.ID, sh.Addr))
		}
	}
	telemetry.WriteRuntimeMetrics(w, "merrouted")
}
