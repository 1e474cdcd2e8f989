package service

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// Lock-free service statistics: atomic counters plus the shared
// telemetry.Hist latency histograms. Everything here is written on hot
// paths by many goroutines and read whole by /v1/stats and /metrics, so
// there are no locks — only atomics; snapshots are merely
// consistent-enough, which is all an observability endpoint needs.

// serverStats aggregates the service's live counters. It implements
// coalesce.Stats for the micro-batcher's observations.
type serverStats struct {
	start time.Time

	requests         atomic.Int64 // align requests served to completion (any endpoint)
	rejected         atomic.Int64 // 429s
	canceled         atomic.Int64 // client disconnects (queued or mid-flight)
	reads            atomic.Int64 // reads accepted into the engine
	tooShort         atomic.Int64 // reads rejected as shorter than K
	deadlineRejected atomic.Int64 // 503s: propagated deadline below MinDeadline

	batches          atomic.Int64 // engine calls issued by the micro-batcher
	batchedReads     atomic.Int64 // reads across those calls
	coalescedBatches atomic.Int64 // calls gluing >= 2 requests
	maxBatchReads    atomic.Int64 // largest coalesced call seen

	reqLatency telemetry.Hist // request wall time, enqueue -> results ready
	alignRead  telemetry.Hist // per-read engine nanos (engine PerQuery stats)
}

func newServerStats() *serverStats { return &serverStats{start: time.Now()} }

func (s *serverStats) ObserveBatch(requests, reads int) {
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

func (s *serverStats) ObserveCanceled() { s.canceled.Add(1) }

// observePerQuery folds the engine's per-query stats of one call into the
// per-read latency histogram.
func (s *serverStats) observePerQuery(pq []meraligner.QueryStat) {
	for i := range pq {
		s.alignRead.Observe(pq[i].Nanos)
	}
}

// snapshot renders the wire Stats (everything except server/index identity,
// which the Server fills in).
func (s *serverStats) snapshot() client.Stats {
	st := client.Stats{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Requests:         s.requests.Load(),
		Rejected:         s.rejected.Load(),
		Canceled:         s.canceled.Load(),
		Reads:            s.reads.Load(),
		TooShort:         s.tooShort.Load(),
		DeadlineRejected: s.deadlineRejected.Load(),
		Batches:          s.batches.Load(),
		BatchedReads:     s.batchedReads.Load(),
		CoalescedBatches: s.coalescedBatches.Load(),
		MaxBatchReads:    s.maxBatchReads.Load(),
		RequestP50Ms:     s.reqLatency.Quantile(0.50) / 1e6,
		RequestP99Ms:     s.reqLatency.Quantile(0.99) / 1e6,
		AlignReadP50Us:   s.alignRead.Quantile(0.50) / 1e3,
		AlignReadP99Us:   s.alignRead.Quantile(0.99) / 1e3,
	}
	if st.Batches > 0 {
		st.MeanBatchReads = float64(st.BatchedReads) / float64(st.Batches)
	}
	return st
}

// refMetrics is one reference's snapshot for the exposition. ref "" (the
// single-index server) emits unlabeled series, preserving the historical
// single-index format; a catalog server labels every series {ref="..."}.
type refMetrics struct {
	ref   string
	st    client.Stats
	req   telemetry.HistSnapshot // request wall time
	align telemetry.HistSnapshot // per-read engine time
}

// refLabel renders the ref label pair (no braces) for histogram series,
// empty for the single-index server.
func refLabel(ref string) string {
	if ref == "" {
		return ""
	}
	return fmt.Sprintf("ref=%q", ref)
}

// promLabel renders the label set of one series: the optional ref label
// plus any extra pre-rendered label pairs.
func promLabel(ref, extra string) string {
	switch {
	case ref == "" && extra == "":
		return ""
	case ref == "":
		return "{" + extra + "}"
	case extra == "":
		return fmt.Sprintf("{ref=%q}", ref)
	default:
		return fmt.Sprintf("{ref=%q,%s}", ref, extra)
	}
}

// writeMetrics renders the Prometheus text exposition: every metric name
// once, with one series per reference, then (for catalog servers) the
// catalog lifecycle metrics.
func writeMetrics(w io.Writer, refs []refMetrics, cat *client.CatalogCounters) {
	series := func(name, help, typ string, v func(client.Stats) float64, format string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, rm := range refs {
			fmt.Fprintf(w, "%s%s "+format+"\n", name, promLabel(rm.ref, ""), v(rm.st))
		}
	}
	counter := func(name, help string, v func(client.Stats) int64) {
		series(name, help, "counter", func(st client.Stats) float64 { return float64(v(st)) }, "%.0f")
	}
	gauge := func(name, help string, v func(client.Stats) float64) {
		series(name, help, "gauge", v, "%g")
	}
	counter("merserved_requests_total", "align requests served to completion", func(st client.Stats) int64 { return st.Requests })
	counter("merserved_rejected_total", "requests rejected with 429 (queue full or inflight limit)", func(st client.Stats) int64 { return st.Rejected })
	counter("merserved_canceled_total", "requests canceled by client disconnect", func(st client.Stats) int64 { return st.Canceled })
	counter("merserved_reads_total", "reads accepted into the engine", func(st client.Stats) int64 { return st.Reads })
	counter("merserved_too_short_reads_total", "reads rejected as shorter than K", func(st client.Stats) int64 { return st.TooShort })
	counter("merserved_deadline_rejected_total", "requests rejected as already doomed by their propagated deadline", func(st client.Stats) int64 { return st.DeadlineRejected })
	counter("merserved_batches_total", "coalesced engine calls", func(st client.Stats) int64 { return st.Batches })
	counter("merserved_batched_reads_total", "reads across coalesced engine calls", func(st client.Stats) int64 { return st.BatchedReads })
	counter("merserved_coalesced_batches_total", "engine calls serving >= 2 requests", func(st client.Stats) int64 { return st.CoalescedBatches })
	gauge("merserved_batch_reads_max", "largest coalesced engine call", func(st client.Stats) float64 { return float64(st.MaxBatchReads) })
	gauge("merserved_batch_reads_mean", "mean reads per engine call", func(st client.Stats) float64 { return st.MeanBatchReads })
	gauge("merserved_queue_reads", "reads queued for the next batching window", func(st client.Stats) float64 { return float64(st.QueueReads) })
	gauge("merserved_draining", "1 while draining (healthz returns 503)", func(st client.Stats) float64 {
		if st.Draining {
			return 1
		}
		return 0
	})
	gauge("merserved_resident_bytes", "resident index footprint", func(st client.Stats) float64 { return float64(st.ResidentBytes) })
	gauge("merserved_uptime_seconds", "seconds since start", func(st client.Stats) float64 { return st.UptimeSeconds })
	fmt.Fprintf(w, "# HELP merserved_request_latency_seconds request wall time quantiles\n")
	fmt.Fprintf(w, "# TYPE merserved_request_latency_seconds summary\n")
	for _, rm := range refs {
		fmt.Fprintf(w, "merserved_request_latency_seconds%s %g\n", promLabel(rm.ref, `quantile="0.5"`), rm.st.RequestP50Ms/1e3)
		fmt.Fprintf(w, "merserved_request_latency_seconds%s %g\n", promLabel(rm.ref, `quantile="0.99"`), rm.st.RequestP99Ms/1e3)
	}
	fmt.Fprintf(w, "# HELP merserved_align_read_seconds per-read engine time quantiles\n")
	fmt.Fprintf(w, "# TYPE merserved_align_read_seconds summary\n")
	for _, rm := range refs {
		fmt.Fprintf(w, "merserved_align_read_seconds%s %g\n", promLabel(rm.ref, `quantile="0.5"`), rm.st.AlignReadP50Us/1e6)
		fmt.Fprintf(w, "merserved_align_read_seconds%s %g\n", promLabel(rm.ref, `quantile="0.99"`), rm.st.AlignReadP99Us/1e6)
	}
	// Native cumulative histograms under new *_duration_seconds names (the
	// *_latency_seconds summaries above keep their historical type).
	telemetry.WriteHistHeader(w, "merserved_request_duration_seconds", "request wall time histogram")
	for _, rm := range refs {
		rm.req.WriteSeries(w, "merserved_request_duration_seconds", refLabel(rm.ref))
	}
	telemetry.WriteHistHeader(w, "merserved_align_read_duration_seconds", "per-read engine time histogram")
	for _, rm := range refs {
		rm.align.WriteSeries(w, "merserved_align_read_duration_seconds", refLabel(rm.ref))
	}
	telemetry.WriteRuntimeMetrics(w, "merserved")
	if cat == nil {
		return
	}
	cgauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	ccounter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	cgauge("merserved_catalog_open_refs", "references with an open (resident) index", float64(cat.OpenRefs))
	cgauge("merserved_catalog_resident_bytes", "bytes charged to the residency budget", float64(cat.ResidentBytes))
	cgauge("merserved_catalog_budget_bytes", "residency budget (0 = unlimited)", float64(cat.BudgetBytes))
	ccounter("merserved_catalog_opens_total", "snapshot opens (cold, reopen, and swap)", cat.Opens)
	ccounter("merserved_catalog_evictions_total", "budget evictions", cat.Evictions)
	ccounter("merserved_catalog_hot_swaps_total", "zero-downtime snapshot replacements", cat.HotSwaps)
	ccounter("merserved_catalog_uncached_serves_total", "serves of indexes larger than the whole budget", cat.UncachedServes)
}
