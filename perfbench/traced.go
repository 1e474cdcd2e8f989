package main

import (
	"context"
	"math"
	"path/filepath"
	"runtime"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/core"
)

// minCoverage is how much of a traced pass's wall time decode, align and
// render must account for between them; the rest is the benchmark's own
// MemStats reads and loop overhead.
const minCoverage = 0.95

// tracedRun measures every layer. The batch phase alternates untraced and
// traced passes so the tracing overhead is measured on the same system in
// the same interval; the open loop is the same ladder as the untraced
// run, with the service's own spans read back after the high step.
func tracedRun(ctx context.Context, rep *report, w workload, in *input, sys *system, art *artifacts, dir string, seconds, openS, warmS float64) error {
	runtime.GC()
	snaps := []client.Stats{sys.srv.Snapshot()}
	var svc serviceLayers
	lad := runLadder(ctx, w, in.bodies, sys.serveRequest, func(i int, r stepResult) {
		snaps = append(snaps, sys.srv.Snapshot())
		if i == 1 {
			svc = spanLayers(sys.srv.TraceRing(), r.Start, snaps[i], snaps[i+1])
		}
	})

	runtime.GC()
	var lt layerTimes
	var plain []float64
	var plainReads int
	batchS := tracedBatchBudget(seconds, lad)
	t0 := time.Now()
	for len(plain) < 3 || time.Since(t0).Seconds() < batchS {
		p, err := sys.pass(ctx, in.fastq, sys.qopt, false)
		if err != nil {
			return err
		}
		plain = append(plain, float64(p.res.TotalReads)/p.wall)
		plainReads += p.res.TotalReads
		if _, err := sys.tracedPass(ctx, in.fastq, &lt, false); err != nil {
			return err
		}
	}
	rep.passRates = plain
	layerSum := lt.decode + lt.align + lt.render
	if cov := layerSum / lt.wall; cov < minCoverage || cov > 1 {
		rep.fail("decode+align+render cover %.4f of the traced passes' wall time, want [%.2f, 1]", cov, minCoverage)
	}

	rep.attempted = plainReads + int(lt.reads) + lad.attempted
	rep.failed = lad.low.Failed + lad.high.Failed

	// The DHT client layer: dht-remote's own traced passes, or on the other
	// workloads a replay of the same passes through a seed fleet.
	dhtLT, dhtWarm := &lt, warmS
	if w.source != remote {
		var err error
		if dhtLT, dhtWarm, err = dhtReplay(ctx, w, sys, in, dir); err != nil {
			return err
		}
	}

	phases := art.buildPhases
	if w.source == built {
		phases = buildPhases(sys.al)
		var err error
		if openS, err = timeOpen(sys.al, dir); err != nil {
			return err
		}
	}
	seeds := canonicalSeeds(in.ds.Reads, w.k)
	lookupNs, hitFrac, err := lookupReplay(sys.al, dir, seeds)
	if err != nil {
		return err
	}

	n := float64(lt.passes)
	reads := float64(lt.reads)
	extendS := float64(lt.extend.nanos.Load()) / 1e9 / engineWorkers / n
	alignS := lt.align / n

	rep.add("core.build.extract_s", phaseWall(phases, core.PhaseExtract), "s")
	rep.add("core.build.drain_s", phaseWall(phases, core.PhaseDrain), "s")
	rep.add("core.build.mark_s", phaseWall(phases, core.PhaseMark), "s")
	rep.add("merx.open_s", openS, "s")
	rep.add("dhtnet.warm_s", dhtWarm, "s")
	rep.add("seqio.decode_s", lt.decode/n, "s")
	rep.add("seqio.render_s", lt.render/n, "s")
	rep.add("seqio.sam_bytes_per_read", float64(lt.samBytes)/reads, "bytes")
	rep.add("core.align_s", alignS, "s")
	rep.add("core.non_extend_s", alignS-extendS, "s")
	rep.add("core.exact_frac", float64(lt.exactReads)/reads, "frac")
	rep.add("core.lookups_per_read", float64(lt.lookups)/reads, "count")
	rep.add("core.sw_calls_per_read", float64(lt.sw)/reads, "count")
	rep.add("core.alloc_bytes_per_read", float64(lt.allocBytes)/reads, "bytes")
	rep.add("core.gc_cycles", float64(lt.gcCycles)/n, "count")
	rep.add("align.extend_s", extendS, "s")
	rep.add("align.extend_calls", float64(lt.extend.calls.Load())/n, "count")
	rep.add("align.extend_cells", float64(lt.extend.cells.Load())/n, "count")
	rep.add("align.extend_ns_per_cell", ratio(float64(lt.extend.nanos.Load()), float64(lt.extend.cells.Load())), "ns")
	rep.add("align.extend_share", extendS/alignS, "frac")
	rep.add("kmer.scan_ns_per_seed", scanReplay(in.ds.Reads, w.k), "ns")
	rep.add("dht.lookup_ns", lookupNs, "ns")
	rep.add("dht.hit_frac", hitFrac, "frac")
	rep.add("service.admission_ms.p50", svc.admission.P50, "ms")
	rep.add("service.batch_wait_ms.p50", svc.batchWait.P50, "ms")
	rep.add("service.batch_wait_ms.p99", svc.batchWait.P99, "ms")
	rep.add("service.engine_ms.p50", svc.engine.P50, "ms")
	rep.add("service.engine_ms.p99", svc.engine.P99, "ms")
	rep.add("service.render_ms.p50", svc.render.P50, "ms")
	rep.add("service.mean_batch_reads", svc.meanBatchReads, "count")
	rep.add("service.coalesced_frac", svc.coalescedFrac, "frac")
	rep.add("service.rejected_frac", svc.rejectedFrac, "frac")
	addDHT(rep, dhtLT)
	rep.add("bench.trace_overhead_frac", 1-median(lt.rates)/median(plain), "frac")
	rep.add("bench.gen_lag_ms", math.Max(lad.low.LagMs.P99, lad.high.LagMs.P99), "ms")

	rep.note("traced: %d traced + %d untraced passes, decode+align+render cover %.4f of traced wall",
		lt.passes, len(plain), layerSum/lt.wall)
	rep.note("service spans at %.0f req/s: admission n=%d, batch_wait n=%d, engine n=%d, render n=%d",
		lad.high.Rate, svc.admission.N, svc.batchWait.N, svc.engine.N, svc.render.N)
	ladderNotes(rep, w, lad)
	return nil
}

// ladderNotes prints the open loop: every step, and the serving figures
// that are too unsteady on a shared two-CPU host to carry a bound (see
// CHANGES.md), each with the sample count it rests on.
func ladderNotes(rep *report, w workload, lad ladderResult) {
	for _, s := range lad.steps {
		rep.note("step %6.0f req/s: n=%d, p50 %.3f ms, p%g %.3f ms, failed %d, generator lag p99 %.3f ms, valid %t",
			s.Rate, s.N, s.Lat.P50, 100*s.Lat.TailQ, s.Lat.Tail, s.Failed, s.LagMs.P99, s.Valid)
	}
	for _, s := range []struct {
		name string
		r    stepResult
	}{{"low", lad.low}, {"high", lad.high}} {
		rep.note("unbounded: p50_ms.%s %.4f ms, p99_ms.%s %.4f ms (n=%d at %.0f req/s)",
			s.name, s.r.Lat.P50, s.name, s.r.Lat.P99, s.r.N, s.r.Rate)
		if !s.r.Valid {
			rep.note("the generator ran late at the %s step: lag p99 %.3f ms over the %.0f ms bound", s.name, s.r.LagMs.P99, maxLagMs)
		}
	}
	rep.note("unbounded: max_rate_rps %.0f 1/s (highest step with p99 <= %.0f ms, no failures, generator on schedule; knee %.0f, %d reads per request)",
		lad.maxRate, p99LimitMs, w.knee, w.readsPerRequest)
}

func addDHT(rep *report, lt *layerTimes) {
	n := float64(lt.passes)
	reads := float64(lt.reads)
	var us []float64
	var nanos int64
	if lt.resolve != nil {
		us, nanos = lt.resolve.us, lt.resolve.nanos.Load()
	}
	rs := summarize(us)
	rep.add("dhtnet.resolve_s", float64(nanos)/1e9/engineWorkers/n, "s")
	rep.add("dhtnet.resolve_us.p50", rs.P50, "us")
	rep.add("dhtnet.resolve_us.p99", rs.P99, "us")
	rep.add("dhtnet.seeds_sent_per_read", float64(lt.dht.Seeds)/reads, "count")
	rep.add("dhtnet.seeds_used_frac", ratio(float64(lt.lookups), float64(lt.dht.Seeds)), "frac")
	rep.add("dhtnet.seeds_per_frame", ratio(float64(lt.dht.BatchedSeeds), float64(lt.dht.Batches)), "count")
	rep.add("dhtnet.retries", float64(lt.dht.Retries), "count")
	rep.add("dhtnet.degraded", float64(lt.dht.Degraded), "count")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func phaseWall(ps []phase, name string) float64 {
	for _, p := range ps {
		if p.name == name {
			return p.wall
		}
	}
	return math.NaN()
}

// dhtReplayPasses is the number of traced passes the DHT replay makes.
const dhtReplayPasses = 1

// dhtReplay runs traced passes of the workload with every seed lookup
// resolved by a seed-shard fleet built from its own index, and returns
// them with the client's Warm time.
func dhtReplay(ctx context.Context, w workload, sys *system, in *input, dir string) (*layerTimes, float64, error) {
	art := &artifacts{}
	var err error
	if art.seedShards, err = sys.al.SaveSeedShards(filepath.Join(dir, "replay-seeds"), seedShards); err != nil {
		return nil, 0, err
	}
	if art.fingerprint, err = sys.al.SeedPartitionFingerprint(seedShards); err != nil {
		return nil, 0, err
	}
	art.tableShards = sys.al.SeedTableShards()
	replay := &system{al: sys.al, targets: sys.targets, qopt: sys.qopt}
	defer replay.stopFleet()
	if err := replay.startFleet(w, art); err != nil {
		return nil, 0, err
	}
	replay.qopt.SeedResolver = replay.dc
	lt := &layerTimes{}
	for i := 0; i < dhtReplayPasses; i++ {
		if _, err := replay.tracedPass(ctx, in.fastq, lt, false); err != nil {
			return nil, 0, err
		}
	}
	return lt, replay.warmS, nil
}

// timeOpen saves the built index and times Open on it, as many times as
// setup runs at least; it returns the median.
func timeOpen(al *meraligner.Aligner, dir string) (float64, error) {
	path := filepath.Join(dir, "traced.merx")
	if err := al.Save(path); err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < minSetups; i++ {
		t0 := time.Now()
		o, err := meraligner.OpenThreads(engineWorkers, path)
		if err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
		o.Close()
	}
	return median(ts), nil
}

// tracedBatchBudget is what the traced run's batch phase gets of the
// measured seconds once the ladder has run: the rest, and at least half.
func tracedBatchBudget(seconds float64, lad ladderResult) float64 {
	return math.Max(0.5*seconds, seconds-lad.wall)
}
