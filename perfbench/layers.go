package main

import (
	"path/filepath"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// minReplay is how long each isolated replay runs at least, so that its
// per-operation figure rests on many repetitions.
const minReplay = 300 * time.Millisecond

// scanSink keeps the scan replay's result observable.
var scanSink kmer.Kmer

// scanReplay runs kmer.Scanner over every read, the way the engine
// enumerates query seeds, and returns nanoseconds per seed.
func scanReplay(reads []meraligner.Seq, k int) float64 {
	var sc kmer.Scanner
	var seeds int64
	t0 := time.Now()
	for time.Since(t0) < minReplay {
		for _, r := range reads {
			sc.Reset(r.Seq, k)
			for sc.Next() {
				c, _ := sc.Canonical()
				scanSink.Lo ^= c.Lo
				seeds++
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(seeds)
}

// canonicalSeeds lists every canonical seed of the reads in scan order.
func canonicalSeeds(reads []meraligner.Seq, k int) []kmer.Kmer {
	var sc kmer.Scanner
	var out []kmer.Kmer
	for _, r := range reads {
		sc.Reset(r.Seq, k)
		for sc.Next() {
			c, _ := sc.Canonical()
			out = append(out, c)
		}
	}
	return out
}

// lookupReplay probes a one-shard seed snapshot, which holds the same
// sealed table the engine probes, with the reads' seeds. It returns
// nanoseconds per lookup and the fraction of seeds found.
func lookupReplay(al *meraligner.Aligner, dir string, seeds []kmer.Kmer) (nsPer, hitFrac float64, err error) {
	paths, err := al.SaveSeedShards(filepath.Join(dir, "one-shard"), 1)
	if err != nil {
		return 0, 0, err
	}
	sh, err := core.LoadSeedShard(paths[0])
	if err != nil {
		return 0, 0, err
	}
	defer sh.Close()
	var n, hits int64
	t0 := time.Now()
	for time.Since(t0) < minReplay {
		for _, s := range seeds {
			if res, ok := sh.Lookup(s); ok && len(res.Locs) > 0 {
				hits++
			}
			n++
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), float64(hits) / float64(n), nil
}

// serviceLayers is the service's own view of one ladder step, read from
// the spans it records for every request and from its counters.
type serviceLayers struct {
	admission, batchWait, engine, render latencySummary
	meanBatchReads, coalescedFrac        float64
	rejectedFrac                         float64
}

func spanLayers(ring *telemetry.Ring, since time.Time, before, after client.Stats) serviceLayers {
	var adm, wait, eng, ren []float64
	for _, rt := range ring.Snapshot() {
		if rt.Start.Before(since) || rt.Path != "/v1/align" {
			continue
		}
		for _, sp := range rt.Spans {
			ms := float64(sp.DurationUs) / 1e3
			switch sp.Stage {
			case "admission":
				adm = append(adm, ms)
			case "batch_wait":
				wait = append(wait, ms)
			case "engine":
				eng = append(eng, ms)
			case "render":
				ren = append(ren, ms)
			}
		}
	}
	out := serviceLayers{
		admission: summarize(adm), batchWait: summarize(wait),
		engine: summarize(eng), render: summarize(ren),
	}
	if b := after.Batches - before.Batches; b > 0 {
		out.meanBatchReads = float64(after.BatchedReads-before.BatchedReads) / float64(b)
		out.coalescedFrac = float64(after.CoalescedBatches-before.CoalescedBatches) / float64(b)
	}
	if r := after.Requests - before.Requests; r > 0 {
		out.rejectedFrac = float64(after.Rejected-before.Rejected) / float64(r)
	}
	return out
}
