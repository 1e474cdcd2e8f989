package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/align"
	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/dhtnet"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// passResult is one decode+align+render pass over the whole read set.
type passResult struct {
	wall   float64
	res    *meraligner.Results
	digest [32]byte // set when the pass hashed its SAM
}

// pass runs the library path: ReadFastq, one Align over every read, and a
// SAMStream over the results. With digest set it hashes the SAM instead of
// discarding it (used by the correctness gate, never while timing).
func (s *system) pass(ctx context.Context, fastq []byte, qopt meraligner.QueryOptions, digest bool) (passResult, error) {
	var out passResult
	sink := io.Discard
	h := sha256.New()
	if digest {
		sink = h
	}
	t0 := time.Now()
	reads, err := seqio.ReadFastq(bytes.NewReader(fastq), seqio.ParseOptions{ReplaceN: true})
	if err != nil {
		return out, err
	}
	res, err := s.al.AlignWorkers(ctx, engineWorkers, reads, qopt)
	if err != nil {
		return out, err
	}
	if err := render(sink, s.targets, res, reads); err != nil {
		return out, err
	}
	out.wall = time.Since(t0).Seconds()
	out.res = res
	if digest {
		copy(out.digest[:], h.Sum(nil))
	}
	return out, nil
}

func render(w io.Writer, targets []meraligner.Seq, res *meraligner.Results, reads []meraligner.Seq) error {
	st, err := meraligner.NewSAMStream(w, targets)
	if err != nil {
		return err
	}
	if err := st.WriteBatch(res, reads); err != nil {
		return err
	}
	return st.Flush()
}

// layerTimes accumulates the per-layer view of traced passes. Every number
// is taken from outside the program: around its public calls, through the
// QueryOptions.Extend and SeedResolver seams, and from its counters.
type layerTimes struct {
	passes                  int
	reads                   int64
	wall                    float64 // whole traced passes, the benchmark's own reads of MemStats included
	decode, align, render   float64
	samBytes                int64
	exactReads, lookups, sw int64
	allocBytes, gcCycles    uint64
	extend                  extendTimer
	resolve                 *resolveTimer
	dht                     dhtnet.Stats // client counters accumulated over traced passes
	rates                   []float64    // reads/s of each traced pass
}

// tracedPass is pass with each layer timed separately.
func (s *system) tracedPass(ctx context.Context, fastq []byte, lt *layerTimes, digest bool) ([32]byte, error) {
	var sum [32]byte
	qopt := s.qopt
	qopt.Extend = lt.extend.call
	if qopt.SeedResolver != nil {
		if lt.resolve == nil {
			lt.resolve = &resolveTimer{inner: qopt.SeedResolver}
		}
		qopt.SeedResolver = lt.resolve
	}
	cw := &countingWriter{}
	h := sha256.New()
	var sink io.Writer = cw
	if digest {
		sink = io.MultiWriter(cw, h)
	}

	var dc0 dhtnet.Stats
	if s.dc != nil {
		dc0 = s.dc.Stats()
	}
	t0 := time.Now()
	reads, err := seqio.ReadFastq(bytes.NewReader(fastq), seqio.ParseOptions{ReplaceN: true})
	if err != nil {
		return sum, err
	}
	t1 := time.Now()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t2 := time.Now()
	res, err := s.al.AlignWorkers(ctx, engineWorkers, reads, qopt)
	if err != nil {
		return sum, err
	}
	t3 := time.Now()
	runtime.ReadMemStats(&m1)
	t4 := time.Now()
	if err := render(sink, s.targets, res, reads); err != nil {
		return sum, err
	}
	t5 := time.Now()

	lt.passes++
	lt.reads += int64(len(reads))
	lt.decode += t1.Sub(t0).Seconds()
	lt.align += t3.Sub(t2).Seconds()
	lt.render += t5.Sub(t4).Seconds()
	wall := t5.Sub(t0).Seconds()
	lt.wall += wall
	lt.rates = append(lt.rates, float64(len(reads))/wall)
	lt.samBytes += cw.n
	lt.exactReads += int64(res.ExactPathReads)
	lt.lookups += res.SeedLookups
	lt.sw += res.SWCalls
	lt.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	lt.gcCycles += uint64(m1.NumGC - m0.NumGC)
	if s.dc != nil {
		d := s.dc.Stats()
		lt.dht.Seeds += d.Seeds - dc0.Seeds
		lt.dht.Batches += d.Batches - dc0.Batches
		lt.dht.BatchedSeeds += d.BatchedSeeds - dc0.BatchedSeeds
		lt.dht.Retries += d.Retries - dc0.Retries
		lt.dht.Degraded += d.Degraded - dc0.Degraded
	}
	if digest {
		copy(sum[:], h.Sum(nil))
	}
	return sum, nil
}

// extendTimer wraps align.ExtendSeed, the extension the engine calls
// anyway when it collects alignments, so the code path is unchanged.
type extendTimer struct {
	calls, cells, nanos atomic.Int64
}

func (e *extendTimer) call(query, target []byte, qOff, tOff, k int, sc align.Scoring, pad int) align.Result {
	// The window ExtendSeed aligns against, for the cell count.
	lo, hi := tOff-qOff-pad, tOff+len(query)-qOff+pad
	if lo < 0 {
		lo = 0
	}
	if hi > len(target) {
		hi = len(target)
	}
	t0 := time.Now()
	r := align.ExtendSeed(query, target, qOff, tOff, k, sc, pad)
	e.nanos.Add(int64(time.Since(t0)))
	e.calls.Add(1)
	if hi > lo {
		e.cells.Add(align.Cells(len(query), hi-lo))
	}
	return r
}

// resolveTimer wraps a SeedResolver and times each call.
type resolveTimer struct {
	inner core.SeedResolver
	mu    sync.Mutex
	us    []float64
	nanos atomic.Int64
}

func (r *resolveTimer) ResolveSeeds(ctx context.Context, seeds []kmer.Kmer, out []core.SeedAnswer) error {
	t0 := time.Now()
	err := r.inner.ResolveSeeds(ctx, seeds, out)
	d := time.Since(t0)
	r.nanos.Add(int64(d))
	r.mu.Lock()
	r.us = append(r.us, float64(d)/1e3)
	r.mu.Unlock()
	return err
}
