package core

import (
	"context"
	"fmt"

	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/merx"
	"github.com/lbl-repro/meraligner/internal/seqio"
	"github.com/lbl-repro/meraligner/internal/upc"
)

// This file splits the threaded engine into its two halves — persistent
// index construction (BuildIndex, the paper's §III) and query serving
// (ThreadedIndex.Query, §IV) — so a long-lived service builds the seed
// index once and streams read batches through it forever. RunThreaded is a
// thin build-then-query composition of the two (see threaded.go).

// ThreadedIndex is the resident product of BuildIndex: the fragment table,
// the sealed sharded seed index, and the single-copy flags, over one target
// set. It is immutable after BuildIndex returns, so any number of Query
// calls may run against it concurrently.
type ThreadedIndex struct {
	opt     IndexOptions
	targets []seqio.Seq
	ft      *FragmentTable
	sx      *dht.Sharded

	buildPhases []upc.PhaseStat // extract+stage, drain, mark (wall-clock)
	stats       dht.Stats       // computed once at seal time

	// shard identifies this index as one slice of a sharded reference
	// (SetShardInfo / the snapshot's "SHRD" section); nil for a whole
	// reference.
	shard *ShardInfo

	// snap is the backing snapshot when the index was produced by LoadIndex
	// rather than BuildIndex: the seed table and target sequences alias its
	// mapping, so it must stay open for the index's lifetime (see Close).
	// nil for built indexes.
	snap *merx.File
}

// BuildIndex constructs the threaded engine's seed index over targets
// exactly once: fragment the targets (§IV-A), extract and stage seeds with
// the aggregating-stores scheme (§III-A), drain the shards lock-free, and
// mark single-copy fragments. workers is the goroutine pool size for the
// construction phases only; queries may later run with any worker count.
func BuildIndex(workers int, opt IndexOptions, targets []seqio.Seq) (*ThreadedIndex, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("core: threads must be positive, got %d", workers)
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	threads := make([]*upc.Thread, workers)
	costs := upc.Edison(workers)
	costs.PPN = workers
	for w := range threads {
		threads[w] = upc.NewStandaloneThread(costs, w)
	}
	rec := &realPhases{}

	// Fragment the targets exactly as the simulated engine does (same
	// worker count ⇒ same data ownership labels; contents do not depend on
	// the partition).
	ft := BuildFragmentTable(targets, opt.K, opt.FragmentLen, workers)

	totalSeeds := 0
	for f := 0; f < ft.NumFragments(); f++ {
		if n := int(ft.Frags[f].Len) - opt.K + 1; n > 0 {
			totalSeeds += n
		}
	}
	sx, err := dht.NewSharded(dht.ShardedConfig{
		K: opt.K, S: opt.AggS, MaxLocList: opt.MaxLocList,
		Shards: dht.DefaultShards(workers),
	}, ft.NumFragments(), totalSeeds, workers)
	if err != nil {
		return nil, err
	}

	// ---- Phase 1: extract seeds and stage into the sharded index ----
	builders := make([]*dht.ShardedBuilder, workers)
	for w := range builders {
		builders[w] = sx.NewBuilder()
	}
	rec.run(PhaseExtract, threads, func() {
		runPool(workers, ft.NumFragments(), extractChunk, func(w, lo, hi int) {
			b := builders[w]
			var sc kmer.Scanner // rolling forward+RC windows, O(1) per base
			for f := lo; f < hi; f++ {
				sc.Reset(ft.FragSeq(int32(f)), opt.K)
				for sc.Next() {
					canon, rc := sc.Canonical()
					b.Add(dht.SeedEntry{Seed: canon, Loc: dht.Loc{
						Frag: int32(f),
						Off:  int32(sc.Offset()),
						RC:   rc,
					}})
				}
			}
		})
		for _, b := range builders {
			b.Flush()
		}
	})

	// ---- Phase 2: drain shards into local buckets (lock-free) ----
	rec.run(PhaseDrain, threads, func() {
		runPool(workers, sx.Shards(), 1, func(w, lo, hi int) {
			for s := lo; s < hi; s++ {
				sx.DrainShard(s)
			}
		})
	})

	// ---- Phase 3: mark single-copy-seed fragments (§IV-A) ----
	if opt.ExactMatch {
		rec.run(PhaseMark, threads, func() {
			runPool(workers, sx.Shards(), 1, func(w, lo, hi int) {
				for s := lo; s < hi; s++ {
					sx.MarkShard(s)
				}
			})
		})
	}

	// Seal: release the build arena, freeze the table, and snapshot its
	// stats once so per-query Results don't rescan the whole index.
	sx.Seal()
	return &ThreadedIndex{
		opt:         opt,
		targets:     targets,
		ft:          ft,
		sx:          sx,
		buildPhases: rec.phases,
		stats:       sx.Stats(),
	}, nil
}

// Options returns the build-time options the index was constructed with.
func (ix *ThreadedIndex) Options() IndexOptions { return ix.opt }

// Targets returns the target set the index was built over.
func (ix *ThreadedIndex) Targets() []seqio.Seq { return ix.targets }

// Stats returns the index statistics snapshot taken at seal time.
func (ix *ThreadedIndex) Stats() dht.Stats { return ix.stats }

// ResidentBytes estimates the resident memory footprint of the sealed index
// (hash table and location lists; the fragment table's unpacked target
// codes are counted separately via TargetCodesBytes).
func (ix *ThreadedIndex) ResidentBytes() int64 { return ix.sx.ResidentBytes() }

// TargetCodesBytes is the footprint of the unpacked target code slices held
// by the fragment table for Smith-Waterman and exact-match comparison.
func (ix *ThreadedIndex) TargetCodesBytes() int64 {
	var n int64
	for _, t := range ix.targets {
		n += int64(t.Seq.Len())
	}
	return n
}

// BuildPhases returns the wall-clock phase stats of index construction
// (extract+stage, drain, and mark when the exact-match optimization is on).
func (ix *ThreadedIndex) BuildPhases() []upc.PhaseStat {
	out := make([]upc.PhaseStat, len(ix.buildPhases))
	copy(out, ix.buildPhases)
	return out
}

// BuildWall sums the wall-clock seconds of the construction phases.
func (ix *ThreadedIndex) BuildWall() float64 {
	var s float64
	for _, p := range ix.buildPhases {
		s += p.RealWall
	}
	return s
}

// Query aligns one batch of queries against the resident index (the
// aligning phase of Algorithm 1 with the §IV optimizations), using a pool
// of workers goroutines. It is safe to call concurrently from any number of
// goroutines: every call owns its threads, processors, and result buffers,
// and the index itself is immutable.
//
// Cancellation is honored between work chunks: when ctx is done, workers
// stop claiming query batches and Query returns ctx.Err() without results.
// Results carry the per-call wall-clock align-phase stat and the seal-time
// index statistics.
func (ix *ThreadedIndex) Query(ctx context.Context, workers int, opt QueryOptions, queries []seqio.Seq) (*Results, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("core: threads must be positive, got %d", workers)
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	full := Options{IndexOptions: ix.opt, QueryOptions: opt}
	if err := ix.opt.checkQueryCompat(opt); err != nil {
		return nil, err
	}
	costs := upc.Edison(workers)
	costs.PPN = workers
	threads := make([]*upc.Thread, workers)
	for w := range threads {
		threads[w] = upc.NewStandaloneThread(costs, w)
	}
	rec := &realPhases{}
	res := &Results{TotalReads: len(queries)}

	var perQuery []QueryStat
	if opt.CollectPerQuery {
		// Indexed by query: each query is processed exactly once, so the
		// slots are written without contention.
		perQuery = make([]QueryStat, len(queries))
	}
	// On the remote-DHT path a resolver failure on any worker aborts the
	// whole call: the failing worker cancels qctx with its error as the
	// cause, so its peers stop claiming chunks, and that first error (not a
	// peer's derived cancellation) is surfaced.
	qctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	perThread := make([]threadStats, workers)
	rec.run(PhaseAlign, threads, func() {
		qps := make([]*queryProcessor, workers)
		runPoolCtx(qctx, workers, len(queries), alignBatch, func(w, lo, hi int) {
			st := &perThread[w]
			if st.err != nil {
				return
			}
			if qps[w] == nil {
				qps[w] = ix.processor(qctx, costs, full)
			}
			if opt.CollectAlignments && st.alignments == nil {
				st.alignments = []Alignment{}
			}
			qps[w].alignChunk(threads[w], st, queries, lo, hi, perQuery)
			if st.err != nil {
				cancel(st.err)
			}
		})
	})
	if err := context.Cause(qctx); err != nil && ctx.Err() == nil {
		return nil, err
	}
	for i := range perThread {
		if err := perThread[i].err; err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	mergeThreadStats(res, perThread, opt.CollectAlignments)
	res.Phases = rec.phases
	res.SeedLookups = rec.total.SeedLookups
	res.IndexStats = ix.stats
	res.PerQuery = perQuery
	return res, nil
}

// processor returns a query processor over the resident index for one
// worker, bound to ctx and, when opt sets one, to the remote seed resolver.
func (ix *ThreadedIndex) processor(ctx context.Context, costs upc.MachineConfig, opt Options) *queryProcessor {
	qp := newQueryProcessor(costs, opt, threadedAccess{sx: ix.sx}, ix.ft)
	qp.ctx, qp.resolver = ctx, opt.SeedResolver
	return qp
}

// QuerySerial is the low-latency path for tiny batches: it aligns queries
// on the calling goroutine with one reusable processor — no worker pool;
// the whole batch is one work chunk — checking ctx between queries. A
// network service answering single-read requests is bound by per-call
// overhead, not parallel throughput; this path strips the overhead while
// producing Results identical to Query's on the same input (same
// algorithm, same canonical merge).
func (ix *ThreadedIndex) QuerySerial(ctx context.Context, opt QueryOptions, queries []seqio.Seq) (*Results, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := ix.opt.checkQueryCompat(opt); err != nil {
		return nil, err
	}
	full := Options{IndexOptions: ix.opt, QueryOptions: opt}
	costs := upc.Edison(1)
	costs.PPN = 1
	th := upc.NewStandaloneThread(costs, 0)
	rec := &realPhases{}
	res := &Results{TotalReads: len(queries)}

	var perQuery []QueryStat
	if opt.CollectPerQuery {
		perQuery = make([]QueryStat, len(queries))
	}
	perThread := make([]threadStats, 1)
	rec.run(PhaseAlign, []*upc.Thread{th}, func() {
		st := &perThread[0]
		if opt.CollectAlignments {
			st.alignments = []Alignment{}
		}
		ix.processor(ctx, costs, full).alignChunk(th, st, queries, 0, len(queries), perQuery)
	})
	if err := perThread[0].err; err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	mergeThreadStats(res, perThread, opt.CollectAlignments)
	res.Phases = rec.phases
	res.SeedLookups = rec.total.SeedLookups
	res.IndexStats = ix.stats
	res.PerQuery = perQuery
	return res, nil
}
