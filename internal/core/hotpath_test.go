package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/lbl-repro/meraligner/internal/align"
	"github.com/lbl-repro/meraligner/internal/seqio"
	"github.com/lbl-repro/meraligner/internal/upc"
)

// This file guards the reworked query hot path: the rolling seed scanner,
// the sealed flat seed table, and the per-strand striped-profile reuse —
// end-to-end parity across engines and entry points, plus the
// zero-allocations-per-read invariant of the serial path.

// TestStatsOnlyParityAcrossEngines extends the engine parity suite to the
// statistics-only mode — the path that drives the reusable striped profile
// (AlignWindow) instead of the traceback extender — across both seed-length
// regimes of the rolling scanner (single word and two-word).
func TestStatsOnlyParityAcrossEngines(t *testing.T) {
	ds := testWorkload(t, 60_000, 3, 0.005)
	for _, k := range []int{21, 51} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			opt := testOptions(k)
			opt.CollectAlignments = false
			sim, err := Run(testMach(8), opt, ds.Contigs, ds.Reads)
			if err != nil {
				t.Fatal(err)
			}
			thr, err := RunThreaded(3, opt, ds.Contigs, ds.Reads)
			if err != nil {
				t.Fatal(err)
			}
			if sim.AlignedReads != thr.AlignedReads ||
				sim.ExactPathReads != thr.ExactPathReads ||
				sim.TotalAlignments != thr.TotalAlignments ||
				sim.SWCalls != thr.SWCalls ||
				sim.SeedLookups != thr.SeedLookups {
				t.Errorf("stats-only summary differs:\nsim: %d/%d/%d/%d/%d\nthr: %d/%d/%d/%d/%d",
					sim.AlignedReads, sim.ExactPathReads, sim.TotalAlignments, sim.SWCalls, sim.SeedLookups,
					thr.AlignedReads, thr.ExactPathReads, thr.TotalAlignments, thr.SWCalls, thr.SeedLookups)
			}
			if thr.AlignedReads == 0 {
				t.Fatal("workload aligned nothing; parity test is vacuous")
			}
		})
	}
}

// TestQuerySerialMatchesQueryPool: the pool-free serial path (the service's
// low-latency route and the zero-alloc benchmark subject) must produce
// byte-identical Results to the worker-pool path on the same sealed index.
func TestQuerySerialMatchesQueryPool(t *testing.T) {
	ds := testWorkload(t, 60_000, 3, 0.005)
	opt := testOptions(21)
	ix, err := BuildIndex(3, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := ix.Query(context.Background(), 3, opt.QueryOptions, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := ix.QuerySerial(context.Background(), opt.QueryOptions, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if pool.AlignedReads != serial.AlignedReads ||
		pool.TotalAlignments != serial.TotalAlignments ||
		pool.SWCalls != serial.SWCalls ||
		pool.SeedLookups != serial.SeedLookups {
		t.Errorf("serial/pool summary differs: %d/%d/%d/%d vs %d/%d/%d/%d",
			pool.AlignedReads, pool.TotalAlignments, pool.SWCalls, pool.SeedLookups,
			serial.AlignedReads, serial.TotalAlignments, serial.SWCalls, serial.SeedLookups)
	}
	if len(pool.Alignments) != len(serial.Alignments) {
		t.Fatalf("alignment counts differ: %d vs %d", len(pool.Alignments), len(serial.Alignments))
	}
	for i := range pool.Alignments {
		if pool.Alignments[i] != serial.Alignments[i] {
			t.Fatalf("alignment %d differs:\npool:   %+v\nserial: %+v",
				i, pool.Alignments[i], serial.Alignments[i])
		}
	}
}

// queryNoAllocFixture builds a sealed index and a ready-to-run serial
// processor over a batch of reads that all carry at least one seed.
func queryNoAllocFixture(tb testing.TB) (*queryProcessor, *upc.Thread, *threadStats, []seqio.Seq) {
	ds := testWorkload(tb, 60_000, 2, 0.01)
	opt := DefaultOptions(21) // statistics-only: CollectAlignments off
	ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		tb.Fatal(err)
	}
	costs := upc.Edison(1)
	costs.PPN = 1
	th := upc.NewStandaloneThread(costs, 0)
	qp := newQueryProcessor(costs, opt, threadedAccess{sx: ix.sx}, ix.ft)
	st := &threadStats{}
	var reads []seqio.Seq
	for qi := range ds.Reads {
		if ds.Reads[qi].Seq.Len() >= opt.K {
			reads = append(reads, ds.Reads[qi])
		}
		if len(reads) == 64 {
			break
		}
	}
	if len(reads) < 16 {
		tb.Fatal("not enough full-length reads for the no-alloc fixture")
	}
	// Warm every reusable buffer and pin the fixture's other assumption:
	// the workload exercises the general path (profile reuse), not just the
	// exact-match shortcut.
	for qi := range reads {
		qp.process(th, st, int32(qi), reads[qi].Seq)
	}
	if st.swCalls == 0 {
		tb.Fatal("fixture reads never reached Smith-Waterman; no-alloc run would be vacuous")
	}
	return qp, th, st, reads
}

// TestQueryPathZeroAllocs asserts the invariant directly (so it runs in
// every `go test` invocation, not only under -bench): after warm-up, the
// serial statistics path performs ZERO heap allocations per read.
func TestQueryPathZeroAllocs(t *testing.T) {
	qp, th, st, reads := queryNoAllocFixture(t)
	avg := testing.AllocsPerRun(50, func() {
		for qi := range reads {
			qp.process(th, st, int32(qi), reads[qi].Seq)
		}
	})
	if avg != 0 {
		t.Fatalf("serial query path allocates %.2f objects per %d-read batch in steady state, want 0",
			avg, len(reads))
	}
}

// BenchmarkQueryNoAlloc measures the per-read cost of the serial hot path
// and enforces the zero-allocs-per-read invariant under the benchmark
// harness (CI runs it with -benchtime=1x as a smoke check).
func BenchmarkQueryNoAlloc(b *testing.B) {
	qp, th, st, reads := queryNoAllocFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(reads)
		qp.process(th, st, int32(qi), reads[qi].Seq)
	}
	b.StopTimer()
	avg := testing.AllocsPerRun(20, func() {
		for qi := range reads {
			qp.process(th, st, int32(qi), reads[qi].Seq)
		}
	})
	if avg != 0 {
		b.Fatalf("serial query path allocates %.2f objects per %d-read batch in steady state, want 0",
			avg, len(reads))
	}
}

// TestStatsOnlyMatchesCollecting: a statistics-only Query (the score-only
// AlignWindow pass) and a collecting Query (the LocalWindow traceback) must
// report the same aligned reads and alignments, including under a scoring
// too large for the striped kernels' 8-bit lanes.
func TestStatsOnlyMatchesCollecting(t *testing.T) {
	ds := testWorkload(t, 40_000, 2, 0.01)
	for _, sc := range []align.Scoring{
		align.DefaultScoring,
		{Match: 200, Mismatch: 100, GapOpen: 5, GapExtend: 2},
	} {
		opt := testOptions(21)
		opt.Scoring = sc
		ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
		if err != nil {
			t.Fatal(err)
		}
		coll, err := ix.Query(context.Background(), 2, opt.QueryOptions, ds.Reads)
		if err != nil {
			t.Fatal(err)
		}
		qopt := opt.QueryOptions
		qopt.CollectAlignments = false
		stats, err := ix.Query(context.Background(), 2, qopt, ds.Reads)
		if err != nil {
			t.Fatal(err)
		}
		if stats.AlignedReads != coll.AlignedReads || stats.TotalAlignments != coll.TotalAlignments {
			t.Errorf("scoring %+v: stats-only aligned %d reads / %d alignments, collecting %d / %d",
				sc, stats.AlignedReads, stats.TotalAlignments, coll.AlignedReads, coll.TotalAlignments)
		}
		if coll.AlignedReads == coll.ExactPathReads {
			t.Fatalf("scoring %+v: no read took the general path; the comparison is vacuous", sc)
		}
	}
}
