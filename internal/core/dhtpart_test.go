package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/merx"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// shardSetResolver implements SeedResolver over loaded seed shards — the
// in-process analogue of the network client, routing each seed to its
// owning shard by hash. It is the reference implementation the parity
// tests compare the engine's remote path against.
type shardSetResolver struct {
	shards []*SeedShard
}

func (r *shardSetResolver) ResolveSeeds(ctx context.Context, seeds []kmer.Kmer, out []SeedAnswer) error {
	if len(out) != len(seeds) {
		return fmt.Errorf("out/seeds length mismatch: %d vs %d", len(out), len(seeds))
	}
	info := r.shards[0].Info()
	for i, s := range seeds {
		sh := r.shards[dht.OwnerOf(s, info.Shards, info.Count)]
		if !sh.Owns(s) {
			return fmt.Errorf("seed %d routed to non-owner", i)
		}
		res, ok := sh.Lookup(s)
		out[i] = SeedAnswer{Res: res, OK: ok}
	}
	return nil
}

// loadSeedShardSet saves and re-opens a fleet of seed shards.
func loadSeedShardSet(t *testing.T, ix *ThreadedIndex, count int) []*SeedShard {
	t.Helper()
	dir := t.TempDir()
	paths, err := ix.SaveSeedShards(dir, count)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != count {
		t.Fatalf("SaveSeedShards returned %d paths, want %d", len(paths), count)
	}
	shards := make([]*SeedShard, count)
	for i, p := range paths {
		sh, err := LoadSeedShard(p)
		if err != nil {
			t.Fatalf("LoadSeedShard(%s): %v", p, err)
		}
		t.Cleanup(func() { sh.Close() })
		if got := sh.Info(); got.ID != i || got.Count != count {
			t.Fatalf("shard %d identity %+v", i, got)
		}
		shards[i] = sh
	}
	return shards
}

// TestSeedShardResolverParity is the core-level distributed-parity check:
// aligning through a SeedResolver backed by saved-and-reloaded seed shards
// must produce results identical to the local index — alignments, cigars,
// per-read stats — across shard counts, both engines, and strides.
func TestSeedShardResolverParity(t *testing.T) {
	ds := testWorkload(t, 60_000, 3, 0.005)
	opt := testOptions(21)
	ix, err := BuildIndex(3, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	qopt := opt.QueryOptions
	qopt.CollectPerQuery = true

	want, err := ix.Query(context.Background(), 2, qopt, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{1, 2, 4} {
		shards := loadSeedShardSet(t, ix, count)
		ropt := qopt
		ropt.SeedResolver = &shardSetResolver{shards: shards}

		got, err := ix.Query(context.Background(), 2, ropt, ds.Reads)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Alignments, got.Alignments) {
			t.Fatalf("count=%d: alignments differ: local %d, resolver %d", count, len(want.Alignments), len(got.Alignments))
		}
		if want.AlignedReads != got.AlignedReads || want.ExactPathReads != got.ExactPathReads ||
			want.TotalAlignments != got.TotalAlignments || want.SWCalls != got.SWCalls ||
			want.SeedLookups != got.SeedLookups {
			t.Fatalf("count=%d: counters differ: local %+v, resolver %+v", count, want, got)
		}

		sGot, err := ix.QuerySerial(context.Background(), ropt, ds.Reads[:25])
		if err != nil {
			t.Fatal(err)
		}
		sWant, err := ix.QuerySerial(context.Background(), qopt, ds.Reads[:25])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sWant.Alignments, sGot.Alignments) {
			t.Fatalf("count=%d: serial-path alignments differ", count)
		}
	}
}

// TestSeedShardResolverParityStride covers the stride > 1 seed schedule:
// the prefetch pass must collect exactly the seeds the general path looks
// up, so a stride mismatch would misalign the answer buffer and change
// output.
func TestSeedShardResolverParityStride(t *testing.T) {
	ds := testWorkload(t, 40_000, 2, 0.01)
	opt := testOptions(21)
	ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	shards := loadSeedShardSet(t, ix, 3)
	for _, stride := range []int{1, 3, 7} {
		qopt := opt.QueryOptions
		qopt.SeedStride = stride
		want, err := ix.Query(context.Background(), 2, qopt, ds.Reads)
		if err != nil {
			t.Fatal(err)
		}
		qopt.SeedResolver = &shardSetResolver{shards: shards}
		got, err := ix.Query(context.Background(), 2, qopt, ds.Reads)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Alignments, got.Alignments) {
			t.Fatalf("stride=%d: alignments differ", stride)
		}
	}
}

// firstSeeds returns the set of the reads' first canonical seeds: what a
// phase-1 call of the chunked remote path carries when ExactMatch is on.
func firstSeeds(reads []seqio.Seq, k int) map[kmer.Kmer]bool {
	set := map[kmer.Kmer]bool{}
	for _, r := range reads {
		if r.Seq.Len() < k {
			continue
		}
		var sc kmer.Scanner
		sc.Reset(r.Seq, k)
		sc.Next()
		canon, _ := sc.Canonical()
		set[canon] = true
	}
	return set
}

// phaseFailingResolver fails the call after the first `after` calls of one
// phase. A call belongs to phase 1 when it carries only reads' first seeds
// (phase-2 calls carry every later seed of the reads they serve, which
// never all coincide with read starts on the test workload). Pool workers
// call it concurrently, so the count is atomic.
type phaseFailingResolver struct {
	inner  SeedResolver
	firsts map[kmer.Kmer]bool
	phase  int
	after  int64
	calls  atomic.Int64 // calls of the failing phase
}

func (r *phaseFailingResolver) ResolveSeeds(ctx context.Context, seeds []kmer.Kmer, out []SeedAnswer) error {
	phase := 1
	for _, s := range seeds {
		if !r.firsts[s] {
			phase = 2
			break
		}
	}
	if phase == r.phase && r.calls.Add(1) > r.after {
		return errors.New("seed shard unreachable")
	}
	return r.inner.ResolveSeeds(ctx, seeds, out)
}

// TestSeedResolverErrorAborts: a resolver failure must fail the whole call
// with the resolver's error — no partial results, no silent seed loss —
// whether it hits a phase-1 call (first seeds, fast path) or a phase-2 call
// (the remaining seeds of the reads the fast path left), on the pool and on
// the serial path.
func TestSeedResolverErrorAborts(t *testing.T) {
	ds := testWorkload(t, 30_000, 2, 0.005)
	opt := testOptions(21)
	ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Reads) <= alignBatch {
		t.Fatalf("%d reads fill one chunk; the pool cases need several", len(ds.Reads))
	}
	shards := loadSeedShardSet(t, ix, 2)
	firsts := firstSeeds(ds.Reads, opt.K)
	for _, phase := range []int{1, 2} {
		for _, serial := range []bool{false, true} {
			// The pool fails a later chunk's call of the phase, after one
			// chunk of it succeeded; the serial path has one call per phase.
			r := &phaseFailingResolver{inner: &shardSetResolver{shards: shards}, firsts: firsts, phase: phase}
			qopt := opt.QueryOptions
			qopt.SeedResolver = r
			var res *Results
			if serial {
				res, err = ix.QuerySerial(context.Background(), qopt, ds.Reads)
			} else {
				r.after = 1
				res, err = ix.Query(context.Background(), 2, qopt, ds.Reads)
			}
			if err == nil || err.Error() != "seed shard unreachable" || res != nil {
				t.Errorf("phase %d, serial %v: got results %v, error %v; want only the resolver error", phase, serial, res != nil, err)
			}
			if r.calls.Load() <= r.after {
				t.Errorf("phase %d, serial %v: the failure was never injected", phase, serial)
			}
		}
	}
}

// peerFailResolver holds its first call until the engine cancels it, and
// fails every other call: the held call's cancellation is derived from a
// peer's failure.
type peerFailResolver struct {
	calls atomic.Int64
}

func (r *peerFailResolver) ResolveSeeds(ctx context.Context, seeds []kmer.Kmer, out []SeedAnswer) error {
	if r.calls.Add(1) == 1 {
		<-ctx.Done()
		return ctx.Err()
	}
	return errors.New("seed shard unreachable")
}

// TestSeedResolverPeerCancellation: when one worker's resolver call fails
// while another's is in flight, Query must surface the failure, not the
// in-flight call's derived cancellation, whichever worker held which call.
func TestSeedResolverPeerCancellation(t *testing.T) {
	ds := testWorkload(t, 30_000, 2, 0.005)
	opt := testOptions(21)
	ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		qopt := opt.QueryOptions
		qopt.SeedResolver = &peerFailResolver{}
		res, err := ix.Query(context.Background(), 2, qopt, ds.Reads)
		if err == nil || err.Error() != "seed shard unreachable" || res != nil {
			t.Fatalf("run %d: got results %v, error %v; want only the resolver error", i, res != nil, err)
		}
	}
}

// countingResolver counts ResolveSeeds calls and the seeds they carry.
type countingResolver struct {
	inner        SeedResolver
	calls, seeds atomic.Int64
}

func (r *countingResolver) ResolveSeeds(ctx context.Context, seeds []kmer.Kmer, out []SeedAnswer) error {
	r.calls.Add(1)
	r.seeds.Add(int64(len(seeds)))
	return r.inner.ResolveSeeds(ctx, seeds, out)
}

// TestChunkedResolverBudget pins the chunked remote path's call budget and
// its parity with the local engine: at most two ResolveSeeds calls per work
// chunk, no seed sent that is never looked up, and alignments and per-query
// stats (wall time aside) identical to local lookups — across ExactMatch
// on/off, seed strides, reads shorter than K, the pool with one and two
// workers, the serial path, and CollectPerQuery.
func TestChunkedResolverBudget(t *testing.T) {
	ds := testWorkload(t, 30_000, 2, 0.005)
	reads := append([]seqio.Seq(nil), ds.Reads...)
	for i := 0; i < len(reads); i += 37 {
		reads[i].Seq = reads[i].Seq.Slice(0, 10) // shorter than K
	}
	if len(reads) <= alignBatch {
		t.Fatalf("%d reads fill one chunk; the pool cases need several", len(reads))
	}
	for _, exact := range []bool{true, false} {
		opt := testOptions(21)
		opt.ExactMatch = exact
		ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
		if err != nil {
			t.Fatal(err)
		}
		shards := loadSeedShardSet(t, ix, 2)
		for _, stride := range []int{1, 3} {
			for _, workers := range []int{0, 1, 2} { // 0: QuerySerial
				for _, perQuery := range []bool{false, true} {
					name := fmt.Sprintf("exact=%v/stride=%d/workers=%d/perQuery=%v", exact, stride, workers, perQuery)
					qopt := opt.QueryOptions
					qopt.SeedStride = stride
					qopt.CollectPerQuery = perQuery
					run := func(qopt QueryOptions) *Results {
						var res *Results
						var err error
						if workers == 0 {
							res, err = ix.QuerySerial(context.Background(), qopt, reads)
						} else {
							res, err = ix.Query(context.Background(), workers, qopt, reads)
						}
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for i := range res.PerQuery {
							res.PerQuery[i].Nanos = 0
						}
						return res
					}
					want := run(qopt)
					cr := &countingResolver{inner: &shardSetResolver{shards: shards}}
					qopt.SeedResolver = cr
					got := run(qopt)

					chunks := int64(1)
					if workers > 0 {
						chunks = int64((len(reads) + alignBatch - 1) / alignBatch)
					}
					if n := cr.calls.Load(); n > 2*chunks {
						t.Errorf("%s: %d ResolveSeeds calls for %d chunks", name, n, chunks)
					}
					if n := cr.seeds.Load(); n != got.SeedLookups {
						t.Errorf("%s: sent %d seeds, looked up %d", name, n, got.SeedLookups)
					}
					if got.SeedLookups != want.SeedLookups || got.AlignedReads != want.AlignedReads ||
						got.ExactPathReads != want.ExactPathReads || got.SWCalls != want.SWCalls ||
						got.TooShortReads != want.TooShortReads {
						t.Errorf("%s: counters differ:\nlocal  %+v\nremote %+v", name, want, got)
					}
					if !reflect.DeepEqual(want.Alignments, got.Alignments) {
						t.Errorf("%s: alignments differ: local %d, remote %d", name, len(want.Alignments), len(got.Alignments))
					}
					if !reflect.DeepEqual(want.PerQuery, got.PerQuery) {
						t.Errorf("%s: per-query stats differ", name)
					}
					if exact && want.ExactPathReads == 0 || want.TooShortReads == 0 || want.AlignedReads == want.ExactPathReads {
						t.Fatalf("%s: workload misses a path (exact %d, too short %d, aligned %d)",
							name, want.ExactPathReads, want.TooShortReads, want.AlignedReads)
					}
				}
			}
		}
	}
}

// TestLoadSeedShardRejects: typed failures for the wrong kind of file.
func TestLoadSeedShardRejects(t *testing.T) {
	ds := testWorkload(t, 30_000, 1, 0)
	opt := testOptions(21)
	ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	// A plain index snapshot has no DHTP section.
	plain := filepath.Join(t.TempDir(), "plain.merx")
	if err := ix.Save(plain); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSeedShard(plain); !errors.Is(err, merx.ErrIncompatible) {
		t.Fatalf("LoadSeedShard(plain index) = %v, want ErrIncompatible", err)
	}
	// A seed shard still opens through LoadIndex (self-contained partial
	// table), and carries its identity through to servers.
	paths, err := ix.SaveSeedShards(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := LoadIndex(1, paths[0])
	if err != nil {
		t.Fatalf("LoadIndex(seed shard) = %v, want success (self-contained)", err)
	}
	full.Close()
	// Bad count argument.
	if _, err := ix.SaveSeedShards(t.TempDir(), 0); err == nil {
		t.Fatal("SaveSeedShards accepted count 0")
	}
}

// TestSaveSeedShardsFingerprintAgreement: all shards of one save share the
// fingerprint; saves with different owner counts differ.
func TestSaveSeedShardsFingerprintAgreement(t *testing.T) {
	ds := testWorkload(t, 30_000, 1, 0)
	opt := testOptions(21)
	ix, err := BuildIndex(2, opt.IndexOptions, ds.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	a := loadSeedShardSet(t, ix, 3)
	fp := a[0].Info().Fingerprint
	for _, sh := range a {
		if sh.Info().Fingerprint != fp {
			t.Fatalf("fingerprints disagree within one save: %d vs %d", sh.Info().Fingerprint, fp)
		}
	}
	b := loadSeedShardSet(t, ix, 2)
	if b[0].Info().Fingerprint == fp {
		t.Fatal("fingerprint identical across different owner counts")
	}
}
