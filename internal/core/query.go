package core

import (
	"context"
	"time"

	"github.com/lbl-repro/meraligner/internal/align"
	"github.com/lbl-repro/meraligner/internal/cache"
	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/kmer"
	"github.com/lbl-repro/meraligner/internal/seqio"
	"github.com/lbl-repro/meraligner/internal/upc"
)

// candKey identifies a candidate alignment for deduplication: one target,
// one strand, one seed diagonal.
type candKey struct {
	target int32
	diag   int32
	rc     bool
}

// foundKey identifies a reported alignment for deduplication: alignments
// reached from different seed diagonals collapse when they share a target,
// strand and both start coordinates.
type foundKey struct {
	target int32
	tstart int32
	qstart int32
	rc     bool
}

// seenSpill bounds the linear-scan candidate dedupe; the rare query with
// more live candidates spills into a (reused) map instead of going O(n²).
const seenSpill = 128

// indexAccess abstracts the seed index and target store behind the aligning
// phase, so the same per-query algorithm runs against either engine: the
// simulated PGAS index (dht.Index through the software caches, charging the
// cost model) or the threaded engine's in-memory sharded index (real data,
// real time, no cost charging).
type indexAccess interface {
	// Lookup resolves a canonical seed to its location list.
	Lookup(th *upc.Thread, s kmer.Kmer) (dht.LookupResult, bool)
	// SingleCopy reports the fragment's single-copy-seeds flag (§IV-A).
	SingleCopy(frag int32) bool
	// FetchTarget accounts for bringing a target's sequence to the thread.
	FetchTarget(th *upc.Thread, target int32, targetBytes, owner int)
}

// simAccess is the simulated-machine implementation: lookups go through the
// per-node seed cache, target fetches through the target cache, and every
// operation charges the thread's virtual clock.
type simAccess struct {
	ix *dht.Index
	g  *cache.Group
}

func (a simAccess) Lookup(th *upc.Thread, s kmer.Kmer) (dht.LookupResult, bool) {
	return a.g.Lookup(th, a.ix, s)
}
func (a simAccess) SingleCopy(frag int32) bool { return a.ix.SingleCopy(int(frag)) }
func (a simAccess) FetchTarget(th *upc.Thread, target int32, targetBytes, owner int) {
	a.g.FetchTarget(th, target, targetBytes, owner)
}

// queryProcessor holds the reusable per-thread state of the aligning phase.
// Every buffer below is recycled query to query, so the steady-state serial
// path performs zero allocations per read (pinned by BenchmarkQueryNoAlloc).
type queryProcessor struct {
	opt   Options
	acc   indexAccess
	ft    *FragmentTable
	costs upc.MachineConfig // cost constants for the hot loop

	scan    kmer.Scanner // rolling seed extraction over the current query
	fwd, rc []byte       // unpacked query codes, forward and reverse complement

	// Candidate dedupe: a reusable linear-scan slice, spilling into a lazily
	// allocated map on the rare candidate-heavy query.
	seenList []candKey
	seenMap  map[candKey]struct{}

	// Striped profiles, built at most once per (query, strand) and reused
	// across every candidate window of the query (the SSW lifecycle).
	profFwd, profRC     align.Profile
	profFwdOK, profRCOK bool

	found     []align.Result // alignments of the current query
	foundKeys []foundKey     // their dedupe keys (packed, scanned linearly)
	foundRC   []bool
	foundTg   []int32

	// Remote-DHT state, active only on the threaded engine with
	// QueryOptions.SeedResolver set (see alignChunk): a chunk's seeds are
	// collected into seedBuf, resolved in one ResolveSeeds call per phase,
	// and consumed from ansBuf in lookup order. pending holds the reads the
	// fast path left to phase 2. All three are reused chunk to chunk.
	resolver SeedResolver
	ctx      context.Context
	seedBuf  []kmer.Kmer
	ansBuf   []SeedAnswer
	ansIdx   int
	pending  []pendingRead
}

// pendingRead is a read the exact-match fast path did not settle in phase 1
// of a remote chunk: its query index and its first seed's answer, which the
// general path reuses in phase 2 instead of resending the seed.
type pendingRead struct {
	qi    int32
	first SeedAnswer
}

func newQueryProcessor(mach upc.MachineConfig, opt Options, acc indexAccess, ft *FragmentTable) *queryProcessor {
	return &queryProcessor{opt: opt, acc: acc, ft: ft, costs: mach}
}

// alignChunk aligns queries [lo, hi), one claimed work chunk of the
// threaded engine, into st, filling perQuery[lo:hi] when perQuery is
// non-nil. It stops early, without error, once qp.ctx is done.
//
// Local lookups run read by read. With a resolver the chunk's seeds travel
// in at most two ResolveSeeds calls, so remote lookups aggregate across
// reads (the paper's aggregating stores, §III-A) while keeping the
// exact-match saving (§IV-A): phase 1 carries the first seed of every read
// long enough to have one, and each read runs the fast path on its answer;
// phase 2 carries the remaining seeds of only the reads the fast path left,
// which then run the general path reusing their phase-1 answer. Without
// ExactMatch phase 1 carries every seed and there is no phase 2. Answers
// are consumed in the order process looks seeds up, so alignments and
// per-query counters equal the local engine's.
//
// QueryStat.Nanos is each read's own processing time plus the resolve
// calls that carried its seeds.
func (qp *queryProcessor) alignChunk(th *upc.Thread, st *threadStats, queries []seqio.Seq, lo, hi int, perQuery []QueryStat) {
	split := qp.resolver != nil && qp.opt.ExactMatch
	var wait time.Duration
	if qp.resolver != nil {
		qp.seedBuf = qp.seedBuf[:0]
		for qi := lo; qi < hi; qi++ {
			qp.seedBuf = qp.appendSeeds(qp.seedBuf, queries[qi].Seq, true, !split)
		}
		if wait, st.err = qp.resolve(); st.err != nil {
			return
		}
	}
	clear(qp.pending)
	qp.pending = qp.pending[:0]
	done := qp.ctx.Done()
	for qi := lo; qi < hi; qi++ {
		if isDone(done) {
			return
		}
		q := queries[qi].Seq
		var m statMark
		if perQuery != nil {
			m = markStat(th, st)
		}
		if !split {
			qp.process(th, st, int32(qi), q)
		} else if qp.begin(st, int32(qi), q) {
			if first, settled := qp.exact(th, st, int32(qi), q.Len()); !settled {
				qp.pending = append(qp.pending, pendingRead{qi: int32(qi), first: first})
			}
		}
		if perQuery != nil {
			out := &perQuery[qi]
			if q.Len() < qp.opt.K {
				out.Status = QueryTooShort
			} else if qp.resolver != nil {
				out.Nanos += wait.Nanoseconds()
			}
			m.add(out, th, st)
		}
	}
	if len(qp.pending) == 0 {
		return
	}

	qp.seedBuf = qp.seedBuf[:0]
	for _, p := range qp.pending {
		qp.seedBuf = qp.appendSeeds(qp.seedBuf, queries[p.qi].Seq, false, true)
	}
	if wait, st.err = qp.resolve(); st.err != nil {
		return
	}
	for _, p := range qp.pending {
		if isDone(done) {
			return
		}
		var m statMark
		if perQuery != nil {
			m = markStat(th, st)
		}
		q := queries[p.qi].Seq
		qp.begin(st, p.qi, q) // true: the read reached phase 1's fast path
		qp.general(th, st, p.qi, q.Len(), p.first)
		if perQuery != nil {
			perQuery[p.qi].Nanos += wait.Nanoseconds()
			m.add(&perQuery[p.qi], th, st)
		}
	}
}

// isDone polls a done channel without blocking.
func isDone(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// statMark snapshots the counters a QueryStat is derived from; add folds
// the deltas since the mark into one query's stat. A read processed in two
// phases accumulates both.
type statMark struct {
	sw, aln, exa, slk int64
	start             time.Time
}

func markStat(th *upc.Thread, st *threadStats) statMark {
	return statMark{sw: st.swCalls, aln: st.totalAlignments, exa: int64(st.exact),
		slk: th.Counters.SeedLookups, start: time.Now()}
}

func (m statMark) add(out *QueryStat, th *upc.Thread, st *threadStats) {
	out.Nanos += time.Since(m.start).Nanoseconds()
	out.SWCalls += int32(st.swCalls - m.sw)
	out.SeedLookups += int32(th.Counters.SeedLookups - m.slk)
	out.Alignments += int32(st.totalAlignments - m.aln)
	out.Exact = out.Exact || int64(st.exact) > m.exa
}

// appendSeeds appends the canonical seeds process looks up for q, in lookup
// order: the first position when first is set, then every later position
// on the stride when rest is set. A query shorter than K has none.
func (qp *queryProcessor) appendSeeds(buf []kmer.Kmer, q dna.Packed, first, rest bool) []kmer.Kmer {
	if q.Len() < qp.opt.K {
		return buf
	}
	stride := qp.opt.stride()
	sc := &qp.scan // free between reads; begin resets it
	sc.Reset(q, qp.opt.K)
	sc.Next()
	if first {
		canon, _ := sc.Canonical()
		buf = append(buf, canon)
	}
	for rest && sc.Next() {
		if sc.Offset()%stride != 0 {
			continue
		}
		canon, _ := sc.Canonical()
		buf = append(buf, canon)
	}
	return buf
}

// resolve sends seedBuf in one ResolveSeeds call, readying ansBuf for
// positional consumption by lookupSeed, and reports the call's duration.
// An empty seedBuf makes no call.
func (qp *queryProcessor) resolve() (time.Duration, error) {
	n := len(qp.seedBuf)
	if cap(qp.ansBuf) < n {
		qp.ansBuf = make([]SeedAnswer, n)
	}
	qp.ansBuf = qp.ansBuf[:n]
	clear(qp.ansBuf)
	qp.ansIdx = 0
	if n == 0 {
		return 0, nil
	}
	start := time.Now()
	err := qp.resolver.ResolveSeeds(qp.ctx, qp.seedBuf, qp.ansBuf)
	return time.Since(start), err
}

// lookupSeed is the one seed-lookup site of the aligning phase: the local
// index probe, or — on the remote path — the next resolved answer. The
// thread's lookup counter advances either way, so per-query statistics are
// identical across the two paths.
func (qp *queryProcessor) lookupSeed(th *upc.Thread, s kmer.Kmer) (dht.LookupResult, bool) {
	if qp.resolver == nil {
		return qp.acc.Lookup(th, s)
	}
	a := qp.ansBuf[qp.ansIdx]
	qp.ansIdx++
	th.Counters.SeedLookups++
	return a.Res, a.OK
}

// process aligns one query (Algorithm 1, lines 8-12, plus §IV
// optimizations), charging the thread's cost model and accumulating into st.
func (qp *queryProcessor) process(th *upc.Thread, st *threadStats, qi int32, q dna.Packed) {
	if !qp.begin(st, qi, q) {
		return
	}
	var first SeedAnswer
	if qp.opt.ExactMatch {
		var settled bool
		if first, settled = qp.exact(th, st, qi, q.Len()); settled {
			return // single lookup sufficed — minimal communication
		}
	}
	qp.general(th, st, qi, q.Len(), first)
}

// begin readies the per-query state for q, leaving the scanner on the
// first seed. A query shorter than K is recorded as too short and begin
// reports false.
func (qp *queryProcessor) begin(st *threadStats, qi int32, q dna.Packed) bool {
	if q.Len() < qp.opt.K {
		// No complete seed fits: the read cannot be aligned. Record the
		// typed status instead of silently dropping it, so callers (the
		// service layer in particular) can distinguish "bad input" from
		// "aligned nowhere".
		st.tooShort = append(st.tooShort, qi)
		return false
	}
	qp.fwd = q.AppendCodes(qp.fwd[:0])
	qp.rc = qp.rc[:0]
	qp.seenList = qp.seenList[:0]
	if len(qp.seenMap) > 0 {
		clear(qp.seenMap)
	}
	qp.profFwdOK, qp.profRCOK = false, false
	qp.found = qp.found[:0]
	qp.foundKeys = qp.foundKeys[:0]
	qp.foundRC = qp.foundRC[:0]
	qp.foundTg = qp.foundTg[:0]

	// The scanner maintains the forward and reverse-complement seeds
	// incrementally; L >= K guarantees at least one position.
	qp.scan.Reset(q, qp.opt.K)
	qp.scan.Next()
	return true
}

// exact is the exact-match fast path (§IV-A) on a begun query of length L:
// it looks up the first seed and, on a single-copy hit the whole query
// matches, records the alignment and reports the query settled. Otherwise
// it returns the first seed's answer for the general path to reuse.
func (qp *queryProcessor) exact(th *upc.Thread, st *threadStats, qi int32, L int) (SeedAnswer, bool) {
	th.Compute(qp.costs.SeedExtractCost)
	canon, qrc := qp.scan.Canonical()
	res, ok := qp.lookupSeed(th, canon)
	if ok && res.Count == 1 && len(res.Locs) == 1 && qp.acc.SingleCopy(res.Locs[0].Frag) {
		if a, hit := qp.tryExact(th, res.Locs[0], qrc, L); hit {
			a.Query = qi
			st.exact++
			st.aligned++
			st.totalAlignments++
			if st.alignments != nil {
				a.Cigar = align.Cigar{{Op: 'M', Len: L}}.String()
				st.alignments = append(st.alignments, a)
			}
			return SeedAnswer{}, true
		}
	}
	return SeedAnswer{Res: res, OK: ok}, false
}

// general is the general path (Algorithm 1, lines 9-12) on a begun query
// of length L: look up every seed on the stride, extend each candidate,
// and report the distinct alignments. With ExactMatch the fast path has
// already looked up the first seed, and its answer first is reused.
func (qp *queryProcessor) general(th *upc.Thread, st *threadStats, qi int32, L int, first SeedAnswer) {
	mach := &qp.costs
	stride := qp.opt.stride()
	canon, qrc := qp.scan.Canonical()
	if !qp.opt.ExactMatch {
		th.Compute(mach.SeedExtractCost)
		first.Res, first.OK = qp.lookupSeed(th, canon)
	}
	qp.seedHits(th, st, first.Res, first.OK, qrc, 0, L)
	for qp.scan.Next() {
		qoff := qp.scan.Offset()
		if qoff%stride != 0 {
			continue // the rolling update is O(1); only looked-up seeds pay
		}
		th.Compute(mach.SeedExtractCost)
		canon, qrc := qp.scan.Canonical()
		res, ok := qp.lookupSeed(th, canon)
		qp.seedHits(th, st, res, ok, qrc, qoff, L)
	}

	if len(qp.found) > 0 {
		st.aligned++
	}
	for i, a := range qp.found {
		st.totalAlignments++
		if st.alignments != nil {
			st.alignments = append(st.alignments, Alignment{
				Query:  qi,
				Target: qp.foundTg[i],
				RC:     qp.foundRC[i],
				Score:  int32(a.Score),
				QStart: int32(a.QStart), QEnd: int32(a.QEnd),
				TStart: int32(a.TStart), TEnd: int32(a.TEnd),
				Cigar: a.Cigar.String(),
			})
		}
	}
}

// seedHits feeds one seed lookup's hits into candidate generation, applying
// the §IV-C sensitivity threshold.
func (qp *queryProcessor) seedHits(th *upc.Thread, st *threadStats, res dht.LookupResult, ok, qrc bool, qoff, L int) {
	if !ok {
		return
	}
	if qp.opt.MaxSeedHits > 0 && int(res.Count) > qp.opt.MaxSeedHits {
		return // §IV-C sensitivity threshold
	}
	for _, loc := range res.Locs {
		qp.candidate(th, st, loc, qrc, qoff, L)
	}
}

// tryExact attempts the single-lookup exact match: the query's first seed
// hit a single-copy-seed fragment exactly once; if the whole query matches
// the target there with a plain comparison, Lemma 1 guarantees the
// alignment is unique and no further lookups or Smith-Waterman are needed.
func (qp *queryProcessor) tryExact(th *upc.Thread, loc dht.Loc, qrc bool, L int) (Alignment, bool) {
	frag := qp.ft.Frags[loc.Frag]
	rc := qrc != loc.RC
	qoffEff := 0
	if rc {
		qoffEff = L - qp.opt.K // seed position within the reverse-complemented query
	}
	tOff := int(frag.Start) + int(loc.Off) - qoffEff
	tcodes := qp.ft.TargetCodes(frag.Target)
	if tOff < 0 || tOff+L > len(tcodes) {
		return Alignment{}, false // query overhangs the target: general path
	}
	qp.acc.FetchTarget(th, frag.Target, qp.ft.TargetPackedBytes(frag.Target), qp.ft.Owner(loc.Frag))
	th.Compute(float64((L+3)/4) * qp.costs.MemcmpCost)
	th.Counters.MemcmpBytes += int64((L + 3) / 4)
	qc := qp.queryCodes(rc, L)
	for i := 0; i < L; i++ {
		if qc[i] != tcodes[tOff+i] {
			return Alignment{}, false
		}
	}
	return Alignment{
		Target: frag.Target,
		RC:     rc,
		Score:  int32(L * qp.opt.Scoring.Match),
		QStart: 0, QEnd: int32(L),
		TStart: int32(tOff), TEnd: int32(tOff + L),
		Exact: true,
	}, true
}

// seenBefore records a candidate key, reporting whether it was already
// present. Small candidate sets stay in the reusable slice; the rare
// repeat-heavy query spills into the map (allocated once, cleared lazily).
func (qp *queryProcessor) seenBefore(key candKey) bool {
	for i := range qp.seenList {
		if qp.seenList[i] == key {
			return true
		}
	}
	if len(qp.seenList) < seenSpill {
		qp.seenList = append(qp.seenList, key)
		return false
	}
	if qp.seenMap == nil {
		qp.seenMap = make(map[candKey]struct{}, 2*seenSpill)
	}
	if _, dup := qp.seenMap[key]; dup {
		return true
	}
	qp.seenMap[key] = struct{}{}
	return false
}

// candidate processes one seed hit on the general path: dedupe by
// (target, strand, diagonal), fetch the target through the cache, and run
// striped Smith-Waterman on the seed window with the query's per-strand
// reusable profile.
func (qp *queryProcessor) candidate(th *upc.Thread, st *threadStats, loc dht.Loc, qrc bool, qoff, L int) {
	frag := qp.ft.Frags[loc.Frag]
	rc := qrc != loc.RC
	qoffEff := qoff
	if rc {
		qoffEff = L - qoff - qp.opt.K
	}
	seedT := int(frag.Start) + int(loc.Off) // seed position in the target
	diag := int32(seedT - qoffEff)
	if qp.seenBefore(candKey{target: frag.Target, diag: diag, rc: rc}) {
		return
	}

	tcodes := qp.ft.TargetCodes(frag.Target)
	qp.acc.FetchTarget(th, frag.Target, qp.ft.TargetPackedBytes(frag.Target), qp.ft.Owner(loc.Frag))

	winLo, winHi := align.SeedWindow(L, qoffEff, seedT, len(tcodes), qp.opt.ExtendPad)
	cells := align.Cells(L, winHi-winLo)
	th.Compute(qp.costs.SWSetupCost + float64(cells)*qp.costs.SWCellCost)
	th.Counters.SWCells += cells
	th.Counters.SWCalls++
	st.swCalls++

	// The built-in extension runs the striped kernel on the query's
	// per-strand profile, built once per (query, strand) and reused across
	// every candidate window (the SSW lifecycle). Statistics-only runs take
	// the score-only pass and derive end-points from it; collecting runs
	// add the traceback, which returns exactly align.Local's alignment of
	// the same window (what align.ExtendSeed computes).
	var res align.Result
	switch {
	case qp.opt.Extend != nil:
		res = qp.opt.Extend(qp.queryCodes(rc, L), tcodes, qoffEff, seedT, qp.opt.K, qp.opt.Scoring, qp.opt.ExtendPad)
	case st.alignments == nil:
		sr := qp.strandProfile(rc, L).AlignWindow(tcodes[winLo:winHi])
		res = align.Result{Score: sr.Score, TStart: winLo + sr.TEnd, TEnd: winLo + sr.TEnd}
	default:
		res = qp.strandProfile(rc, L).LocalWindow(tcodes[winLo:winHi])
		res.TStart += winLo
		res.TEnd += winLo
	}

	if res.Score < qp.opt.minScore() {
		return
	}
	// Dedupe identical alignments reached from different seed diagonals:
	// linear scan over the packed key slice.
	key := foundKey{target: frag.Target, tstart: int32(res.TStart), qstart: int32(res.QStart), rc: rc}
	for i := range qp.foundKeys {
		if qp.foundKeys[i] == key {
			return
		}
	}
	qp.found = append(qp.found, res)
	qp.foundKeys = append(qp.foundKeys, key)
	qp.foundRC = append(qp.foundRC, rc)
	qp.foundTg = append(qp.foundTg, frag.Target)
}

// strandProfile returns the striped profile of the query on the requested
// strand, building (or Reset-recycling) it on first use within the query.
func (qp *queryProcessor) strandProfile(rc bool, L int) *align.Profile {
	if rc {
		if !qp.profRCOK {
			qp.profRC.Reset(qp.queryCodes(true, L), qp.opt.Scoring)
			qp.profRCOK = true
		}
		return &qp.profRC
	}
	if !qp.profFwdOK {
		qp.profFwd.Reset(qp.fwd, qp.opt.Scoring)
		qp.profFwdOK = true
	}
	return &qp.profFwd
}

// queryCodes returns the query's code slice on the requested strand,
// computing the reverse complement lazily.
func (qp *queryProcessor) queryCodes(rc bool, L int) []byte {
	if !rc {
		return qp.fwd
	}
	if len(qp.rc) != L {
		qp.rc = qp.rc[:0]
		for i := L - 1; i >= 0; i-- {
			qp.rc = append(qp.rc, 3-qp.fwd[i])
		}
	}
	return qp.rc
}
