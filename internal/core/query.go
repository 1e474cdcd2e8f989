package core

import (
	"context"

	"github.com/lbl-repro/meraligner/internal/align"
	"github.com/lbl-repro/meraligner/internal/cache"
	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/kmer"
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

	// Remote-DHT state, active only when setResolver was called (the
	// threaded engine with QueryOptions.SeedResolver set): each query's
	// seeds are collected into seedBuf, resolved in one ResolveSeeds call,
	// and consumed from ansBuf in lookup order.
	resolver SeedResolver
	rctx     context.Context
	seedBuf  []kmer.Kmer
	ansBuf   []SeedAnswer
	ansIdx   int
}

func newQueryProcessor(mach upc.MachineConfig, opt Options, acc indexAccess, ft *FragmentTable) *queryProcessor {
	return &queryProcessor{opt: opt, acc: acc, ft: ft, costs: mach}
}

// setResolver activates the remote-DHT path: seed lookups resolve through r
// under ctx instead of probing the local index. Only the threaded engine
// calls this; the simulated engine always probes locally.
func (qp *queryProcessor) setResolver(ctx context.Context, r SeedResolver) {
	qp.resolver, qp.rctx = r, ctx
}

// prefetchSeeds collects every canonical seed the current query will look
// up — the first position, then every later position on the stride — and
// resolves them in one ResolveSeeds call. The collection order IS the
// consumption order of process, so lookupSeed can pop answers positionally.
func (qp *queryProcessor) prefetchSeeds(q dna.Packed, stride int) error {
	qp.seedBuf = qp.seedBuf[:0]
	var sc kmer.Scanner
	sc.Reset(q, qp.opt.K)
	sc.Next()
	canon, _ := sc.Canonical()
	qp.seedBuf = append(qp.seedBuf, canon)
	for sc.Next() {
		if sc.Offset()%stride != 0 {
			continue
		}
		canon, _ := sc.Canonical()
		qp.seedBuf = append(qp.seedBuf, canon)
	}
	n := len(qp.seedBuf)
	if cap(qp.ansBuf) < n {
		qp.ansBuf = make([]SeedAnswer, n)
	}
	qp.ansBuf = qp.ansBuf[:n]
	clear(qp.ansBuf)
	qp.ansIdx = 0
	return qp.resolver.ResolveSeeds(qp.rctx, qp.seedBuf, qp.ansBuf)
}

// lookupSeed is the one seed-lookup site of the aligning phase: the local
// index probe, or — on the remote path — the next prefetched answer. The
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
	opt := &qp.opt
	L := q.Len()
	if L < opt.K {
		// No complete seed fits: the read cannot be aligned. Record the
		// typed status instead of silently dropping it, so callers (the
		// service layer in particular) can distinguish "bad input" from
		// "aligned nowhere".
		st.tooShort = append(st.tooShort, qi)
		return
	}
	mach := &qp.costs
	if qp.resolver != nil {
		// Remote path: resolve every seed of this query in one batched
		// call before the per-seed loop consumes the answers positionally.
		if err := qp.prefetchSeeds(q, opt.stride()); err != nil {
			st.err = err
			return
		}
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
	qp.scan.Reset(q, opt.K)
	qp.scan.Next()

	// ---- Exact-match fast path (§IV-A) ----
	firstSeedChecked := false
	var firstRes dht.LookupResult
	var firstOK bool
	var firstQRC bool
	if opt.ExactMatch {
		th.Compute(mach.SeedExtractCost)
		var firstCanon kmer.Kmer
		firstCanon, firstQRC = qp.scan.Canonical()
		firstRes, firstOK = qp.lookupSeed(th, firstCanon)
		firstSeedChecked = true
		if firstOK && firstRes.Count == 1 && len(firstRes.Locs) == 1 {
			loc := firstRes.Locs[0]
			if qp.acc.SingleCopy(loc.Frag) {
				if a, ok := qp.tryExact(th, loc, firstQRC, L); ok {
					a.Query = qi
					st.exact++
					st.aligned++
					st.totalAlignments++
					if st.alignments != nil {
						a.Cigar = align.Cigar{{Op: 'M', Len: L}}.String()
						st.alignments = append(st.alignments, a)
					}
					return // single lookup sufficed — minimal communication
				}
			}
		}
	}

	// ---- General path: every seed, lookup, extend (lines 9-12) ----
	stride := opt.stride()
	if firstSeedChecked {
		qp.seedHits(th, st, firstRes, firstOK, firstQRC, 0, L) // reuse the fast-path lookup
	} else {
		th.Compute(mach.SeedExtractCost)
		canon, qrc := qp.scan.Canonical()
		res, ok := qp.lookupSeed(th, canon)
		qp.seedHits(th, st, res, ok, qrc, 0, L)
	}
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
