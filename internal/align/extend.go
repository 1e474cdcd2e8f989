package align

import "sync"

// extendProfiles recycles ExtendSeed's striped profiles (and their kernel
// scratch) across calls and goroutines.
var extendProfiles = sync.Pool{New: func() any { return new(Profile) }}

// SeedWindow returns the target window [start, end) that ExtendSeed aligns
// a qLen-base query against: the seed diagonal (query offset qOff at target
// offset tOff) widened by pad (negative pad counts as 0) on both sides and
// clamped to the tLen-base target.
func SeedWindow(qLen, qOff, tOff, tLen, pad int) (start, end int) {
	pad = max(pad, 0)
	return max(tOff-qOff-pad, 0), min(tOff+(qLen-qOff)+pad, tLen)
}

// ExtendSeed performs the seed-and-extend step (Algorithm 1, line 12): the
// query is locally aligned against a window of the target centered on the
// seed's diagonal. qOff/tOff locate the matching seed of length k in the
// query and target respectively; pad widens the window to allow gaps.
// The returned coordinates are in full-target space. The alignment is
// Local's, computed by the striped kernel with traceback
// (Profile.LocalWindow) on a pooled profile; safe for concurrent use.
func ExtendSeed(query, target []byte, qOff, tOff, k int, sc Scoring, pad int) Result {
	start, end := SeedWindow(len(query), qOff, tOff, len(target), pad)
	if start >= end {
		return Result{}
	}
	p := extendProfiles.Get().(*Profile)
	p.Reset(query, sc)
	res := p.LocalWindow(target[start:end])
	p.query = nil // the pool must not keep the caller's query alive
	extendProfiles.Put(p)
	res.TStart += start
	res.TEnd += start
	return res
}

// ExactResult builds the Result of a perfect end-to-end match of a qLen-base
// query at target offset tOff — the outcome of the exact-match fast path of
// §IV-A, where a memcmp replaces Smith-Waterman entirely.
func ExactResult(qLen, tOff int, sc Scoring) Result {
	return Result{
		Score:  qLen * sc.Match,
		QStart: 0, QEnd: qLen,
		TStart: tOff, TEnd: tOff + qLen,
		Cigar: Cigar{{Op: 'M', Len: qLen}},
	}
}
