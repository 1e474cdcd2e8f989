package align

import (
	"math/bits"
	"sync"
)

// This file implements Farrar's striped Smith-Waterman — the algorithm
// behind the SSW library of §V-B — with SIMD registers emulated by SWAR
// (SIMD-within-a-register) arithmetic on uint64 words. The 8-bit kernel
// packs eight unsigned lanes per word and biases scores to stay unsigned,
// and a 16-bit kernel (four lanes) re-runs queries whose score saturates,
// mirroring SSW's 8-bit-then-16-bit overflow protocol.

// laneSpec parameterizes the SWAR primitives for a lane width.
type laneSpec struct {
	bits  uint   // lane width in bits (8 or 16)
	lanes int    // 64 / bits
	hi    uint64 // high bit of every lane
	lo    uint64 // ^hi
	max   uint64 // saturation value of one lane (0xFF / 0xFFFF)
}

var (
	spec8  = laneSpec{bits: 8, lanes: 8, hi: 0x8080808080808080, lo: ^uint64(0x8080808080808080), max: 0xFF}
	spec16 = laneSpec{bits: 16, lanes: 4, hi: 0x8000800080008000, lo: ^uint64(0x8000800080008000), max: 0xFFFF}
)

// fill replicates a lane value into all lanes.
func (s laneSpec) fill(v uint64) uint64 {
	out := uint64(0)
	for i := 0; i < s.lanes; i++ {
		out |= v << (uint(i) * s.bits)
	}
	return out
}

// expand turns a lane-position bit mask (high bit per lane) into full-lane
// 0xFF.. masks: m*(2^bits-1)/2^(bits-1), computed carry-free.
func (s laneSpec) expand(hiMask uint64) uint64 {
	ones := hiMask >> (s.bits - 1) // 1 in bit 0 of each selected lane
	return (ones << s.bits) - ones // (2^bits - 1) per selected lane
}

// geMask returns the high-bit-per-lane mask of lanes where x >= y
// (unsigned). Derivation: when the lanes' sign bits are equal the comparison
// reduces to the biased difference's sign bit; when they differ, x's sign
// bit decides.
func (s laneSpec) geMask(x, y uint64) uint64 {
	d := (x | s.hi) - (y &^ s.hi)
	sdiff := x ^ y
	return ((d &^ sdiff) | (x & sdiff)) & s.hi
}

// maxu returns the lane-wise unsigned maximum.
func (s laneSpec) maxu(x, y uint64) uint64 {
	m := s.expand(s.geMask(x, y))
	return (x & m) | (y &^ m)
}

// subsat returns the lane-wise unsigned saturating subtraction max(x-y, 0).
func (s laneSpec) subsat(x, y uint64) uint64 {
	// min(x,y) per lane, then x - min is borrow-free lane-wise.
	m := s.expand(s.geMask(x, y))
	minv := (y & m) | (x &^ m)
	return x - minv
}

// addsat returns the lane-wise unsigned saturating addition min(x+y, max).
func (s laneSpec) addsat(x, y uint64) uint64 {
	t0 := (x ^ y) & s.hi
	t1 := (x & y) & s.hi
	sum := (x &^ s.hi) + (y &^ s.hi)
	t1 |= t0 & sum      // carry into the sign bit with one sign set
	sat := s.expand(t1) // saturated lanes -> all ones
	return (sum ^ t0) | sat
}

// anyGT reports whether any lane of x exceeds the corresponding lane of y.
func (s laneSpec) anyGT(x, y uint64) bool {
	// x > y  <=>  NOT (y >= x)
	return s.geMask(y, x) != s.hi
}

// laneMax extracts the maximum lane value of x.
func (s laneSpec) laneMax(x uint64) uint64 {
	best := uint64(0)
	mask := s.max
	for i := 0; i < s.lanes; i++ {
		v := (x >> (uint(i) * s.bits)) & mask
		if v > best {
			best = v
		}
	}
	return best
}

// shiftLanes shifts lanes up by one (lane i receives lane i-1; lane 0 gets
// zero) — the _mm_slli_si128 of the SSE original.
func (s laneSpec) shiftLanes(x uint64) uint64 { return x << s.bits }

// StripedResult reports a score-only striped alignment.
type StripedResult struct {
	Score     int
	TEnd      int  // past-the-end target index of the best cell
	Overflow  bool // true when the 8-bit kernel saturated (16-bit was used)
	UsedLanes uint // lane width of the kernel that produced the score; 0 for the scalar reference path
}

// Profile is a striped query profile reusable across targets — SSW builds
// it once per read and aligns the read against many candidates.
//
// Two usage regimes are supported. A profile built once with NewProfile may
// be shared: Align is safe for concurrent callers (the 16-bit rescue profile
// is built under a sync.Once, and each Align call owns its scratch). A
// profile owned by one goroutine may instead be recycled across queries with
// Reset and driven through AlignWindow, which reuses profile-owned scratch
// buffers — the zero-steady-state-allocation path of the query engine.
type Profile struct {
	query []byte
	sc    Scoring
	bias  uint64
	// prof8[c] holds segLen8 words of 8 lanes for base code c.
	segLen8 int
	prof8   [4][]uint64
	// 16-bit profile built lazily on first overflow; the Once makes a
	// shared Profile safe for concurrent Align calls (the threaded engine
	// aligns one query against many candidate targets from worker pools).
	once16   sync.Once
	segLen16 int
	prof16   [4][]uint64
	// Reusable kernel scratch for AlignWindow and LocalWindow (single-owner
	// use only): the kernel's H/E columns, LocalWindow's per-column H record
	// and its traceback's cigar ops.
	h0, h1, ev []uint64
	rec        []uint64
	ops        []CigarOp
}

// NewProfile builds the striped query profile.
func NewProfile(query []byte, sc Scoring) *Profile {
	p := &Profile{}
	p.Reset(query, sc)
	return p
}

// grown returns buf resized to n words, reusing its backing array when the
// capacity allows — the steady-state no-allocation path of Reset/build16.
func grown(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// Reset rebuilds the profile in place for a new query (and scoring), reusing
// every backing array the profile has already grown. After Reset the profile
// behaves exactly like NewProfile(query, sc); the receiver must not be
// shared with concurrent Align callers across a Reset.
func (p *Profile) Reset(query []byte, sc Scoring) {
	p.query, p.sc, p.bias = query, sc, uint64(sc.Mismatch)
	p.once16 = sync.Once{}
	p.segLen16 = 0
	n := len(query)
	if n == 0 {
		p.segLen8 = 0
		return
	}
	p.segLen8 = (n + spec8.lanes - 1) / spec8.lanes
	for c := 0; c < 4; c++ {
		p.prof8[c] = grown(p.prof8[c], p.segLen8)
		for j := 0; j < p.segLen8; j++ {
			var w uint64
			for l := 0; l < spec8.lanes; l++ {
				qi := j + l*p.segLen8
				v := uint64(0)
				if qi < n {
					v = uint64(int64(p.sc.score(byte(c), p.query[qi])) + int64(p.bias))
				}
				w |= v << (uint(l) * spec8.bits)
			}
			p.prof8[c][j] = w
		}
	}
}

func (p *Profile) build16() {
	n := len(p.query)
	p.segLen16 = (n + spec16.lanes - 1) / spec16.lanes
	for c := 0; c < 4; c++ {
		p.prof16[c] = grown(p.prof16[c], p.segLen16)
		for j := 0; j < p.segLen16; j++ {
			var w uint64
			for l := 0; l < spec16.lanes; l++ {
				qi := j + l*p.segLen16
				v := uint64(0)
				if qi < n {
					v = uint64(int64(p.sc.score(byte(c), p.query[qi])) + int64(p.bias))
				}
				w |= v << (uint(l) * spec16.bits)
			}
			p.prof16[c][j] = w
		}
	}
}

// Align computes the local alignment score of the profile's query against
// target, using the 8-bit kernel and rescuing with 16-bit on saturation.
// Scorings that do not fit a lane, and scores past the 16-bit lanes, get
// Local's score and end instead. Safe for concurrent callers on a profile
// that is not being Reset.
func (p *Profile) Align(target []byte) StripedResult {
	if len(p.query) == 0 || len(target) == 0 {
		return StripedResult{}
	}
	if !p.fitsLanes() {
		return p.local(target)
	}
	score, tEnd, overflow := p.kernel8(target,
		make([]uint64, p.segLen8), make([]uint64, p.segLen8), make([]uint64, p.segLen8), nil)
	if !overflow {
		return StripedResult{Score: score, TEnd: tEnd, UsedLanes: 8}
	}
	p.once16.Do(p.build16)
	score, tEnd, overflow = p.kernel(spec16, p.segLen16, &p.prof16, target,
		make([]uint64, p.segLen16), make([]uint64, p.segLen16), make([]uint64, p.segLen16), nil)
	if overflow {
		return p.local(target)
	}
	return StripedResult{Score: score, TEnd: tEnd, Overflow: true, UsedLanes: 16}
}

// fitsLanes reports whether the striped kernels can score the profile's
// scoring: every profile value (score + bias) and the gap penalties must
// fit an 8-bit lane. Outlandish scorings take the reference path (local).
func (p *Profile) fitsLanes() bool {
	return uint64(p.sc.Match)+p.bias <= spec8.max && uint64(p.sc.GapOpen+p.sc.GapExtend) <= spec8.max
}

// local is the score-only calls' reference path, for scorings that do not
// fit a lane and scores past the 16-bit lanes: Local's score and end.
func (p *Profile) local(target []byte) StripedResult {
	r := Local(p.query, target, p.sc)
	return StripedResult{Score: r.Score, TEnd: r.TEnd}
}

// AlignWindow is Align for a single-owner profile: the kernel runs on
// profile-owned scratch buffers that are cleared and reused call to call, so
// aligning one query against many candidate windows performs no allocation
// after the first call at a given query length. The common 8-bit pass runs
// the constant-specialized kernel8. Results are identical to Align's. NOT
// safe for concurrent use.
func (p *Profile) AlignWindow(target []byte) StripedResult {
	if len(p.query) == 0 || len(target) == 0 {
		return StripedResult{}
	}
	if !p.fitsLanes() {
		return p.local(target)
	}
	score, tEnd, H, overflow := p.fill(target, false)
	if overflow {
		return p.local(target)
	}
	return StripedResult{Score: score, TEnd: tEnd, Overflow: H.bits == 16, UsedLanes: H.bits}
}

// fill is the single-owner kernel pass behind AlignWindow and LocalWindow:
// the 8-bit kernel on profile scratch, rescued by the 16-bit kernel when it
// saturates. H describes the lane layout of the pass that produced the
// score and, when record is set, reads that pass's H record (p.rec).
// overflow reports that even the 16-bit lanes saturated.
func (p *Profile) fill(target []byte, record bool) (score, tEnd int, H hRecord, overflow bool) {
	var rec []uint64
	p.scratch(p.segLen8)
	if record {
		p.rec = grown(p.rec, len(target)*p.segLen8)
		rec = p.rec
	}
	H = hRecord{rec: rec, segLen: p.segLen8, bits: spec8.bits, mask: spec8.max}
	if score, tEnd, overflow = p.kernel8(target, p.h0, p.h1, p.ev, rec); !overflow {
		return score, tEnd, H, false
	}
	p.once16.Do(p.build16)
	p.scratch(p.segLen16)
	if record {
		p.rec = grown(p.rec, len(target)*p.segLen16)
		rec = p.rec
	}
	H = hRecord{rec: rec, segLen: p.segLen16, bits: spec16.bits, mask: spec16.max}
	score, tEnd, overflow = p.kernel(spec16, p.segLen16, &p.prof16, target, p.h0, p.h1, p.ev, rec)
	return score, tEnd, H, overflow
}

// scratch readies the reusable kernel buffers: segLen words each, zeroed
// (the kernel's initial conditions — fresh allocations in Align get this
// for free).
func (p *Profile) scratch(segLen int) {
	p.h0 = grown(p.h0, segLen)
	p.h1 = grown(p.h1, segLen)
	p.ev = grown(p.ev, segLen)
	clear(p.h0)
	clear(p.h1)
	clear(p.ev)
}

// kernel is Farrar's striped inner loop for one lane spec. hStore, hLoad and
// e are zeroed scratch of segLen words owned by the caller. When rec is
// non-nil (len(target)*segLen words) the kernel records every target
// column's final H — the exact DP values, in striped order — at
// rec[i*segLen:], for LocalWindow's traceback.
func (p *Profile) kernel(s laneSpec, segLen int, prof *[4][]uint64, target []byte, hStore, hLoad, e, rec []uint64) (score, tEnd int, overflow bool) {
	vBias := s.fill(p.bias)
	vGapO := s.fill(uint64(p.sc.GapOpen + p.sc.GapExtend))
	vGapE := s.fill(uint64(p.sc.GapExtend))

	best := uint64(0)
	bestT := 0

	for i := 0; i < len(target); i++ {
		vp := prof[target[i]]
		vF := uint64(0)
		// vH = hStore[segLen-1] shifted by one lane (H of the previous
		// column, previous query row in striped order).
		vH := s.shiftLanes(hStore[segLen-1])
		hLoad, hStore = hStore, hLoad

		var vColMax uint64
		for j := 0; j < segLen; j++ {
			vH = s.addsat(vH, vp[j])
			vH = s.subsat(vH, vBias)
			vH = s.maxu(vH, e[j])
			vH = s.maxu(vH, vF)
			vColMax = s.maxu(vColMax, vH)
			hStore[j] = vH

			vH2 := s.subsat(vH, vGapO)
			e[j] = s.maxu(s.subsat(e[j], vGapE), vH2)
			vF = s.maxu(s.subsat(vF, vGapE), vH2)
			vH = hLoad[j]
		}

		// Lazy-F loop: propagate F across segment boundaries.
		vF = s.shiftLanes(vF)
		j := 0
		for s.anyGT(vF, s.subsat(hStore[j], vGapO)) {
			hStore[j] = s.maxu(hStore[j], vF)
			vColMax = s.maxu(vColMax, hStore[j])
			vF = s.subsat(vF, vGapE)
			j++
			if j >= segLen {
				j = 0
				vF = s.shiftLanes(vF)
				if vF == 0 {
					break
				}
			}
		}

		if rec != nil {
			copy(rec[i*segLen:(i+1)*segLen], hStore)
		}
		if cm := s.laneMax(vColMax); cm > best {
			best = cm
			bestT = i + 1
		}
	}

	// Saturation is detected conservatively: once best + bias reaches the
	// lane ceiling, intermediate addsat results may have clamped, so the
	// scores are untrustworthy and the caller rescues with wider lanes.
	if best+p.bias >= s.max {
		return 0, 0, true
	}
	return int(best), bestT, false
}

// StripedScore is a convenience wrapper building a one-shot profile.
func StripedScore(query, target []byte, sc Scoring) StripedResult {
	return NewProfile(query, sc).Align(target)
}

// popcount of lane-presence masks, exposed for white-box tests.
func hiBitCount(s laneSpec, m uint64) int { return bits.OnesCount64(m & s.hi) }
