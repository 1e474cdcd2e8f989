// Package align implements local sequence alignment: a striped
// Smith-Waterman in the style of the SSW library the paper incorporates
// (§V-B), with SIMD lanes emulated by SWAR arithmetic on 64-bit words
// (8 x 8-bit lanes, rescued to 4 x 16-bit lanes on overflow, exactly SSW's
// protocol) and a traceback over the kernel's recorded H values; plus the
// textbook affine-gap Smith-Waterman (Score, Local) it is verified against.
//
// Sequences are slices of 2-bit base codes (see package dna), not ASCII.
package align

import (
	"fmt"
	"strings"
)

// Scoring holds affine-gap alignment parameters. Penalties are positive
// magnitudes: aligning with a gap of length g costs GapOpen + g*GapExtend.
type Scoring struct {
	Match     int // score for a base match (> 0)
	Mismatch  int // penalty for a substitution (> 0)
	GapOpen   int // penalty for opening a gap (>= 0)
	GapExtend int // penalty per gap base (> 0)
}

// DefaultScoring is a commonly employed scoring scheme (match 1, mismatch 3,
// gap open 5, gap extend 2), in the spirit of §VI-D's "commonly employed
// scoring matrix".
var DefaultScoring = Scoring{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2}

// Validate reports parameter errors.
func (s Scoring) Validate() error {
	if s.Match <= 0 {
		return fmt.Errorf("align: Match must be positive, got %d", s.Match)
	}
	if s.Mismatch < 0 || s.GapOpen < 0 || s.GapExtend < 0 {
		return fmt.Errorf("align: penalties must be non-negative")
	}
	return nil
}

func (s Scoring) score(a, b byte) int {
	if a == b {
		return s.Match
	}
	return -s.Mismatch
}

// CigarOp is one run-length-encoded alignment operation.
type CigarOp struct {
	Op  byte // 'M' (match/mismatch), 'I' (insertion to target), 'D' (deletion from target)
	Len int
}

// Cigar is a run-length-encoded alignment path.
type Cigar []CigarOp

// String renders the cigar in SAM style, e.g. "37M1I63M".
func (c Cigar) String() string {
	var sb strings.Builder
	for _, op := range c {
		fmt.Fprintf(&sb, "%d%c", op.Len, op.Op)
	}
	return sb.String()
}

// QuerySpan returns the number of query bases the cigar consumes (M + I).
func (c Cigar) QuerySpan() int {
	n := 0
	for _, op := range c {
		if op.Op == 'M' || op.Op == 'I' {
			n += op.Len
		}
	}
	return n
}

// TargetSpan returns the number of target bases the cigar consumes (M + D).
func (c Cigar) TargetSpan() int {
	n := 0
	for _, op := range c {
		if op.Op == 'M' || op.Op == 'D' {
			n += op.Len
		}
	}
	return n
}

// Result is a local alignment between a query and a target.
type Result struct {
	Score  int
	QStart int // first aligned query base (inclusive)
	QEnd   int // past the last aligned query base
	TStart int // first aligned target base (inclusive)
	TEnd   int // past the last aligned target base
	Cigar  Cigar
}

// Score computes the score-only local alignment of query vs target with the
// reference O(mn) affine-gap dynamic program. It is the oracle the striped
// implementation is verified against.
func Score(query, target []byte, sc Scoring) int {
	n, m := len(query), len(target)
	if n == 0 || m == 0 {
		return 0
	}
	// H, E over a rolling column; F computed on the fly.
	H := make([]int, n+1)
	E := make([]int, n+1)
	negInf := -1 << 30
	for j := 0; j <= n; j++ {
		E[j] = negInf
	}
	best := 0
	for i := 1; i <= m; i++ {
		diag := 0 // H[i-1][0]
		F := negInf
		for j := 1; j <= n; j++ {
			E[j] = max(E[j]-sc.GapExtend, H[j]-sc.GapOpen-sc.GapExtend)
			F = max(F-sc.GapExtend, H[j-1]-sc.GapOpen-sc.GapExtend)
			h := max(0, diag+sc.score(query[j-1], target[i-1]), E[j], F)
			diag = H[j]
			H[j] = h
			best = max(best, h)
		}
	}
	return best
}

// Local computes the full local alignment with traceback, returning score,
// end-points and cigar. The highest-scoring cell is chosen; among equals the
// one with the smallest (TEnd, QEnd) wins, matching the scan order.
//
// Local is the reference oracle of the extend path: a textbook scalar DP
// over full (m+1)x(n+1) H/E/F matrices, allocated per call. Production
// extension runs Profile.LocalWindow, which must return exactly Local's
// Result (TestLocalWindowMatchesLocal, FuzzLocalWindow).
func Local(query, target []byte, sc Scoring) Result {
	n, m := len(query), len(target)
	if n == 0 || m == 0 {
		return Result{}
	}
	// Full matrices for traceback: H, E, F as (m+1) x (n+1).
	w := n + 1
	H := make([]int32, (m+1)*w)
	E := make([]int32, (m+1)*w)
	F := make([]int32, (m+1)*w)
	const negInf = int32(-1 << 28)
	for j := 0; j < w; j++ {
		E[j] = negInf
		F[j] = negInf
	}
	for i := 1; i <= m; i++ {
		E[i*w] = negInf
		F[i*w] = negInf
	}
	var best int32
	bi, bj := 0, 0
	go_, ge := int32(sc.GapOpen+sc.GapExtend), int32(sc.GapExtend)
	for i := 1; i <= m; i++ {
		row, prow := i*w, (i-1)*w
		for j := 1; j <= n; j++ {
			e := max(E[prow+j]-ge, H[prow+j]-go_)
			f := max(F[row+j-1]-ge, H[row+j-1]-go_)
			h := max(0, H[prow+j-1]+int32(sc.score(query[j-1], target[i-1])), e, f)
			E[row+j] = e
			F[row+j] = f
			H[row+j] = h
			if h > best {
				best, bi, bj = h, i, j
			}
		}
	}
	if best == 0 {
		return Result{}
	}
	// Traceback from (bi, bj) until H == 0.
	var ops []CigarOp
	i, j := bi, bj
	state := byte('H')
	for i > 0 && j > 0 {
		row, prow := i*w, (i-1)*w
		switch state {
		case 'H':
			h := H[row+j]
			if h == 0 {
				i, j = 0, 0 // terminate
				continue
			}
			switch {
			case h == H[prow+j-1]+int32(sc.score(query[j-1], target[i-1])):
				ops = pushOp(ops, 'M')
				i, j = i-1, j-1
			case h == E[row+j]:
				state = 'E'
			case h == F[row+j]:
				state = 'F'
			default:
				// h == 0 handled above; unreachable for valid DP.
				i, j = 0, 0
			}
		case 'E': // gap in query consuming target ('D')
			ops = pushOp(ops, 'D')
			if E[row+j] == H[prow+j]-go_ {
				state = 'H'
			}
			i--
		case 'F': // gap in target consuming query ('I')
			ops = pushOp(ops, 'I')
			if F[row+j] == H[row+j-1]-go_ {
				state = 'H'
			}
			j--
		}
		if state == 'H' && i > 0 && j > 0 && H[i*w+j] == 0 {
			break
		}
	}
	// ops were collected end->start; reverse.
	for l, r := 0, len(ops)-1; l < r; l, r = l+1, r-1 {
		ops[l], ops[r] = ops[r], ops[l]
	}
	res := Result{Score: int(best), QEnd: bj, TEnd: bi, Cigar: ops}
	res.QStart = bj - res.Cigar.QuerySpan()
	res.TStart = bi - res.Cigar.TargetSpan()
	return res
}

// Cells returns the number of DP cells an (n x m) alignment evaluates; used
// by the simulator's cost model.
func Cells(n, m int) int64 { return int64(n) * int64(m) }
