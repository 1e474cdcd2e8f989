package align

// This file gives the striped kernel a traceback: LocalWindow returns
// exactly Local's Result (score, end-points, cigar) while the O(mn) fill
// runs in the 8-bit striped kernel instead of Local's scalar matrices. The
// kernel records each target column's final H (the exact DP values, striped
// by query position); the traceback replays Local's decisions off that
// record, recomputing E and F only at the few cells where the diagonal test
// fails.

// hRecord reads a striped kernel's per-column H record as Local's H matrix:
// at(i, j) is H after target base i and query base j (both 1-based), and
// the i == 0 / j == 0 borders are 0.
type hRecord struct {
	rec    []uint64
	segLen int
	bits   uint
	mask   uint64
}

func (r hRecord) at(i, j int) int32 {
	if i == 0 || j == 0 {
		return 0
	}
	qi := j - 1
	w := r.rec[(i-1)*r.segLen+qi%r.segLen]
	return int32(w >> (uint(qi/r.segLen) * r.bits) & r.mask)
}

// gapEnds reports whether the gap term of cell (i, j) along one axis equals
// h: whether max over g >= 1 of H(g cells back) - gapOpen - (g-1)*gapExtend
// is h, where back(g) returns that H and runs out at g == limit (the
// border's 0). Every term is at most the cell's H, so equality means some
// term reaches h; none can once best - gapOpen - (g-1)*gapExtend < h.
func gapEnds(h, best, gapOpen, gapExt int32, limit int, back func(g int) int32) bool {
	for g := 1; g <= limit; g++ {
		pen := gapOpen + int32(g-1)*gapExt
		if back(g)-pen == h {
			return true
		}
		if gapExt > 0 && best-pen < h {
			return false
		}
	}
	return false
}

// LocalWindow computes Local(query, target) for the profile's query: the
// same score, end-points and cigar, tie-breaks included, so it can stand in
// for Local on the production extend path. The fill runs in the striped
// kernel (8-bit, with the 16-bit rescue) with H recording on
// profile-owned scratch, so the only steady-state allocation is the
// returned cigar. Like AlignWindow it is for a single-owner profile and
// NOT safe for concurrent use.
func (p *Profile) LocalWindow(target []byte) Result {
	if len(p.query) == 0 || len(target) == 0 {
		return Result{}
	}
	// Scorings that do not fit a lane, and scores past the 16-bit lanes,
	// take the reference path.
	sc := p.sc
	if !p.fitsLanes() {
		return Local(p.query, target, sc)
	}
	score, bi, H, overflow := p.fill(target, true)
	if overflow {
		return Local(p.query, target, sc)
	}
	if score == 0 {
		return Result{}
	}
	best := int32(score)
	// The kernel's tEnd is the first column reaching best; Local's
	// row-major scan then picks the smallest query index in it.
	bj := 1
	for H.at(bi, bj) != best {
		bj++
	}

	// Traceback from (bi, bj): Local's state machine and tests, in the
	// same order. E and F are only needed where the diagonal test fails;
	// once in a gap state, Local's recurrence gives the next cell's value
	// exactly (E(i-1,j) = E(i,j) + gapExtend while the gap continues).
	q := p.query
	gapO, gapE := int32(sc.GapOpen+sc.GapExtend), int32(sc.GapExtend)
	ops := p.ops[:0]
	i, j := bi, bj
	state := byte('H')
	var gap int32 // E(i, j) in state 'E', F(i, j) in state 'F'
	for i > 0 && j > 0 {
		switch state {
		case 'H':
			h := H.at(i, j)
			if h == 0 {
				i, j = 0, 0 // terminate
				continue
			}
			switch {
			case h == H.at(i-1, j-1)+int32(sc.score(q[j-1], target[i-1])):
				ops = pushOp(ops, 'M')
				i, j = i-1, j-1
			case gapEnds(h, best, gapO, gapE, i, func(g int) int32 { return H.at(i-g, j) }):
				state, gap = 'E', h
			case gapEnds(h, best, gapO, gapE, j, func(g int) int32 { return H.at(i, j-g) }):
				state, gap = 'F', h
			default:
				i, j = 0, 0 // unreachable for valid DP, as in Local
			}
		case 'E': // gap in query consuming target ('D')
			ops = pushOp(ops, 'D')
			if gap == H.at(i-1, j)-gapO {
				state = 'H'
			}
			gap += gapE
			i--
		case 'F': // gap in target consuming query ('I')
			ops = pushOp(ops, 'I')
			if gap == H.at(i, j-1)-gapO {
				state = 'H'
			}
			gap += gapE
			j--
		}
		if state == 'H' && i > 0 && j > 0 && H.at(i, j) == 0 {
			break
		}
	}
	p.ops = ops
	// ops were collected end->start; the returned cigar is a fresh copy in
	// order, so it never aliases profile scratch.
	cig := make(Cigar, len(ops))
	for k, op := range ops {
		cig[len(ops)-1-k] = op
	}
	res := Result{Score: score, QEnd: bj, TEnd: bi, Cigar: cig}
	res.QStart = bj - cig.QuerySpan()
	res.TStart = bi - cig.TargetSpan()
	return res
}

// pushOp appends one traceback step, run-length merging with the last op.
func pushOp(ops []CigarOp, op byte) []CigarOp {
	if len(ops) > 0 && ops[len(ops)-1].Op == op {
		ops[len(ops)-1].Len++
		return ops
	}
	return append(ops, CigarOp{Op: op, Len: 1})
}
