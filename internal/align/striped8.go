package align

// kernel8 is the 8-bit lane specialization of Farrar's striped inner loop —
// the pass every candidate window takes (16-bit is only the saturation
// rescue). It computes exactly what kernel(spec8, ...) computes, but with
// the SWAR primitives expanded over compile-time lane constants so the
// compiler folds the shifts and masks and keeps the whole recurrence in
// registers; the generic laneSpec methods pay runtime-variable shifts on
// every operation. Any change here must keep the two kernels bit-identical
// (TestKernel8MatchesGeneric).

const (
	hi8  = 0x8080808080808080 // high bit of every 8-bit lane
	max8 = 0xFF               // lane saturation value
)

// ge8 returns the high-bit-per-lane mask of lanes where x >= y (unsigned).
func ge8(x, y uint64) uint64 {
	d := (x | hi8) - (y &^ hi8)
	sd := x ^ y
	return ((d &^ sd) | (x & sd)) & hi8
}

// expand8 turns a lane-position bit mask into full-lane 0xFF masks.
func expand8(m uint64) uint64 {
	ones := m >> 7
	return ones<<8 - ones
}

// maxu8 returns the lane-wise unsigned maximum.
func maxu8(x, y uint64) uint64 {
	m := expand8(ge8(x, y))
	return x&m | y&^m
}

// subsat8 returns the lane-wise unsigned saturating subtraction max(x-y, 0).
func subsat8(x, y uint64) uint64 {
	m := expand8(ge8(x, y))
	return x - (y&m | x&^m)
}

// addsat8 returns the lane-wise unsigned saturating addition min(x+y, 255).
func addsat8(x, y uint64) uint64 {
	t0 := (x ^ y) & hi8
	t1 := x & y & hi8
	sum := (x &^ hi8) + (y &^ hi8)
	t1 |= t0 & sum
	return (sum ^ t0) | expand8(t1)
}

// laneMax8 extracts the maximum lane value of x.
func laneMax8(x uint64) uint64 {
	best := uint64(0)
	for i := 0; i < 8; i++ {
		if v := x >> (i * 8) & max8; v > best {
			best = v
		}
	}
	return best
}

// kernel8 mirrors kernel(spec8, p.segLen8, &p.prof8, ...) exactly, H
// recording included; see that function for the algorithm commentary.
func (p *Profile) kernel8(target []byte, hStore, hLoad, e, rec []uint64) (score, tEnd int, overflow bool) {
	segLen := p.segLen8
	bias := p.bias
	// The lane fills match the generic kernel's s.fill exactly (including
	// its overlap behaviour on out-of-range scoring values).
	vBias := spec8.fill(bias)
	vGapO := spec8.fill(uint64(p.sc.GapOpen + p.sc.GapExtend))
	vGapE := spec8.fill(uint64(p.sc.GapExtend))

	hStore = hStore[:segLen]
	hLoad = hLoad[:segLen]
	e = e[:segLen]

	best := uint64(0)
	bestT := 0

	for i := 0; i < len(target); i++ {
		vp := p.prof8[target[i]][:segLen]
		vF := uint64(0)
		vH := hStore[segLen-1] << 8
		hLoad, hStore = hStore, hLoad

		var vColMax uint64
		for j := 0; j < segLen; j++ {
			vH = addsat8(vH, vp[j])
			vH = subsat8(vH, vBias)
			vH = maxu8(vH, e[j])
			vH = maxu8(vH, vF)
			vColMax = maxu8(vColMax, vH)
			hStore[j] = vH

			vH2 := subsat8(vH, vGapO)
			e[j] = maxu8(subsat8(e[j], vGapE), vH2)
			vF = maxu8(subsat8(vF, vGapE), vH2)
			vH = hLoad[j]
		}

		// Lazy-F loop: propagate F across segment boundaries.
		vF <<= 8
		j := 0
		for {
			t := subsat8(hStore[j], vGapO)
			if ge8(t, vF) == hi8 { // !anyGT(vF, t)
				break
			}
			hStore[j] = maxu8(hStore[j], vF)
			vColMax = maxu8(vColMax, hStore[j])
			vF = subsat8(vF, vGapE)
			j++
			if j >= segLen {
				j = 0
				vF <<= 8
				if vF == 0 {
					break
				}
			}
		}

		if rec != nil {
			copy(rec[i*segLen:(i+1)*segLen], hStore)
		}
		if cm := laneMax8(vColMax); cm > best {
			best = cm
			bestT = i + 1
		}
	}

	if best+bias >= max8 {
		return 0, 0, true
	}
	return int(best), bestT, false
}
