package align

import (
	"math/rand"
	"slices"
	"testing"
)

// TestAlignWindowMatchesStripedScore: a Reset-recycled profile driven
// through AlignWindow must produce results identical to a fresh one-shot
// StripedScore for every (query, target) pair — the equivalence the query
// engine's per-candidate replacement relies on.
func TestAlignWindowMatchesStripedScore(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var p Profile
	for trial := 0; trial < 200; trial++ {
		q := randCodes(rng, 20+rng.Intn(180))
		p.Reset(q, DefaultScoring)
		for w := 0; w < 4; w++ {
			tg := randCodes(rng, 30+rng.Intn(300))
			got := p.AlignWindow(tg)
			want := StripedScore(q, tg, DefaultScoring)
			if got != want {
				t.Fatalf("trial=%d window=%d: AlignWindow=%+v, StripedScore=%+v", trial, w, got, want)
			}
		}
	}
}

// TestAlignWindow16BitRescue: the reused-scratch path must survive the
// 8-bit saturation rescue and still match the one-shot result, including
// when 8-bit and 16-bit calls interleave on one profile.
func TestAlignWindow16BitRescue(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// A long identical pair saturates the 8-bit lanes (score > 255-bias).
	longQ := randCodes(rng, 400)
	var p Profile
	p.Reset(longQ, DefaultScoring)

	big := p.AlignWindow(longQ)
	want := StripedScore(longQ, longQ, DefaultScoring)
	if big != want {
		t.Fatalf("rescue mismatch: AlignWindow=%+v, StripedScore=%+v", big, want)
	}
	if !big.Overflow || big.UsedLanes != 16 {
		t.Fatalf("expected a 16-bit rescue, got %+v", big)
	}
	// Now a small window on the same profile (back to the 8-bit kernel).
	small := randCodes(rng, 60)
	if got, w := p.AlignWindow(small), StripedScore(longQ, small, DefaultScoring); got != w {
		t.Fatalf("post-rescue 8-bit mismatch: %+v vs %+v", got, w)
	}
}

// TestResetMatchesNewProfile: Reset must leave the profile exactly as
// NewProfile would build it, whatever was in it before.
func TestResetMatchesNewProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var p Profile
	// Dirty the profile with a long query first so Reset must shrink.
	p.Reset(randCodes(rng, 300), DefaultScoring)
	for trial := 0; trial < 50; trial++ {
		q := randCodes(rng, 10+rng.Intn(250))
		p.Reset(q, DefaultScoring)
		fresh := NewProfile(q, DefaultScoring)
		tg := randCodes(rng, 50+rng.Intn(200))
		if got, want := p.AlignWindow(tg), fresh.Align(tg); got != want {
			t.Fatalf("trial=%d: reused %+v, fresh %+v", trial, got, want)
		}
	}
}

// TestAlignWindowNoSteadyStateAllocs: after warm-up, Reset+AlignWindow must
// not allocate — the contract the zero-allocs-per-read query path builds on.
func TestAlignWindowNoSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	q := randCodes(rng, 150)
	tg := randCodes(rng, 250)
	var p Profile
	p.Reset(q, DefaultScoring)
	p.AlignWindow(tg) // warm the scratch
	avg := testing.AllocsPerRun(100, func() {
		p.Reset(q, DefaultScoring)
		p.AlignWindow(tg)
	})
	if avg != 0 {
		t.Fatalf("Reset+AlignWindow allocates %.2f objects/run in steady state", avg)
	}
}

// TestKernel8MatchesGeneric pins the constant-specialized 8-bit kernel to
// the generic laneSpec kernel bit for bit, across random inputs and scoring
// schemes including near-saturation scores.
func TestKernel8MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	scorings := []Scoring{
		DefaultScoring,
		{Match: 2, Mismatch: 1, GapOpen: 3, GapExtend: 1},
		{Match: 5, Mismatch: 4, GapOpen: 10, GapExtend: 1},
	}
	for trial := 0; trial < 300; trial++ {
		sc := scorings[trial%len(scorings)]
		qn := 1 + rng.Intn(260) // long queries push 8-bit scores toward saturation
		q := randCodes(rng, qn)
		tg := randCodes(rng, 1+rng.Intn(400))
		p := NewProfile(q, sc)
		scratch := func() []uint64 { return make([]uint64, p.segLen8) }
		gs, gt, gov := p.kernel(spec8, p.segLen8, &p.prof8, tg, scratch(), scratch(), scratch(), nil)
		ss, st, sov := p.kernel8(tg, scratch(), scratch(), scratch(), nil)
		if gs != ss || gt != st || gov != sov {
			t.Fatalf("trial=%d sc=%+v q=%d t=%d: generic (%d,%d,%v) vs kernel8 (%d,%d,%v)",
				trial, sc, len(q), len(tg), gs, gt, gov, ss, st, sov)
		}
		// The recording variant: same result, and bit-identical H records.
		grec := make([]uint64, len(tg)*p.segLen8)
		srec := make([]uint64, len(tg)*p.segLen8)
		rgs, rgt, rgov := p.kernel(spec8, p.segLen8, &p.prof8, tg, scratch(), scratch(), scratch(), grec)
		rss, rst, rsov := p.kernel8(tg, scratch(), scratch(), scratch(), srec)
		if rgs != gs || rgt != gt || rgov != gov || rss != ss || rst != st || rsov != sov {
			t.Fatalf("trial=%d: recording changed the result: generic (%d,%d,%v) kernel8 (%d,%d,%v)",
				trial, rgs, rgt, rgov, rss, rst, rsov)
		}
		if !slices.Equal(grec, srec) {
			t.Fatalf("trial=%d sc=%+v q=%d t=%d: generic and kernel8 H records differ", trial, sc, len(q), len(tg))
		}
	}
}

// TestAlignWindowEmpty mirrors Align's empty-input contract.
func TestAlignWindowEmpty(t *testing.T) {
	var p Profile
	p.Reset(nil, DefaultScoring)
	if res := p.AlignWindow([]byte{0, 1, 2}); res != (StripedResult{}) {
		t.Fatalf("empty query: %+v", res)
	}
	p.Reset([]byte{0, 1, 2}, DefaultScoring)
	if res := p.AlignWindow(nil); res != (StripedResult{}) {
		t.Fatalf("empty target: %+v", res)
	}
}

// TestScoreOnlyOutOfLaneMatchesLocal: scorings too large for the kernels'
// 8-bit lanes must not be mis-scored by the score-only calls; Align and
// AlignWindow then return Local's score and end, as LocalWindow returns
// Local's whole result.
func TestScoreOnlyOutOfLaneMatchesLocal(t *testing.T) {
	scorings := []Scoring{
		{Match: 200, Mismatch: 100, GapOpen: 5, GapExtend: 2}, // match + bias
		{Match: 1, Mismatch: 300, GapOpen: 5, GapExtend: 2},   // bias alone
		{Match: 2, Mismatch: 3, GapOpen: 300, GapExtend: 2},   // gap open
	}
	// A 10-bp exact match under the first scoring scores 2000.
	q := []byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1}
	if got := NewProfile(q, scorings[0]).AlignWindow(q); got.Score != 2000 || got.TEnd != 10 {
		t.Fatalf("10-bp exact match: AlignWindow=%+v, want score 2000, end 10", got)
	}
	rng := rand.New(rand.NewSource(12))
	var p Profile
	for _, sc := range scorings {
		for trial := 0; trial < 50; trial++ {
			q := randCodes(rng, 10+rng.Intn(120))
			tg := mutate(rng, q, 0.05)
			if trial%2 == 1 {
				tg = randCodes(rng, 10+rng.Intn(200))
			}
			ref := Local(q, tg, sc)
			want := StripedResult{Score: ref.Score, TEnd: ref.TEnd}
			p.Reset(q, sc)
			if got := p.AlignWindow(tg); got != want {
				t.Fatalf("sc=%+v trial=%d: AlignWindow=%+v, Local=%+v", sc, trial, got, want)
			}
			if got := NewProfile(q, sc).Align(tg); got != want {
				t.Fatalf("sc=%+v trial=%d: Align=%+v, Local=%+v", sc, trial, got, want)
			}
		}
	}
}
