package align

import (
	"math/rand"
	"reflect"
	"testing"
)

// oracleScorings spans the scoring regimes LocalWindow must reproduce
// Local under, including ones where a mismatch costs more than two gap
// extensions (so an insertion directly followed by a deletion can beat a
// substitution), a free gap open, and values too large for the kernel's
// lanes.
var oracleScorings = []Scoring{
	DefaultScoring,
	{Match: 2, Mismatch: 1, GapOpen: 3, GapExtend: 1},
	{Match: 5, Mismatch: 4, GapOpen: 10, GapExtend: 1},
	{Match: 1, Mismatch: 1, GapOpen: 0, GapExtend: 1},
	{Match: 2, Mismatch: 3, GapOpen: 2, GapExtend: 1},
	{Match: 2, Mismatch: 6, GapOpen: 1, GapExtend: 1},
	{Match: 200, Mismatch: 100, GapOpen: 5, GapExtend: 2}, // beyond 8-bit lanes
}

// mutate copies src with substitutions, single-base insertions and
// deletions, each at the given per-base rate.
func mutate(rng *rand.Rand, src []byte, rate float64) []byte {
	out := make([]byte, 0, len(src)+8)
	for _, b := range src {
		switch r := rng.Float64(); {
		case r < rate:
			out = append(out, byte(rng.Intn(4)))
		case r < 2*rate:
			out = append(out, b, byte(rng.Intn(4)))
		case r < 3*rate:
			// deletion: drop b
		default:
			out = append(out, b)
		}
	}
	return out
}

// checkLocalWindow asserts LocalWindow == Local on one pair, through a
// profile recycled with Reset.
func checkLocalWindow(t *testing.T, p *Profile, q, tg []byte, sc Scoring) {
	t.Helper()
	p.Reset(q, sc)
	got := p.LocalWindow(tg)
	want := Local(q, tg, sc)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sc=%+v q=%d t=%d:\nLocalWindow %+v (%s)\nLocal       %+v (%s)\nq=%v\nt=%v",
			sc, len(q), len(tg), got, got.Cigar, want, want.Cigar, q, tg)
	}
}

// TestLocalWindowMatchesLocal is the differential oracle of the production
// extend path: on random and mutated pairs with indels, under several
// scorings, with queries on both sides of the 8-bit saturation point (so
// the 16-bit recording rescue runs too), LocalWindow must return exactly
// Local's Result.
func TestLocalWindowMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var p Profile
	trials := 3000
	if testing.Short() {
		trials = 600
	}
	for trial := 0; trial < trials; trial++ {
		sc := oracleScorings[trial%len(oracleScorings)]
		var q, tg []byte
		switch trial % 3 {
		case 0: // unrelated sequences: short, noisy local hits
			q = randCodes(rng, 1+rng.Intn(120))
			tg = randCodes(rng, 1+rng.Intn(200))
		case 1: // a mutated read inside its seed window
			qn := 20 + rng.Intn(180)
			tg = randCodes(rng, qn+2*rng.Intn(30))
			off := rng.Intn(len(tg) - qn + 1)
			q = mutate(rng, tg[off:off+qn], 0.01+0.05*rng.Float64())
		default: // long reads, past 8-bit saturation under most scorings
			qn := 240 + rng.Intn(160)
			tg = randCodes(rng, qn+rng.Intn(60))
			off := rng.Intn(len(tg) - qn + 1)
			q = mutate(rng, tg[off:off+qn], 0.02*rng.Float64())
		}
		if len(q) == 0 {
			continue
		}
		checkLocalWindow(t, &p, q, tg, sc)
	}
	// Walk the 8-bit ceiling (255 - bias) itself, where LocalWindow
	// switches to the 16-bit record.
	for n := 245; n <= 260; n++ {
		q := randCodes(rng, n)
		checkLocalWindow(t, &p, q, q, DefaultScoring)
		tg := append(randCodes(rng, 7), q...)
		tg[7+n/2] ^= 1 // one substitution mid-read
		checkLocalWindow(t, &p, q, tg, DefaultScoring)
	}
}

// TestLocalWindowEmpty mirrors Local's empty-input contract.
func TestLocalWindowEmpty(t *testing.T) {
	var p Profile
	p.Reset(nil, DefaultScoring)
	if res := p.LocalWindow([]byte{0, 1, 2}); !reflect.DeepEqual(res, Result{}) {
		t.Fatalf("empty query: %+v", res)
	}
	p.Reset([]byte{0, 1, 2}, DefaultScoring)
	if res := p.LocalWindow(nil); !reflect.DeepEqual(res, Result{}) {
		t.Fatalf("empty target: %+v", res)
	}
}

// TestExtendSeedMatchesLocal pins ExtendSeed (pooled-profile LocalWindow)
// to Local on the same seed window.
func TestExtendSeedMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tg := randCodes(rng, 2000)
	for trial := 0; trial < 200; trial++ {
		qn := 30 + rng.Intn(170)
		off := rng.Intn(len(tg) - qn)
		q := mutate(rng, tg[off:off+qn], 0.02)
		if len(q) < 21 {
			continue
		}
		qOff := rng.Intn(len(q) - 20)
		pad := rng.Intn(30) - 5
		got := ExtendSeed(q, tg, qOff, off+qOff, 21, DefaultScoring, pad)
		start, end := SeedWindow(len(q), qOff, off+qOff, len(tg), pad)
		want := Local(q, tg[start:end], DefaultScoring)
		want.TStart += start
		want.TEnd += start
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial=%d: ExtendSeed %+v, Local %+v", trial, got, want)
		}
	}
}

// TestLocalWindowNoSteadyStateAllocs: after warm-up, Reset+LocalWindow
// allocates at most the returned cigar.
func TestLocalWindowNoSteadyStateAllocs(t *testing.T) {
	q, tg := windowSeqs(150, 24)
	var p Profile
	p.Reset(q, DefaultScoring)
	p.LocalWindow(tg) // warm the scratch
	avg := testing.AllocsPerRun(100, func() {
		p.Reset(q, DefaultScoring)
		p.LocalWindow(tg)
	})
	if avg > 1 {
		t.Fatalf("Reset+LocalWindow allocates %.2f objects/run in steady state, want <= 1 (the cigar)", avg)
	}
}

// FuzzLocalWindow compares LocalWindow against Local on arbitrary code
// sequences and scorings. Inputs are folded into range: bases mod 4,
// scoring parameters into small positive values. The seed corpus is
// committed under testdata/fuzz/FuzzLocalWindow.
func FuzzLocalWindow(f *testing.F) {
	f.Fuzz(func(t *testing.T, q, tg []byte, match, mismatch, gapOpen, gapExt uint8) {
		if len(q) > 400 || len(tg) > 600 {
			return
		}
		for i := range q {
			q[i] &= 3
		}
		for i := range tg {
			tg[i] &= 3
		}
		sc := Scoring{
			Match:     1 + int(match%8),
			Mismatch:  int(mismatch % 12),
			GapOpen:   int(gapOpen % 12),
			GapExtend: 1 + int(gapExt%6),
		}
		p := NewProfile(q, sc)
		got, want := p.LocalWindow(tg), Local(q, tg, sc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sc=%+v q=%v t=%v:\nLocalWindow %+v\nLocal       %+v", sc, q, tg, got, want)
		}
	})
}

// windowSeqs returns a qLen-base read with ~1% substitutions and its seed
// window: the read's source plus pad bases on each side.
func windowSeqs(qLen, pad int) ([]byte, []byte) {
	rng := rand.New(rand.NewSource(13))
	tg := randCodes(rng, qLen+2*pad)
	q := append([]byte(nil), tg[pad:pad+qLen]...)
	for i := range q {
		if rng.Float64() < 0.01 {
			q[i] = byte(rng.Intn(4))
		}
	}
	return q, tg
}

// BenchmarkLocalWindow150x198 is the production extend: a 150 bp read
// against its 198 bp seed window (read + 2 x 24 pad) with traceback, on a
// recycled profile. Compare BenchmarkLocalWithTraceback100x200 (the scalar
// reference).
func BenchmarkLocalWindow150x198(b *testing.B) {
	q, tg := windowSeqs(150, 24)
	var p Profile
	p.Reset(q, DefaultScoring)
	b.SetBytes(int64(len(q) * len(tg)))
	b.ReportAllocs()
	for b.Loop() {
		p.LocalWindow(tg)
	}
}
