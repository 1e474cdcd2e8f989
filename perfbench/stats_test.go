package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending on purpose: summaries must sort
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	xs := seq(100) // values 1..100
	s := summarize(xs)
	if s.N != 100 || s.P50 != 50 || s.P99 != 99 {
		t.Fatalf("summary of 1..100 = %+v, want n=100 p50=50 p99=99", s)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Fatalf("quantile of one sample = %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatal("quantile of no samples must be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantQ float64
	}{
		{20000, 0.999}, // 19 beyond p99.9
		{10010, 0.999}, // exactly 10 beyond p99.9
		{9999, 0.99},   // 9 beyond p99.9: falls back to p99
		{1000, 0.99},   // exactly 10 beyond p99
		{999, 0.95},    // 9 beyond p99
		{200, 0.95},    // exactly 10 beyond p95
		{100, 0.90},    // exactly 10 beyond p90
		{50, 0.50},     // too few for any tail: the median is all that is left
	} {
		s := summarize(seq(tc.n))
		if s.TailQ != tc.wantQ {
			t.Errorf("n=%d: tail percentile %v, want %v", tc.n, s.TailQ, tc.wantQ)
			continue
		}
		if b := beyond(tc.n, s.TailQ); tc.wantQ != 0.5 && b < minBeyond {
			t.Errorf("n=%d: %d samples beyond the reported tail", tc.n, b)
		}
		if s.N != tc.n {
			t.Errorf("n=%d: summary states %d samples", tc.n, s.N)
		}
	}
}

// The expected values are what Python prints for
// statistics.quantiles(xs, n=4) and statistics.median(xs).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6}, 2.5, 6, 8.5},
		{[]float64{5, 1}, 0, 3, 6}, // Python extrapolates with two values
		{[]float64{4, 4, 4, 4}, 4, 4, 4},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
	if got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := quartileSpread([]float64{4, 4, 4, 4}); got != 0 {
		t.Fatalf("spread of equal values = %v", got)
	}
}

func TestMaxRateLadder(t *testing.T) {
	ok := func(r, p99 float64) step { return step{Rate: r, P99Ms: p99, Valid: true} }
	for _, tc := range []struct {
		name  string
		steps []step
		want  float64
	}{
		{"all pass", []step{ok(100, 5), ok(200, 8), ok(400, 20)}, 400},
		{"p99 over the limit", []step{ok(100, 5), ok(200, 60), ok(400, 20)}, 100},
		{"p99 exactly at the limit passes", []step{ok(100, 50)}, 100},
		{"a failure is a miss", []step{ok(100, 5), {Rate: 200, P99Ms: 5, Failed: 1, Valid: true}}, 100},
		{"late generator stops the search", []step{ok(100, 5), {Rate: 200, P99Ms: 5}}, 100},
		{"NaN latency is a miss", []step{{Rate: 100, P99Ms: math.NaN(), Valid: true}}, 0},
		{"first step misses", []step{ok(100, 90), ok(200, 5)}, 0},
		{"no steps", nil, 0},
	} {
		if got := maxRate(tc.steps, 50); got != tc.want {
			t.Errorf("%s: maxRate = %v, want %v", tc.name, got, tc.want)
		}
	}
}
