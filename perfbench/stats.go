package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a latency summary may report as its
// tail, highest first. The guide this benchmark follows reports the highest
// percentile that still has at least minBeyond samples above it.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.90, 0.50}

const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending) values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), q)]
}

// rankIndex is the 0-based nearest-rank index of the q-quantile of n samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// beyond counts the samples strictly above the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - 1 - rankIndex(n, q) }

// latencySummary is a timing distribution reduced to what the benchmark
// reports: the median and the highest percentile with at least minBeyond
// samples above it, with the sample count that percentile rests on.
type latencySummary struct {
	N     int
	P50   float64
	P99   float64 // nearest-rank 99th percentile (meaningful when TailQ >= 0.99)
	TailQ float64 // highest supported percentile, 0 when n < 1
	Tail  float64
}

func summarize(xs []float64) latencySummary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := latencySummary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50 = quantile(s, 0.5)
	out.P99 = quantile(s, 0.99)
	for _, q := range tailCandidates {
		if beyond(len(s), q) >= minBeyond || q == 0.5 {
			out.TailQ, out.Tail = q, quantile(s, q)
			break
		}
	}
	return out
}

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method) and
// statistics.median compute them, so the spread printed here is the spread
// a reader recomputes from the raw values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return cut(1), med, cut(3)
}

// quartileSpread is (Q3-Q1)/median: the run-to-run spread measure the
// benchmark's bounds are checked against.
func quartileSpread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(med)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// step is one open-loop ladder step as the rate search sees it.
type step struct {
	Rate   float64 // offered requests per second
	Failed int     // refused, non-200 or timed-out requests
	P99Ms  float64 // 99th percentile latency from the due time, failures as misses
	Valid  bool    // the generator kept to its schedule within the lag bound
}

// maxRate is the highest offered rate among the steps that ran with no
// failures, a p99 under limitMs and a valid schedule. Steps must be in
// ascending rate order; the search stops at the first step that misses,
// because a system that misses at one rate is not trusted at a higher one
// even if a later, luckier step passes. It returns 0 when no step passes.
func maxRate(steps []step, limitMs float64) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.Valid || s.Failed > 0 || !(s.P99Ms <= limitMs) {
			break
		}
		best = s.Rate
	}
	return best
}
