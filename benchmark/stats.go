package main

import (
	"math"
	"sort"
)

// minOf returns the smallest sample, 0 for none. Round times on a shared
// host are the fixed work plus additive interference, so the minimum is the
// estimate that repeats (see README.md, "Why best-of-rounds").
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) by linear interpolation
// between closest ranks, 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailBeyond is how many samples must lie beyond a reported tail percentile.
const tailBeyond = 10

// tail returns the highest percentile that still has at least tailBeyond
// samples beyond it, and its value. With too few samples for any such
// percentile it reports pct 0 and value 0: a tail read off fewer samples is
// one outlier, not a percentile.
func tail(xs []float64) (pct, value float64) {
	s := sorted(xs)
	i := len(s) - 1 - tailBeyond
	if i < 0 {
		return 0, 0
	}
	return 100 * float64(i+1) / float64(len(s)), s[i]
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the acceptance check of the benchmark is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (s[lo]-s[lo-1])*frac
	}
	return at(1), at(3)
}
