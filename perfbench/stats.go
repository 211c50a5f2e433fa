package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must rank above a reported tail
// percentile: fewer than that and the percentile is one or two outliers,
// not a property of the run.
const minBeyond = 10

// Summary is one percentile of a sample set with the evidence behind it.
type Summary struct {
	Value  float64 // the sample at the reported rank
	Q      float64 // the quantile actually reported, in (0, 1]
	N      int     // number of samples
	Beyond int     // samples ranked strictly above the reported one
}

// rank is the nearest-rank position (1-based) of quantile q among n
// samples: the smallest r with r >= q·n. The epsilon keeps q·n that
// should be an integer (0.99·1000) from rounding up to the next rank.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// Percentile returns the nearest-rank q-quantile of sorted (ascending).
// An empty set yields a zero Summary with N == 0.
func Percentile(sorted []float64, q float64) Summary {
	n := len(sorted)
	if n == 0 {
		return Summary{Q: q}
	}
	r := rank(q, n)
	return Summary{Value: sorted[r-1], Q: q, N: n, Beyond: n - r}
}

// Tail returns the q-quantile when at least minBeyond samples lie beyond
// it. Otherwise it falls back to the highest quantile that has exactly
// minBeyond samples beyond it and reports ok == false, so the caller can
// print the quantile it really measured. With minBeyond or fewer samples
// no tail exists: Value is zero and ok is false.
func Tail(sorted []float64, q float64) (s Summary, ok bool) {
	s = Percentile(sorted, q)
	if s.Beyond >= minBeyond {
		return s, true
	}
	n := len(sorted)
	if n <= minBeyond {
		return Summary{Q: q, N: n}, false
	}
	r := n - minBeyond
	return Summary{Value: sorted[r-1], Q: float64(r) / float64(n), N: n, Beyond: minBeyond}, false
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median of xs (any order).
func median(xs []float64) float64 { return Percentile(sorted(xs), 0.5).Value }
