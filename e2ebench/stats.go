package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile for
// it to mean anything: below that, one outlier decides the value.
const minTail = 10

// percentileLadder is the set of tail percentiles the harness considers,
// lowest first.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of the ladder that has at
// least minTail of n samples beyond it, and false when even the median
// has fewer (n < 2*minTail).
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		if n-nearestRank(n, p) >= minTail {
			best, ok = p, true
		}
	}
	return best, ok
}

// nearestRank is the 1-based rank of the p-th percentile of n samples,
// clamped to [1, n]. The small tolerance keeps p*n/100 from rounding up
// past an exact integer.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// percentile returns the nearest-rank p-th percentile of xs (p in
// (0, 100]): the smallest value with at least p% of the samples at or
// below it. xs need not be sorted; it is not modified. NaN when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// coveredWithin returns how much of [lo, hi) the union of ivs covers.
// Overlapping intervals count once, so concurrent children are not
// double-subtracted from their parent.
func coveredWithin(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, iv := range clipped {
		if iv.start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}
