package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above the reported tail
// percentile: the tail is the highest percentile that still has this
// many samples beyond it, so it is never a single outlier.
const tailBeyond = 10

// dist summarizes one set of samples: the median and the tail, with
// the percentile the tail stands at and the sample count.
type dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	Beyond  int     `json:"beyond"` // samples above the tail value's rank
}

// tailRank returns the 0-based rank, in n sorted samples, of the
// highest percentile with at least tailBeyond samples beyond it, and
// that percentile. With too few samples it falls back to the maximum.
func tailRank(n int) (rank int, pct float64) {
	rank = n - 1 - tailBeyond
	if rank < 0 {
		rank = n - 1
	}
	return rank, 100 * float64(rank+1) / float64(n)
}

// summarize sorts xs in place and returns its distribution. An empty
// set yields the zero dist.
func summarize(xs []float64) dist {
	n := len(xs)
	if n == 0 {
		return dist{}
	}
	sort.Float64s(xs)
	rank, pct := tailRank(n)
	return dist{N: n, P50: median(xs), Tail: xs[rank], TailPct: pct, Beyond: n - 1 - rank}
}

// median of sorted xs (NaN when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return median(c)
}
