package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail: the
// tail of a timing is the highest percentile that still has this many
// samples above it, so it is never read off one or two outliers.
const tailBeyond = 10

// Summary is how every timing is reported: its median, its tail and its
// sample count.
type Summary struct {
	Median float64
	Tail   float64
	// TailPct is the percentile the tail sits at (100 when there are too
	// few samples for any percentile to have tailBeyond beyond it; the
	// tail is then the maximum).
	TailPct float64
	N       int
}

// summarize sorts a copy of xs and reports its median and tail. An empty
// sample summarizes to zeros with N = 0.
func summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	ti, pct := tailIndex(n)
	return Summary{Median: med, Tail: s[ti], TailPct: pct, N: n}
}

// tailIndex is the index, in an ascending sample of n, of the highest
// order statistic with tailBeyond samples after it, and the percentile
// it sits at. In a sample too small for any order statistic above the
// median to have tailBeyond after it, the maximum stands in.
func tailIndex(n int) (int, float64) {
	i := n - 1 - tailBeyond
	if i <= (n-1)/2 {
		return n - 1, 100
	}
	return i, 100 * float64(i+1) / float64(n)
}

// ms and us convert a duration to fractional milliseconds and
// microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0 (a layer that did no work reports zero,
// not NaN, so the report stays valid JSON).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}
