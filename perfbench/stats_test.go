package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so summarize must sort
	}
	return xs
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		wantTail float64
		wantPct  float64
	}{
		{1000, 990, 99}, // 10 samples (991..1000) lie beyond 990
		{100, 90, 90},   // p90 of 100
		{22, 12, 100 * 12.0 / 22},
		{21, 21, 100}, // p52 would sit at the median: the maximum stands in
		{5, 5, 100},   // too few samples: the maximum
		{1, 1, 100},
	} {
		s := summarize(seq(tc.n))
		if s.N != tc.n || s.Tail != tc.wantTail || math.Abs(s.TailPct-tc.wantPct) > 1e-9 {
			t.Errorf("n=%d: tail %v at p%v, want %v at p%v", tc.n, s.Tail, s.TailPct, tc.wantTail, tc.wantPct)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > s.Tail {
				beyond++
			}
		}
		if s.TailPct < 100 && beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := summarize([]float64{3, 1, 2}).Median; m != 2 {
		t.Errorf("odd median %v, want 2", m)
	}
	if m := summarize([]float64{4, 1, 3, 2}).Median; m != 2.5 {
		t.Errorf("even median %v, want 2.5", m)
	}
	if s := summarize(nil); s != (Summary{}) {
		t.Errorf("empty sample summarizes to %+v", s)
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("input reordered: %v", xs)
	}
}

func TestRatioOfNothingIsZero(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(math.NaN(), 1) != 0 || ratio(1, 4) != 0.25 {
		t.Error("ratio")
	}
}
