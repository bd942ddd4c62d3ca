package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n, rank int
		pct     float64
	}{
		{100, 89, 90}, // 10 samples (91..100) lie beyond rank 89
		{11, 0, 100.0 / 11},
		{1000, 989, 99},
		{5, 4, 100}, // too few samples: the maximum
		{1, 0, 100},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // reverse order: summarize must sort
		}
		d := summarize(xs)
		if rank, pct := tailRank(tc.n); rank != tc.rank || pct != tc.pct {
			t.Errorf("n=%d: tail rank %d at p%g, want %d at p%g", tc.n, rank, pct, tc.rank, tc.pct)
		}
		if d.Tail != float64(tc.rank+1) || d.N != tc.n {
			t.Errorf("n=%d: tail %g, want %d", tc.n, d.Tail, tc.rank+1)
		}
		if tc.n > tailBeyond {
			if d.Beyond != tailBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, d.Beyond, tailBeyond)
			}
			// One rank higher would leave fewer than tailBeyond beyond it.
			if tc.n-1-(tc.rank+1) >= tailBeyond {
				t.Errorf("n=%d: rank %d is not the highest with %d beyond", tc.n, tc.rank, tailBeyond)
			}
		}
	}
	if d := summarize(nil); d != (dist{}) {
		t.Errorf("empty set: %+v", d)
	}
	if m := medianOf([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 1..4 = %g", m)
	}
}
