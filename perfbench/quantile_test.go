package main

import (
	"slices"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted input
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail(1..100) = %v p%v ok=%v, want 90 p90 ok", v, pct, ok)
	}
	above := 0
	for _, x := range xs {
		if x > v {
			above++
		}
	}
	if above != tailBeyond {
		t.Errorf("%d samples above the tail, want %d", above, tailBeyond)
	}

	v, pct, ok = tail(xs[:20]) // 100..81: the smallest count with a tail
	if !ok || v != 90 || pct != 50 {
		t.Errorf("tail of 20 samples = %v p%v ok=%v, want 90 at p50", v, pct, ok)
	}
}

func TestTailFallsBackToMaxWhenTooFewSamples(t *testing.T) {
	for _, xs := range [][]float64{{5, 9, 7}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 9}} {
		v, pct, ok := tail(xs)
		if ok || v != slices.Max(xs) || pct != 100 {
			t.Errorf("tail of %d samples = %v p%v ok=%v, want the maximum at p100, not ok", len(xs), v, pct, ok)
		}
	}
	if v, _, ok := tail(nil); ok || v != 0 {
		t.Errorf("tail(nil) = %v ok=%v, want 0 not ok", v, ok)
	}
}
