package main

import "slices"

// tailBeyond is how many samples must lie above a reported tail
// percentile, so a tail figure is never set by one or two outliers.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least tailBeyond
// samples above it: the value at sorted index n-1-tailBeyond, and the
// percentile pct it stands for (the share of samples at or below it, in
// percent). When that percentile would fall below the median (fewer than
// 2*tailBeyond samples) it is no tail; tail then falls back to the maximum
// and reports pct 100 and ok false.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n < 2*tailBeyond {
		return s[n-1], 100, false
	}
	i := n - 1 - tailBeyond
	return s[i], 100 * float64(i+1) / float64(n), true
}
