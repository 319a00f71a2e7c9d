package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-th percentile (0–100) of xs by linear
// interpolation between the closest ranks, or 0 for an empty slice. xs
// is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// iqrFrac is the interquartile range of xs as a share of its median.
func iqrFrac(xs []float64) float64 {
	return frac(percentile(xs, 75)-percentile(xs, 25), median(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func minOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x < m {
			m = x
		}
	}
	return m
}

// frac returns a/b, or 0 when b is 0, so an unused layer reads 0 rather
// than NaN (which JSON cannot carry).
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// minShare returns the smallest element of xs relative to their mean:
// 1 when work is spread evenly, 0 when some part did none.
func minShare(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return frac(minOf(xs), sum(xs)/float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }
