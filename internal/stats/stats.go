// Package stats provides the small statistics toolkit used by the
// characterization framework: means, standard deviations, quartiles, and
// the five-number box-and-whisker summaries used for Figure 5 of the paper.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by summaries of empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (n-1 denominator).
// Samples with fewer than two points have zero variance.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// CoefVar returns the coefficient of variation (stddev / mean), the
// "variance between tests" statistic the paper reports as <~1-5 %.
// It returns 0 when the mean is zero.
func CoefVar(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks (the R-7 / spreadsheet definition).
// It returns an error for an empty sample and panics for q outside [0,1].
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of range")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// Median returns the median of xs.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// BoxPlot is a five-number summary plus the mean: the representation behind
// each box-and-whisker in the paper's Figure 5, where the box spans the
// interquartile range and the whiskers span the full min-max range.
type BoxPlot struct {
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
	N      int
}

// Box computes the BoxPlot summary of xs.
func Box(xs []float64) (BoxPlot, error) {
	if len(xs) == 0 {
		return BoxPlot{}, ErrEmpty
	}
	q1, _ := Quantile(xs, 0.25)
	med, _ := Quantile(xs, 0.5)
	q3, _ := Quantile(xs, 0.75)
	mn, mx := xs[0], xs[0]
	for _, x := range xs[1:] {
		mn = math.Min(mn, x)
		mx = math.Max(mx, x)
	}
	return BoxPlot{Min: mn, Q1: q1, Median: med, Q3: q3, Max: mx, Mean: Mean(xs), N: len(xs)}, nil
}

// IQR returns the interquartile range of the box.
func (b BoxPlot) IQR() float64 { return b.Q3 - b.Q1 }

// Range returns the whisker span of the box.
func (b BoxPlot) Range() float64 { return b.Max - b.Min }

// Min returns the smallest value of xs. It returns an error for an empty
// sample.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m, nil
}

// Max returns the largest value of xs. It returns an error for an empty
// sample.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m, nil
}

// Ratio returns a/b, or 0 when b is zero; used for derived counter metrics
// where the denominator may legitimately be zero (e.g. no bus accesses).
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
