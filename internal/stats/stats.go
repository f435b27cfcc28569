// Package stats provides the summary statistics used by every Makalu
// experiment: means, variances, percentiles, confidence intervals
// and least-squares fits. All functions are deterministic
// and allocation-conscious so they can run inside benchmark loops.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (n-1 in the
// denominator), or 0 when fewer than two samples are present.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It copies and sorts the
// input; use SortedPercentile when xs is already sorted.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return SortedPercentile(sorted, p)
}

// SortedPercentile is Percentile for an already ascending-sorted slice.
func SortedPercentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := lo + 1
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// tCrit95 holds the two-sided 95% critical values of Student's t
// distribution, indexed by degrees of freedom (n-1) for df <= 30.
// Beyond 30 the normal approximation z = 1.96 is within ~2% and is
// used instead.
var tCrit95 = [...]float64{
	1:  12.706,
	2:  4.303,
	3:  3.182,
	4:  2.776,
	5:  2.571,
	6:  2.447,
	7:  2.365,
	8:  2.306,
	9:  2.262,
	10: 2.228,
	11: 2.201,
	12: 2.179,
	13: 2.160,
	14: 2.145,
	15: 2.131,
	16: 2.120,
	17: 2.110,
	18: 2.101,
	19: 2.093,
	20: 2.086,
	21: 2.080,
	22: 2.074,
	23: 2.069,
	24: 2.064,
	25: 2.060,
	26: 2.056,
	27: 2.052,
	28: 2.048,
	29: 2.045,
	30: 2.042,
}

// MeanCI returns the mean of xs together with the half-width of a 95%
// confidence interval. The critical value is Student's t with n-1
// degrees of freedom for n <= 31 and the normal z = 1.96 beyond — the
// experiments average over 5–30 runs, where the normal approximation
// understates the interval by up to a factor of 6.5 (n=2). For fewer
// than two samples the half-width is 0.
func MeanCI(xs []float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	crit := 1.96
	if df := len(xs) - 1; df < len(tCrit95) {
		crit = tCrit95[df]
	}
	se := StdDev(xs) / math.Sqrt(float64(len(xs)))
	return mean, crit * se
}

// LinearFit returns the least-squares slope and intercept of y on x.
// It is used to estimate scaling exponents from log-log series
// (Figure 2). Both slices must have equal, nonzero length.
func LinearFit(x, y []float64) (slope, intercept float64) {
	n := float64(len(x))
	if len(x) == 0 || len(x) != len(y) {
		return math.NaN(), math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN(), math.NaN()
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept
}

// LogLogSlope fits log(y) against log(x) and returns the slope: the
// scaling exponent. Points with non-positive coordinates are skipped.
func LogLogSlope(x, y []float64) float64 {
	lx := make([]float64, 0, len(x))
	ly := make([]float64, 0, len(y))
	for i := range x {
		if i < len(y) && x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log(x[i]))
			ly = append(ly, math.Log(y[i]))
		}
	}
	slope, _ := LinearFit(lx, ly)
	return slope
}
