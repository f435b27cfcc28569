package main

import "slices"

func sortedCopy(xs []int64) []int64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// percentile is the nearest-rank quantile q of an ascending slice.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// runSlices is how many consecutive equal-count groups a run's repeated
// operations are cut into; the run's figure is typical() of the groups.
const runSlices = 16

// groupValues cuts n items, in order, into at most k consecutive
// near-equal groups and returns f(lo, hi) of each.
func groupValues(n, k int, f func(lo, hi int) float64) []float64 {
	k = max(1, min(k, n))
	vals := make([]float64, k)
	for g := range vals {
		vals[g] = f(g*n/k, (g+1)*n/k)
	}
	return vals
}

// medianGroups is the fewest groups typical takes a median over.
const medianGroups = 8

// typical is the figure that stands for repeated measurements of one
// thing, taken in order during a run on a shared host.
//
// With eight or more it is the median. The host disturbs a run in spells
// of a second or so, which a median over sixteen slices ignores; and the
// socket paths also have spells of luck (a wake-up regime in which a round
// trip costs two thirds of the usual for a second), which a minimum chases:
// over twenty interleaved runs of lookup_hit the spread (Q3-Q1)/median of
// the wall time was 8% to 22% as the best of eight slices, 4% to 9% as the
// plain total and 3% to 6% as the median of sixteen.
//
// With fewer (the repetitions of a build, a heal round) a median protects
// against nothing: two of three repetitions inside one slow spell are
// common. Those are single-threaded computations that no accident makes
// faster, only slower, so the first quartile is used, which for three
// values or fewer is the smallest (build, ten seeds: 12% as the median of
// three, 5% as the smallest).
func typical(vals []float64) float64 {
	q1, med, _ := quartiles(vals)
	if len(vals) >= medianGroups {
		return med
	}
	return q1
}

// slicePercentile is the typical q-quantile among the run's slices of the
// operations in issue order; runs too short to slice use all of them.
func slicePercentile(lat []int64, q float64) float64 {
	k := min(runSlices, len(lat)/32)
	return typical(groupValues(len(lat), k, func(lo, hi int) float64 { return percentile(sortedCopy(lat[lo:hi]), q) }))
}

// quartiles returns Q1, the median and Q3 by the exclusive method
// (Python's statistics.quantiles(xs, n=4)), which the acceptance rule for
// this benchmark is stated in.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	if len(s) == 0 {
		return 0, 0, 0
	}
	return at(0.25), at(0.5), at(0.75)
}
