package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestMeanSimple(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1: sum of squared deviations = 32, / 7.
	if got := Variance(xs); !almostEq(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7.0)
	}
}

func TestVarianceFewSamples(t *testing.T) {
	if got := Variance([]float64{5}); got != 0 {
		t.Fatalf("Variance of one sample = %v, want 0", got)
	}
}

func TestStdDevNonNegativeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological inputs
			}
		}
		return StdDev(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileEndpoints(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Percentile(xs, 0); got != 10 {
		t.Fatalf("P0 = %v, want 10", got)
	}
	if got := Percentile(xs, 100); got != 40 {
		t.Fatalf("P100 = %v, want 40", got)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Fatalf("P50 = %v, want 5", got)
	}
	if got := Percentile(xs, 25); got != 2.5 {
		t.Fatalf("P25 = %v, want 2.5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{5, 1, 9}); got != 5 {
		t.Fatalf("odd median = %v, want 5", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("even median = %v, want 2.5", got)
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p = math.Mod(math.Abs(p), 100)
		v := Percentile(xs, p)
		return v >= slices.Min(xs) && v <= slices.Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanCI(t *testing.T) {
	mean, hw := MeanCI([]float64{1, 1, 1, 1})
	if mean != 1 || hw != 0 {
		t.Fatalf("constant samples: mean=%v hw=%v, want 1, 0", mean, hw)
	}
	_, hw = MeanCI([]float64{0, 10, 0, 10})
	if hw <= 0 {
		t.Fatal("varying samples should have positive CI half-width")
	}
}

func TestMeanCIStudentT(t *testing.T) {
	// Regression for the z=1.96 bug: at experiment-scale sample counts
	// (5–30 runs) the normal approximation understates the 95%
	// interval. Pin the n=5 case exactly: xs has mean 3, sample
	// variance 2.5, so hw = t(4) * sqrt(2.5/5) = 2.776 * sqrt(0.5).
	xs := []float64{1, 2, 3, 4, 5}
	mean, hw := MeanCI(xs)
	want := 2.776 * math.Sqrt(2.5/5)
	if mean != 3 || !almostEq(hw, want, 1e-12) {
		t.Fatalf("MeanCI(n=5) = %v ± %v, want 3 ± %v", mean, hw, want)
	}
	// n=2 is the most extreme case: t(1) = 12.706, 6.5x the normal z.
	_, hw2 := MeanCI([]float64{0, 1})
	want2 := 12.706 * math.Sqrt(0.5/2)
	if !almostEq(hw2, want2, 1e-12) {
		t.Fatalf("MeanCI(n=2) hw = %v, want %v", hw2, want2)
	}
	// Large samples fall back to z = 1.96.
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i % 10)
	}
	_, hwBig := MeanCI(big)
	wantBig := 1.96 * StdDev(big) / 10
	if !almostEq(hwBig, wantBig, 1e-12) {
		t.Fatalf("MeanCI(n=100) hw = %v, want z-based %v", hwBig, wantBig)
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, intercept := LinearFit(x, y)
	if !almostEq(slope, 2, 1e-12) || !almostEq(intercept, 1, 1e-12) {
		t.Fatalf("fit = %v, %v; want 2, 1", slope, intercept)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	slope, _ := LinearFit([]float64{1, 1}, []float64{2, 3})
	if !math.IsNaN(slope) {
		t.Fatalf("vertical data should give NaN slope, got %v", slope)
	}
	slope, _ = LinearFit(nil, nil)
	if !math.IsNaN(slope) {
		t.Fatal("empty fit should give NaN slope")
	}
}

func TestLogLogSlopePowerLaw(t *testing.T) {
	// y = 4 * x^0.8
	var x, y []float64
	for _, v := range []float64{10, 100, 1000, 10000} {
		x = append(x, v)
		y = append(y, 4*math.Pow(v, 0.8))
	}
	if got := LogLogSlope(x, y); !almostEq(got, 0.8, 1e-9) {
		t.Fatalf("LogLogSlope = %v, want 0.8", got)
	}
}

func TestLogLogSlopeSkipsNonPositive(t *testing.T) {
	x := []float64{-1, 10, 100}
	y := []float64{5, 10, 100}
	if got := LogLogSlope(x, y); !almostEq(got, 1, 1e-9) {
		t.Fatalf("LogLogSlope = %v, want 1", got)
	}
}

func TestMeanCIShrinksWithSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small := make([]float64, 10)
	large := make([]float64, 1000)
	for i := range small {
		small[i] = rng.NormFloat64()
	}
	for i := range large {
		large[i] = rng.NormFloat64()
	}
	_, hwSmall := MeanCI(small)
	_, hwLarge := MeanCI(large)
	if hwLarge >= hwSmall {
		t.Fatalf("CI should shrink with more samples: %v vs %v", hwSmall, hwLarge)
	}
}
