package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("mean = %v", got)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", got, 32.0/7)
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("stddev = %v", got)
	}
	if Variance([]float64{5}) != 0 {
		t.Error("single sample variance should be 0")
	}
}

func TestCoefVar(t *testing.T) {
	if CoefVar([]float64{1, 1, 1}) != 0 {
		t.Error("constant sample should have zero CV")
	}
	if CoefVar([]float64{0, 0}) != 0 {
		t.Error("zero-mean CV should be 0 by convention")
	}
	cv := CoefVar([]float64{9, 10, 11})
	if cv <= 0 || cv > 0.2 {
		t.Errorf("cv = %v, want small positive", cv)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5} {
		got, err := Quantile(xs, q)
		if err != nil || got != want {
			t.Errorf("quantile(%v) = %v, %v; want %v", q, got, err, want)
		}
	}
	// Interpolation between ranks.
	got, _ := Quantile([]float64{1, 2}, 0.5)
	if got != 1.5 {
		t.Errorf("interpolated median = %v, want 1.5", got)
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Error("expected ErrEmpty")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = Quantile([]float64{1}, 1.5)
}

func TestBox(t *testing.T) {
	xs := []float64{7, 15, 36, 39, 40, 41}
	b, err := Box(xs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Min != 7 || b.Max != 41 || b.N != 6 {
		t.Errorf("box extremes wrong: %+v", b)
	}
	if b.Median != 37.5 {
		t.Errorf("median = %v, want 37.5", b.Median)
	}
	if b.IQR() <= 0 || b.Range() != 34 {
		t.Errorf("IQR/Range wrong: %+v", b)
	}
	if _, err := Box(nil); err != ErrEmpty {
		t.Error("expected ErrEmpty")
	}
}

func TestBoxOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		b, err := Box(xs)
		if err != nil {
			return false
		}
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := math.Abs(math.Mod(q1, 1))
		b := math.Abs(math.Mod(q2, 1))
		if a > b {
			a, b = b, a
		}
		va, err1 := Quantile(xs, a)
		vb, err2 := Quantile(xs, b)
		return err1 == nil && err2 == nil && va <= vb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Errorf("min = %v, %v", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Errorf("max = %v, %v", mx, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Error("expected ErrEmpty")
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Error("expected ErrEmpty")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("ratio with zero denominator should be 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Error("ratio wrong")
	}
}
