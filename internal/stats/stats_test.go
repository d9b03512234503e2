package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestWelfordAgainstNaive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if got := w.Mean(); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", got)
	}
	if got := w.Variance(); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("variance = %v, want 4", got)
	}
	if got := w.StdDev(); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("stddev = %v, want 2", got)
	}
	if got := w.n; got != len(xs) {
		t.Fatalf("n = %d, want %d", got, len(xs))
	}
}

func TestWelfordSampleVariance(t *testing.T) {
	var w Welford
	for _, x := range []float64{1, 2, 3, 4} {
		w.Add(x)
	}
	// sample variance of 1..4 is 5/3
	if got := w.SampleVariance(); !almostEqual(got, 5.0/3.0, 1e-12) {
		t.Fatalf("sample variance = %v, want %v", got, 5.0/3.0)
	}
}

func TestWelfordFewObservations(t *testing.T) {
	var w Welford
	if w.Variance() != 0 || w.SampleVariance() != 0 || w.Mean() != 0 {
		t.Fatal("zero-value Welford must report zeros")
	}
	w.Add(42)
	if w.Variance() != 0 {
		t.Fatal("single observation variance must be 0")
	}
	if w.Mean() != 42 {
		t.Fatalf("mean = %v, want 42", w.Mean())
	}
}

func TestAggregatesEmpty(t *testing.T) {
	if _, err := Mean(nil); err == nil {
		t.Fatal("Mean(nil) must error")
	}
	if _, err := StdDev(nil); err == nil {
		t.Fatal("StdDev(nil) must error")
	}
	if _, _, err := MeanStd(nil); err == nil {
		t.Fatal("MeanStd(nil) must error")
	}
	if _, err := Min(nil); err == nil {
		t.Fatal("Min(nil) must error")
	}
	if _, err := Max(nil); err == nil {
		t.Fatal("Max(nil) must error")
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("Quantile(nil) must error")
	}
	if _, err := RMS(nil); err == nil {
		t.Fatal("RMS(nil) must error")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5, -9, 2, 6}
	lo, err := Min(xs)
	if err != nil || lo != -9 {
		t.Fatalf("Min = %v, %v", lo, err)
	}
	hi, err := Max(xs)
	if err != nil || hi != 6 {
		t.Fatalf("Max = %v, %v", hi, err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", c.q, err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("out-of-range quantile must error")
	}
	if _, err := Quantile(xs, -0.1); err == nil {
		t.Fatal("negative quantile must error")
	}
	one, err := Quantile([]float64{9}, 0.99)
	if err != nil || one != 9 {
		t.Fatalf("singleton quantile = %v, %v", one, err)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestRMS(t *testing.T) {
	got, err := RMS([]float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(12.5)
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("RMS = %v, want %v", got, want)
	}
}

func TestSplitDeterminism(t *testing.T) {
	a := NewRand(99)
	b := NewRand(99)
	ca, cb := Split(a), Split(b)
	for i := 0; i < 32; i++ {
		if ca.Int63() != cb.Int63() {
			t.Fatal("split children diverged for identical parents")
		}
	}
}

// Property: Welford mean always lies within [min, max] of the inputs, and
// variance is non-negative.
func TestWelfordBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var w Welford
		lo, hi := clean[0], clean[0]
		for _, x := range clean {
			w.Add(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return w.Mean() >= lo-1e-6 && w.Mean() <= hi+1e-6 && w.Variance() >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// SampleVariance reports the Bessel-corrected sample variance, or 0 for
// fewer than two observations.
func (w *Welford) SampleVariance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}
