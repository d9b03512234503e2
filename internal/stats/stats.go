// Package stats provides small statistical utilities used throughout SOR:
// streaming mean/variance (Welford), simple aggregates, quantiles, and a
// deterministic RNG splitter so concurrent simulations stay reproducible.
package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// ErrEmpty is returned by aggregates that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Welford accumulates a running mean and variance in a single pass using
// Welford's numerically stable online algorithm. The zero value is ready to
// use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Mean reports the running mean, or 0 when no observations were added.
func (w *Welford) Mean() float64 { return w.mean }

// Variance reports the population variance, or 0 for fewer than two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev reports the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Mean(), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.StdDev(), nil
}

// MeanStd returns both the mean and the population standard deviation.
func MeanStd(xs []float64) (mean, std float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Mean(), w.StdDev(), nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile out of range [0,1]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// RMS returns the root mean square of xs.
func RMS(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		sum += x * x
	}
	return math.Sqrt(sum / float64(len(xs))), nil
}

// Split derives a child RNG from a parent deterministically. Simulations
// hand one child per logical actor so goroutine interleaving cannot change
// the sampled values.
func Split(parent *rand.Rand) *rand.Rand {
	return rand.New(rand.NewSource(parent.Int63()))
}

// NewRand returns a seeded *rand.Rand, the single entry point simulations
// use so every run is reproducible from one seed.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
