// Package feature implements SOR's Data Processor math (§IV-A): raw sensor
// data arrive as 3-tuples (t, Δt, d) — a timestamp, a short sampling window
// and the readings taken inside it — and are reduced to "humanly
// understandable" feature values: averages for temperature/humidity/
// brightness/WiFi, mean of per-window standard deviations for road-surface
// roughness, standard deviation of per-window means for altitude change,
// GPS-trace tortuosity for curvature, and RMS level for background noise.
package feature

import (
	"errors"
	"fmt"
	"time"

	"sor/internal/geo"
	"sor/internal/stats"
)

// Sample is the paper's (t, Δt, d) tuple: multiple readings taken within
// [t, t+Δt] to ensure sensing quality.
type Sample struct {
	At       time.Time
	Window   time.Duration
	Readings []float64
}

// Validate is the rule every sample meets before anything folds it: a
// window that is not negative and one or more readings, each finite and
// within stats.MaxExact. Ingest refuses a report that breaks it, and a
// Fold's Step refuses the sample.
func Validate(window time.Duration, readings []float64) error {
	if window < 0 {
		return errors.New("feature: negative sample window")
	}
	if len(readings) == 0 {
		return errors.New("feature: sample with no readings")
	}
	for _, r := range readings {
		if !stats.Admits(r) {
			return fmt.Errorf("feature: reading %v is not finite or exceeds %g", r, stats.MaxExact)
		}
	}
	return nil
}

// GeoSample is a GPS variant of Sample carrying located readings.
type GeoSample struct {
	At     time.Time
	Window time.Duration
	Points []geo.Point
}

// Extractor reduces a series of samples to one feature value.
type Extractor interface {
	// Name is the feature this extractor produces ("temperature").
	Name() string
	// Extract computes the feature value. It returns an error when the
	// input is empty or malformed.
	Extract(samples []Sample) (float64, error)
}

// Fold is an Extractor that takes its samples one at a time: Step adds a
// sample to an Acc, and Read is the feature value of the samples added.
// Extract is Step over each sample, then Read. An Acc holds exact sums, so
// Read is a function of the multiset of samples stepped, in any order.
type Fold interface {
	Extractor
	// Step adds one sample's window and readings to a. A sample Validate
	// refuses, or one whose observation an exact sum does not admit, is an
	// error and leaves a unchanged.
	Step(a *Acc, window time.Duration, readings []float64) error
	// Read is the feature value of the samples stepped into a.
	Read(a *Acc) (float64, error)
}

// Acc is a Fold's state. The zero Acc is empty; like its sums, an Acc must
// not be copied after its first Step.
type Acc struct {
	samples int            // samples stepped
	n       int            // observations stepped
	sum     stats.ExactSum // of the observations
	squares stats.ExactSum // of their squares, for AltitudeChangeExtractor
	kept    []float64      // every reading, for MADMeanExtractor
}

// Samples reports how many samples were stepped into a.
func (a *Acc) Samples() int { return a.samples }

// observe adds one valid sample's observations to a, or none of them when
// one is not admitted; squares adds their squares too.
func (a *Acc) observe(obs []float64, squares bool) error {
	for _, x := range obs {
		if !stats.Admits(x) {
			return fmt.Errorf("feature: observation %v is not admitted", x)
		}
	}
	for _, x := range obs {
		a.sum.Add(x)
		if squares {
			a.squares.AddSquare(x)
		}
	}
	a.samples++
	a.n += len(obs)
	return nil
}

// observeWindow adds stat of one sample's readings as its observation.
func (a *Acc) observeWindow(window time.Duration, readings []float64, stat func([]float64) (float64, error), squares bool) error {
	if err := Validate(window, readings); err != nil {
		return err
	}
	x, err := stat(readings)
	if err != nil {
		return err
	}
	return a.observe([]float64{x}, squares)
}

// mean is the mean of the observations in a.
func (a *Acc) mean(name string) (float64, error) {
	if a.n == 0 {
		return 0, fmt.Errorf("feature: %s: no data", name)
	}
	return a.sum.Sum() / float64(a.n), nil
}

// foldExtract is Extract for a Fold.
func foldExtract(f Fold, samples []Sample) (float64, error) {
	var a Acc
	for i, s := range samples {
		if err := f.Step(&a, s.Window, s.Readings); err != nil {
			return 0, fmt.Errorf("feature: %s sample %d: %w", f.Name(), i, err)
		}
	}
	return f.Read(&a)
}

// MeanExtractor averages all readings of all samples — the paper's method
// for temperature, humidity, brightness and WiFi signal strength.
type MeanExtractor struct {
	Feature string
}

var _ Fold = MeanExtractor{}

// Name implements Extractor.
func (e MeanExtractor) Name() string { return e.Feature }

// Extract implements Extractor.
func (e MeanExtractor) Extract(samples []Sample) (float64, error) {
	return foldExtract(e, samples)
}

// Step implements Fold: every reading is one observation.
func (MeanExtractor) Step(a *Acc, window time.Duration, readings []float64) error {
	if err := Validate(window, readings); err != nil {
		return err
	}
	return a.observe(readings, false)
}

// Read implements Fold.
func (e MeanExtractor) Read(a *Acc) (float64, error) { return a.mean(e.Feature) }

// RoughnessExtractor implements the paper's road-surface roughness: "an
// average of the standard deviations of all accelerometer's readings
// within Δt".
type RoughnessExtractor struct{}

var _ Fold = RoughnessExtractor{}

// Name implements Extractor.
func (RoughnessExtractor) Name() string { return "roughness" }

// Extract implements Extractor.
func (e RoughnessExtractor) Extract(samples []Sample) (float64, error) {
	return foldExtract(e, samples)
}

// Step implements Fold: a window's standard deviation is one observation.
func (RoughnessExtractor) Step(a *Acc, window time.Duration, readings []float64) error {
	return a.observeWindow(window, readings, stats.StdDev, false)
}

// Read implements Fold.
func (e RoughnessExtractor) Read(a *Acc) (float64, error) { return a.mean(e.Name()) }

// AltitudeChangeExtractor implements "the standard deviation of averages of
// all altitude sensor readings within Δt".
type AltitudeChangeExtractor struct{}

var _ Fold = AltitudeChangeExtractor{}

// Name implements Extractor.
func (AltitudeChangeExtractor) Name() string { return "altitude change" }

// Extract implements Extractor.
func (e AltitudeChangeExtractor) Extract(samples []Sample) (float64, error) {
	return foldExtract(e, samples)
}

// Step implements Fold: a window's mean is one observation.
func (AltitudeChangeExtractor) Step(a *Acc, window time.Duration, readings []float64) error {
	return a.observeWindow(window, readings, stats.Mean, true)
}

// Read implements Fold: the spread of the window means.
func (AltitudeChangeExtractor) Read(a *Acc) (float64, error) {
	if a.n == 0 {
		return 0, errors.New("feature: altitude change: no data")
	}
	return stats.StdDevOf(a.n, &a.sum, &a.squares), nil
}

// NoiseRMSExtractor reduces microphone amplitude windows to an RMS level
// per window and averages them (normalized 0..1 for full-scale input).
type NoiseRMSExtractor struct{}

var _ Fold = NoiseRMSExtractor{}

// Name implements Extractor.
func (NoiseRMSExtractor) Name() string { return "noise" }

// Extract implements Extractor.
func (e NoiseRMSExtractor) Extract(samples []Sample) (float64, error) {
	return foldExtract(e, samples)
}

// Step implements Fold: a window's RMS level is one observation.
func (NoiseRMSExtractor) Step(a *Acc, window time.Duration, readings []float64) error {
	return a.observeWindow(window, readings, stats.RMS, false)
}

// Read implements Fold.
func (e NoiseRMSExtractor) Read(a *Acc) (float64, error) { return a.mean(e.Name()) }

// BurstCurvature computes tortuosity when each GeoSample is a short
// continuous GPS *burst* (several consecutive fixes along the walk):
// curvature is estimated within each burst and averaged across bursts.
// It never mixes fixes from different walkers or far-apart times, so it
// is robust to staggered multi-phone traces. The
// average is an exact sum rounded once, so the order of the bursts does
// not matter. Bursts with fewer than 3 points, or whose curvature an exact
// sum does not admit, are skipped; if none qualify an error is returned.
func BurstCurvature(samples []GeoSample) (float64, error) {
	if len(samples) == 0 {
		return 0, errors.New("feature: curvature: no data")
	}
	var sum stats.ExactSum
	n := 0
	for _, s := range samples {
		if c := geo.MeanTurnPer100m(s.Points); len(s.Points) >= 3 && stats.Admits(c) {
			sum.Add(c)
			n++
		}
	}
	if n == 0 {
		return 0, errors.New("feature: curvature: no burst with >= 3 fixes")
	}
	return sum.Sum() / float64(n), nil
}
