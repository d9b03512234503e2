package feature

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sor/internal/stats"
)

func TestMedianExtractor(t *testing.T) {
	e := MedianExtractor{Feature: "temperature"}
	if e.Name() != "temperature" {
		t.Fatal("name mismatch")
	}
	got, err := e.Extract(mkSamples([]float64{70, 71}, []float64{72, 300}))
	if err != nil {
		t.Fatal(err)
	}
	if got != 71.5 {
		t.Fatalf("median = %v, want 71.5", got)
	}
	if _, err := e.Extract(nil); err == nil {
		t.Fatal("no data must error")
	}
}

func TestTrimmedMeanExtractor(t *testing.T) {
	e := TrimmedMeanExtractor{Feature: "x", TrimFrac: 0.25}
	// 8 readings: trim 2 per tail -> mean of the middle 4.
	got, err := e.Extract(mkSamples([]float64{-100, 1, 2, 3, 4, 5, 6, 500}))
	if err != nil {
		t.Fatal(err)
	}
	// sorted: -100,1,2,3,4,5,6,500; keep 2..6 (indices 2..5) = 2,3,4,5.
	if got != 3.5 {
		t.Fatalf("trimmed mean = %v, want 3.5", got)
	}
	if _, err := (TrimmedMeanExtractor{Feature: "x", TrimFrac: 0.5}).Extract(mkSamples([]float64{1})); err == nil {
		t.Fatal("trim 0.5 must error")
	}
	if _, err := (TrimmedMeanExtractor{Feature: "x", TrimFrac: -0.1}).Extract(mkSamples([]float64{1})); err == nil {
		t.Fatal("negative trim must error")
	}
	if _, err := e.Extract(nil); err == nil {
		t.Fatal("no data must error")
	}
}

func TestMADFilter(t *testing.T) {
	readings := []float64{10, 10.2, 9.8, 10.1, 9.9, 55}
	kept, rejected, err := MADFilter(readings, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 1 || len(kept) != 5 {
		t.Fatalf("kept %d rejected %d", len(kept), rejected)
	}
	for _, k := range kept {
		if k == 55 {
			t.Fatal("outlier survived")
		}
	}
	if _, _, err := MADFilter(nil, 3); err == nil {
		t.Fatal("empty input must error")
	}
	if _, _, err := MADFilter(readings, 0); err == nil {
		t.Fatal("zero threshold must error")
	}
}

func TestMADFilterDegenerateSpread(t *testing.T) {
	// All identical: nothing rejected.
	kept, rejected, err := MADFilter([]float64{5, 5, 5, 5}, 3)
	if err != nil || rejected != 0 || len(kept) != 4 {
		t.Fatalf("kept=%d rejected=%d err=%v", len(kept), rejected, err)
	}
	// Majority identical + one outlier: MAD = 0, outlier rejected.
	kept, rejected, err = MADFilter([]float64{5, 5, 5, 99}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 1 || len(kept) != 3 {
		t.Fatalf("kept=%d rejected=%d", len(kept), rejected)
	}
}

func TestMADMeanExtractorResistsFaultySensor(t *testing.T) {
	// Eleven honest phones at ~71°F, one faulty phone reading 120°F.
	var honest []float64
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 110; i++ {
		honest = append(honest, 71+rng.NormFloat64()*0.3)
	}
	var faulty []float64
	for i := 0; i < 10; i++ {
		faulty = append(faulty, 120+rng.NormFloat64()*0.3)
	}
	samples := mkSamples(honest, faulty)

	plain, err := MeanExtractor{Feature: "temperature"}.Extract(samples)
	if err != nil {
		t.Fatal(err)
	}
	robust, err := MADMeanExtractor{Feature: "temperature"}.Extract(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain-71) < 2 {
		t.Fatalf("plain mean %v unexpectedly unaffected — test is vacuous", plain)
	}
	if math.Abs(robust-71) > 0.5 {
		t.Fatalf("robust mean %v, want ~71 despite faulty phone", robust)
	}
	// Default K kicks in for K <= 0.
	if e := (MADMeanExtractor{Feature: "t", K: -1}); e.Name() != "t" {
		t.Fatal("name mismatch")
	}
	if _, err := (MADMeanExtractor{Feature: "t"}).Extract(nil); err == nil {
		t.Fatal("no data must error")
	}
}

// Property: for clean (outlier-free) Gaussian data all four location
// estimators agree within sampling error.
func TestRobustExtractorsAgreeOnCleanDataProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := rng.Float64()*100 - 50
		var readings []float64
		for i := 0; i < 400; i++ {
			readings = append(readings, truth+rng.NormFloat64())
		}
		samples := mkSamples(readings)
		mean, err := MeanExtractor{Feature: "x"}.Extract(samples)
		if err != nil {
			return false
		}
		median, err := MedianExtractor{Feature: "x"}.Extract(samples)
		if err != nil {
			return false
		}
		trimmed, err := TrimmedMeanExtractor{Feature: "x", TrimFrac: 0.1}.Extract(samples)
		if err != nil {
			return false
		}
		mad, err := MADMeanExtractor{Feature: "x"}.Extract(samples)
		if err != nil {
			return false
		}
		for _, v := range []float64{mean, median, trimmed, mad} {
			if math.Abs(v-truth) > 0.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: MAD filter never rejects more than half of the data when the
// threshold is >= 1 (the median itself always survives).
func TestMADFilterKeepsMajorityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		readings := make([]float64, n)
		for i := range readings {
			readings[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(4)))
		}
		kept, rejected, err := MADFilter(readings, 1+rng.Float64()*4)
		if err != nil {
			return false
		}
		return len(kept)+rejected == n && len(kept)*2 >= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// MedianExtractor and TrimmedMeanExtractor are the order-statistic
// references MADMeanExtractor is checked against.

// MedianExtractor reduces all readings to their median.
type MedianExtractor struct {
	Feature string
}

var _ Extractor = MedianExtractor{}

// Name implements Extractor.
func (e MedianExtractor) Name() string { return e.Feature }

// Extract implements Extractor.
func (e MedianExtractor) Extract(samples []Sample) (float64, error) {
	all, err := flatten(e.Feature, samples)
	if err != nil {
		return 0, err
	}
	return stats.Quantile(all, 0.5)
}

// TrimmedMeanExtractor drops the top and bottom TrimFrac of readings
// before averaging.
type TrimmedMeanExtractor struct {
	Feature  string
	TrimFrac float64 // per tail, in [0, 0.5)
}

var _ Extractor = TrimmedMeanExtractor{}

// Name implements Extractor.
func (e TrimmedMeanExtractor) Name() string { return e.Feature }

// Extract implements Extractor.
func (e TrimmedMeanExtractor) Extract(samples []Sample) (float64, error) {
	if e.TrimFrac < 0 || e.TrimFrac >= 0.5 {
		return 0, fmt.Errorf("feature: trim fraction %v outside [0, 0.5)", e.TrimFrac)
	}
	all, err := flatten(e.Feature, samples)
	if err != nil {
		return 0, err
	}
	sort.Float64s(all)
	cut := int(float64(len(all)) * e.TrimFrac)
	kept := all[cut : len(all)-cut]
	if len(kept) == 0 {
		return 0, errors.New("feature: trim removed all readings")
	}
	return stats.Mean(kept)
}

// flatten validates samples and gathers all readings.
func flatten(feat string, samples []Sample) ([]float64, error) {
	var all []float64
	for i, s := range samples {
		if err := Validate(s.Window, s.Readings); err != nil {
			return nil, fmt.Errorf("feature: %s sample %d: %w", feat, i, err)
		}
		all = append(all, s.Readings...)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("feature: %s: no data", feat)
	}
	return all, nil
}
