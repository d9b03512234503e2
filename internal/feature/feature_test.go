package feature

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sor/internal/geo"
)

var sampleStart = time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC)

func mkSamples(windows ...[]float64) []Sample {
	out := make([]Sample, 0, len(windows))
	for i, w := range windows {
		out = append(out, Sample{
			At:       sampleStart.Add(time.Duration(i) * time.Minute),
			Window:   5 * time.Second,
			Readings: w,
		})
	}
	return out
}

func TestSampleValidate(t *testing.T) {
	if err := Validate(time.Second, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := Validate(-1, []float64{1}); err == nil {
		t.Fatal("negative window must error")
	}
	if err := Validate(1, nil); err == nil {
		t.Fatal("no readings must error")
	}
}

func TestMeanExtractor(t *testing.T) {
	e := MeanExtractor{Feature: "temperature"}
	if e.Name() != "temperature" {
		t.Fatal("name mismatch")
	}
	got, err := e.Extract(mkSamples([]float64{70, 72}, []float64{74}))
	if err != nil {
		t.Fatal(err)
	}
	if got != 72 {
		t.Fatalf("mean = %v, want 72", got)
	}
	if _, err := e.Extract(nil); err == nil {
		t.Fatal("no data must error")
	}
	if _, err := e.Extract([]Sample{{Window: time.Second}}); err == nil {
		t.Fatal("empty readings must error")
	}
}

func TestRoughnessExtractor(t *testing.T) {
	e := RoughnessExtractor{}
	if e.Name() != "roughness" {
		t.Fatal("name mismatch")
	}
	// Window 1: stddev 2 (values 2,4,4,4,5,5,7,9); window 2: stddev 0.
	got, err := e.Extract(mkSamples(
		[]float64{2, 4, 4, 4, 5, 5, 7, 9},
		[]float64{3, 3, 3},
	))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("roughness = %v, want mean(2,0)=1", got)
	}
	if _, err := e.Extract(nil); err == nil {
		t.Fatal("no data must error")
	}
}

func TestRoughnessOrdersSurfaces(t *testing.T) {
	// A rocky surface (high within-window variance) must yield a larger
	// roughness than a smooth one even if the smooth one has level shifts
	// ACROSS windows.
	rocky := mkSamples([]float64{-2, 2, -2, 2}, []float64{-2, 2, -2, 2})
	smooth := mkSamples([]float64{5, 5, 5, 5}, []float64{9, 9, 9, 9})
	e := RoughnessExtractor{}
	r1, err := e.Extract(rocky)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Extract(smooth)
	if err != nil {
		t.Fatal(err)
	}
	if r1 <= r2 {
		t.Fatalf("rocky %v <= smooth %v", r1, r2)
	}
	if r2 != 0 {
		t.Fatalf("smooth roughness = %v, want 0", r2)
	}
}

func TestAltitudeChangeExtractor(t *testing.T) {
	e := AltitudeChangeExtractor{}
	if e.Name() != "altitude change" {
		t.Fatal("name mismatch")
	}
	// Window means: 100, 104 → population stddev = 2.
	got, err := e.Extract(mkSamples(
		[]float64{99, 101},
		[]float64{103, 105},
	))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("altitude change = %v, want 2", got)
	}
	// Flat trail: zero.
	flat, err := e.Extract(mkSamples([]float64{100}, []float64{100}, []float64{100}))
	if err != nil {
		t.Fatal(err)
	}
	if flat != 0 {
		t.Fatalf("flat altitude change = %v", flat)
	}
	if _, err := e.Extract(nil); err == nil {
		t.Fatal("no data must error")
	}
}

func TestNoiseRMSExtractor(t *testing.T) {
	e := NoiseRMSExtractor{}
	if e.Name() != "noise" {
		t.Fatal("name mismatch")
	}
	got, err := e.Extract(mkSamples([]float64{0.3, -0.3}, []float64{0.1, -0.1}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("noise = %v, want 0.2", got)
	}
	if _, err := e.Extract(nil); err == nil {
		t.Fatal("no data must error")
	}
}

func TestCurvatureStraightVsWinding(t *testing.T) {
	start := geo.Point{Lat: 43.05, Lon: -76.14, Alt: 120}
	// One burst of 30 fixes, 50 m apart, zigzagging by turn degrees.
	mk := func(turn float64) []GeoSample {
		burst := GeoSample{At: sampleStart, Window: 15 * time.Minute}
		p := start
		brg := 0.0
		for i := 0; i < 30; i++ {
			if i%2 == 0 {
				brg += turn
			} else {
				brg -= turn
			}
			p = geo.Offset(p, brg, 50)
			burst.Points = append(burst.Points, p)
		}
		return []GeoSample{burst}
	}
	straight, err := BurstCurvature(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	winding, err := BurstCurvature(mk(60))
	if err != nil {
		t.Fatal(err)
	}
	if straight > 1 {
		t.Fatalf("straight curvature = %v, want ~0", straight)
	}
	if winding < 30 {
		t.Fatalf("winding curvature = %v, want large", winding)
	}
}

func TestCurvatureOrdersSamplesByTime(t *testing.T) {
	start := geo.Point{Lat: 43.05, Lon: -76.14}
	// Bursts from a straight walk and a winding one: each burst is one
	// walker's consecutive fixes, so delivering the bursts in any order
	// must give the same value to the bit.
	var samples []GeoSample
	p := start
	for i := 0; i < 10; i++ {
		burst := GeoSample{At: sampleStart.Add(time.Duration(i) * time.Minute)}
		for j := 0; j < 4; j++ {
			p = geo.Offset(p, float64(90+i*j*7), 100)
			burst.Points = append(burst.Points, p)
		}
		samples = append(samples, burst)
	}
	want, err := BurstCurvature(samples)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for k := 0; k < 5; k++ {
		rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		got, err := BurstCurvature(samples)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("shuffled bursts curvature = %v, want %v", got, want)
		}
	}
}

func TestCurvatureErrors(t *testing.T) {
	if _, err := BurstCurvature(nil); err == nil {
		t.Fatal("no data must error")
	}
	s := GeoSample{At: sampleStart, Points: []geo.Point{{Lat: 43, Lon: -76}, {Lat: 43.001, Lon: -76}}}
	if _, err := BurstCurvature([]GeoSample{s, s}); err == nil {
		t.Fatal("bursts of fewer than 3 fixes must error")
	}
	if _, err := BurstCurvature([]GeoSample{{At: sampleStart}}); err == nil {
		t.Fatal("a burst without points must error")
	}
}

// Property: the mean extractor recovers the generating mean of noisy
// samples to within sampling error.
func TestMeanExtractorRecoversTruthProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := rng.Float64()*100 - 50
		var samples []Sample
		for i := 0; i < 40; i++ {
			var readings []float64
			for j := 0; j < 10; j++ {
				readings = append(readings, truth+rng.NormFloat64()*0.5)
			}
			samples = append(samples, Sample{
				At: sampleStart.Add(time.Duration(i) * time.Minute), Readings: readings,
			})
		}
		got, err := MeanExtractor{Feature: "x"}.Extract(samples)
		return err == nil && math.Abs(got-truth) < 0.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: roughness grows monotonically with the within-window noise
// amplitude.
func TestRoughnessMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(amp float64) []Sample {
			var samples []Sample
			for i := 0; i < 20; i++ {
				var readings []float64
				for j := 0; j < 20; j++ {
					readings = append(readings, rng.NormFloat64()*amp)
				}
				samples = append(samples, Sample{
					At: sampleStart.Add(time.Duration(i) * time.Minute), Readings: readings,
				})
			}
			return samples
		}
		lo, err := RoughnessExtractor{}.Extract(mk(0.2))
		if err != nil {
			return false
		}
		hi, err := RoughnessExtractor{}.Extract(mk(2.0))
		if err != nil {
			return false
		}
		return hi > lo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFoldResumesBitIdentical: for every fold, stepping the samples in
// any order — read after any prefix, then the rest stepped in reverse —
// reads Extract's value bit for bit, and a malformed sample — a reading
// that is not finite or beyond stats.MaxExact included — fails both and
// leaves the state alone.
func TestFoldResumesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	samples := make([]Sample, 70)
	for i := range samples {
		readings := make([]float64, 1+rng.Intn(4))
		for k := range readings {
			readings[k] = rng.NormFloat64()*3 + 20
		}
		samples[i] = Sample{At: sampleStart.Add(time.Duration(i) * time.Second), Window: time.Second, Readings: readings}
	}
	folds := []Fold{MeanExtractor{Feature: "temperature"}, RoughnessExtractor{}, AltitudeChangeExtractor{}, NoiseRMSExtractor{}, MADMeanExtractor{Feature: "humidity"}}
	for _, f := range folds {
		want, err := f.Extract(samples)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut <= len(samples); cut += 7 {
			var a Acc
			for _, s := range samples[:cut] {
				if err := f.Step(&a, s.Window, s.Readings); err != nil {
					t.Fatal(err)
				}
			}
			_, _ = f.Read(&a)
			for i := len(samples) - 1; i >= cut; i-- {
				if err := f.Step(&a, samples[i].Window, samples[i].Readings); err != nil {
					t.Fatal(err)
				}
			}
			got, err := f.Read(&a)
			if err != nil || math.Float64bits(got) != math.Float64bits(want) || a.Samples() != len(samples) {
				t.Fatalf("%s read at %d: %v over %d samples (%v), Extract %v", f.Name(), cut, got, a.Samples(), err, want)
			}
		}
		bad := append(append([]Sample(nil), samples[:5]...), Sample{Window: -time.Second, Readings: []float64{1}})
		if _, err := f.Extract(bad); err == nil {
			t.Fatalf("%s: negative window must error", f.Name())
		}
		for _, readings := range [][]float64{nil, {1, math.NaN()}, {math.Inf(1)}, {1e200, 1}} {
			var a Acc
			_ = f.Step(&a, time.Second, samples[0].Readings)
			before, _ := f.Read(&a)
			if err := f.Step(&a, time.Second, readings); err == nil {
				t.Fatalf("%s: readings %v must error", f.Name(), readings)
			}
			if after, _ := f.Read(&a); after != before || a.Samples() != 1 {
				t.Fatalf("%s: refused readings %v moved the state from %v to %v", f.Name(), readings, before, after)
			}
		}
	}
}
