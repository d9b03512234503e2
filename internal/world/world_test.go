package world

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sor/internal/geo"
	"sor/internal/stats"
)

var testTime = time.Date(2013, time.November, 15, 12, 0, 0, 0, time.UTC)

func mustCanonical(t testing.TB) *World {
	t.Helper()
	w, err := Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPlaceValidate(t *testing.T) {
	if err := (*Place)(nil).Validate(); err == nil {
		t.Fatal("nil place must error")
	}
	good := &Place{
		Name: "x", Category: "c", Loc: geo.Point{Lat: 43, Lon: -76}, RadiusM: 10,
		Fields: map[string]FieldSpec{"f": {Base: 1}},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Place{
		{Category: "c", Loc: good.Loc, RadiusM: 10},
		{Name: "x", Loc: good.Loc, RadiusM: 10},
		{Name: "x", Category: "c", Loc: geo.Point{Lat: 99}, RadiusM: 10},
		{Name: "x", Category: "c", Loc: good.Loc},
		{Name: "x", Category: "c", Loc: good.Loc, RadiusM: 10,
			Fields: map[string]FieldSpec{"": {}}},
		{Name: "x", Category: "c", Loc: good.Loc, RadiusM: 10,
			Fields: map[string]FieldSpec{"f": {NoiseSigma: -1}}},
		{Name: "x", Category: "c", Loc: good.Loc, RadiusM: 10, RoughnessSigma: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad case %d should fail", i)
		}
	}
}

func TestWorldRegistry(t *testing.T) {
	w := New()
	p := &Place{Name: "x", Category: "c", Loc: geo.Point{Lat: 43, Lon: -76}, RadiusM: 5}
	if err := w.Add(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(p); err == nil {
		t.Fatal("duplicate must error")
	}
	got, err := w.Place("x")
	if err != nil || got.Name != "x" {
		t.Fatalf("Place = %v, %v", got, err)
	}
	if _, err := w.Place("ghost"); err == nil {
		t.Fatal("missing place must error")
	}
	if len(w.places) != 1 {
		t.Fatal("Places should list one")
	}
}

func TestScalarDeterministic(t *testing.T) {
	w := mustCanonical(t)
	p, err := w.Place(Starbucks)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := p.Scalar(FieldTemperature, testTime)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := p.Scalar(FieldTemperature, testTime)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("same query differs: %v vs %v", v1, v2)
	}
	if _, err := p.Scalar("unobtainium", testTime); err == nil {
		t.Fatal("unknown field must error")
	}
}

func TestScalarNearBase(t *testing.T) {
	w := mustCanonical(t)
	cases := map[string]map[string]float64{
		TimHortons: {FieldTemperature: 66, FieldBrightness: 1000, FieldNoise: 0.05, FieldWiFi: -62},
		BNCafe:     {FieldTemperature: 71, FieldBrightness: 400, FieldNoise: 0.08, FieldWiFi: -50},
		Starbucks:  {FieldTemperature: 73, FieldBrightness: 150, FieldNoise: 0.18, FieldWiFi: -72},
	}
	for name, fields := range cases {
		p, err := w.Place(name)
		if err != nil {
			t.Fatal(err)
		}
		for field, base := range fields {
			// Average over the 3-hour test window.
			var acc stats.Welford
			for i := 0; i < 180; i++ {
				v, err := p.Scalar(field, testTime.Add(time.Duration(i)*time.Minute/2))
				if err != nil {
					t.Fatal(err)
				}
				acc.Add(v)
			}
			tol := math.Max(math.Abs(base)*0.05, 1.5)
			if math.Abs(acc.Mean()-base) > tol {
				t.Fatalf("%s %s mean = %v, want ~%v", name, field, acc.Mean(), base)
			}
		}
	}
}

func TestScalarContinuity(t *testing.T) {
	w := mustCanonical(t)
	p, err := w.Place(BNCafe)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := p.Scalar(FieldTemperature, testTime)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 600; i++ {
		v, err := p.Scalar(FieldTemperature, testTime.Add(time.Duration(i)*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-prev) > 0.2 {
			t.Fatalf("temperature jumped %v -> %v in one second", prev, v)
		}
		prev = v
	}
}

func TestPlacesDiffer(t *testing.T) {
	// Two places with the same field must not produce identical noise
	// (seeded per place).
	w := mustCanonical(t)
	a, err := w.Place(TimHortons)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Place(Starbucks)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < 20; i++ {
		at := testTime.Add(time.Duration(i) * time.Minute)
		va, err := a.Scalar(FieldNoise, at)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := b.Scalar(FieldNoise, at)
		if err != nil {
			t.Fatal(err)
		}
		if va-0.05 == vb-0.18 {
			same++
		}
	}
	if same == 20 {
		t.Fatal("noise processes identical across places")
	}
}

func TestAccelSampleMatchesRoughness(t *testing.T) {
	w := mustCanonical(t)
	for _, tc := range []struct {
		place string
		want  float64
	}{
		{GreenLakeTrail, 0.5}, {LongTrail, 0.9}, {CliffTrail, 1.4},
	} {
		p, err := w.Place(tc.place)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		var acc stats.Welford
		for i := 0; i < 200; i++ {
			sd, err := stats.StdDev(p.AccelSample(rng, 50))
			if err != nil {
				t.Fatal(err)
			}
			acc.Add(sd)
		}
		if math.Abs(acc.Mean()-tc.want) > 0.05 {
			t.Fatalf("%s roughness = %v, want ~%v", tc.place, acc.Mean(), tc.want)
		}
	}
}

func TestNoiseSampleRMS(t *testing.T) {
	w := mustCanonical(t)
	p, err := w.Place(Starbucks)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var acc stats.Welford
	for i := 0; i < 300; i++ {
		readings, err := p.NoiseSample(rng, testTime, 64)
		if err != nil {
			t.Fatal(err)
		}
		rms, err := stats.RMS(readings)
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(rms)
	}
	if math.Abs(acc.Mean()-0.18) > 0.02 {
		t.Fatalf("Starbucks noise RMS = %v, want ~0.18", acc.Mean())
	}
	trailPlace, err := w.Place(CliffTrail)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trailPlace.NoiseSample(rng, testTime, 8); err == nil {
		t.Fatal("trail has no noise field; must error")
	}
}

func TestTrailGeometryCalibration(t *testing.T) {
	w := mustCanonical(t)
	for _, tc := range []struct {
		place     string
		curvature float64
		altChange float64
	}{
		{GreenLakeTrail, 25, 5}, {LongTrail, 45, 15}, {CliffTrail, 70, 28},
	} {
		p, err := w.Place(tc.place)
		if err != nil {
			t.Fatal(err)
		}
		gotCurv, ok := GroundTruth(p, "curvature")
		if !ok {
			t.Fatalf("%s has no curvature ground truth", tc.place)
		}
		if math.Abs(gotCurv-tc.curvature) > tc.curvature*0.15 {
			t.Fatalf("%s curvature = %v, want ~%v", tc.place, gotCurv, tc.curvature)
		}
		gotAlt, ok := GroundTruth(p, "altitude change")
		if !ok || math.Abs(gotAlt-tc.altChange) > 0.01 {
			t.Fatalf("%s altitude change = %v, want %v", tc.place, gotAlt, tc.altChange)
		}
		// Walking the trail and sampling altitude should reproduce the
		// altitude-change target.
		var alts []float64
		for i := 0; i <= 400; i++ {
			alts = append(alts, p.AltitudeAt(float64(i)/400))
		}
		sd, err := stats.StdDev(alts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sd-tc.altChange) > tc.altChange*0.1 {
			t.Fatalf("%s sampled altitude stddev = %v, want ~%v", tc.place, sd, tc.altChange)
		}
	}
}

func TestPositionAtStaysInGeofence(t *testing.T) {
	w := mustCanonical(t)
	for _, name := range []string{GreenLakeTrail, LongTrail, CliffTrail} {
		p, err := w.Place(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= 10; i++ {
			pos := p.PositionAt(float64(i) / 10)
			if d := geo.Distance(pos, p.Loc); d > p.RadiusM {
				t.Fatalf("%s position at %d/10 is %v m from anchor (> %v)",
					name, i, d, p.RadiusM)
			}
		}
	}
	// Coffee shops are stationary.
	p, err := w.Place(BNCafe)
	if err != nil {
		t.Fatal(err)
	}
	if p.PositionAt(0.7) != p.Loc {
		t.Fatal("coffee shop should not move")
	}
}

func TestGroundTruthScalarFields(t *testing.T) {
	w := mustCanonical(t)
	p, err := w.Place(GreenLakeTrail)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := GroundTruth(p, FieldTemperature); !ok || v != 46 {
		t.Fatalf("temperature truth = %v, %v", v, ok)
	}
	if v, ok := GroundTruth(p, "roughness"); !ok || v != 0.5 {
		t.Fatalf("roughness truth = %v, %v", v, ok)
	}
	if _, ok := GroundTruth(p, "nope"); ok {
		t.Fatal("phantom ground truth")
	}
	shop, err := w.Place(TimHortons)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := GroundTruth(shop, "curvature"); ok {
		t.Fatal("coffee shop has no curvature")
	}
	if _, ok := GroundTruth(shop, "altitude change"); ok {
		t.Fatal("coffee shop has no altitude change")
	}
}

func TestBuildTrailPathValidation(t *testing.T) {
	if _, err := BuildTrailPath(geo.Point{Lat: 43, Lon: -76}, 0, 1, 10, 5); err == nil {
		t.Fatal("too few segments must error")
	}
	path, err := BuildTrailPath(geo.Point{Lat: 43, Lon: -76}, 0, 50, 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(path.Length()-50*25) > 5 {
		t.Fatalf("trail length = %v, want ~1250", path.Length())
	}
}

// Property: smooth noise stays within [-1, 1] and is deterministic.
func TestSmoothNoiseBoundsProperty(t *testing.T) {
	f := func(seed uint64, offsetSec uint32) bool {
		at := testTime.Add(time.Duration(offsetSec) * time.Second)
		v := smoothNoise(seed, at)
		return v >= -1 && v <= 1 && v == smoothNoise(seed, at)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: trail curvature calibration holds across parameter choices.
func TestTrailCurvatureCalibrationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		target := 10 + rng.Float64()*70 // °/100m
		const segmentM = 25.0
		path, err := BuildTrailPath(geo.Point{Lat: 43, Lon: -76}, rng.Float64()*360,
			60, segmentM, target*segmentM/100)
		if err != nil {
			return false
		}
		got := geo.MeanTurnPer100m(path.Points())
		return math.Abs(got-target) < target*0.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
