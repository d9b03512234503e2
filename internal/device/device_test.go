package device

import (
	"context"
	"math"
	"testing"
	"time"

	"sor/internal/geo"
	"sor/internal/sensors"
	"sor/internal/stats"
	"sor/internal/world"
)

var (
	enter = time.Date(2013, time.November, 17, 11, 0, 0, 0, time.UTC)
	leave = enter.Add(3 * time.Hour)
)

func testWorld(t testing.TB) *world.World {
	t.Helper()
	w, err := world.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func trailPhone(t testing.TB, trailName string, seed int64) *Phone {
	t.Helper()
	w := testWorld(t)
	place, err := w.Place(trailName)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		ID: "phone-1", Token: "tok-1",
		Traj: Trajectory{Place: place, Enter: enter, Leave: leave},
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func coffeePhone(t testing.TB, shop string, seed int64) *Phone {
	t.Helper()
	w := testWorld(t)
	place, err := w.Place(shop)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		ID: "phone-c", Token: "tok-c",
		Traj: Trajectory{Place: place, Enter: enter, Leave: leave},
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	w := testWorld(t)
	place, err := w.Place(world.BNCafe)
	if err != nil {
		t.Fatal(err)
	}
	traj := Trajectory{Place: place, Enter: enter, Leave: leave}
	if _, err := New(Config{Token: "t", Traj: traj}); err == nil {
		t.Fatal("missing id must error")
	}
	if _, err := New(Config{ID: "i", Traj: traj}); err == nil {
		t.Fatal("missing token must error")
	}
	if _, err := New(Config{ID: "i", Token: "t"}); err == nil {
		t.Fatal("missing trajectory must error")
	}
	if _, err := New(Config{ID: "i", Token: "t",
		Traj: Trajectory{Place: place, Enter: leave, Leave: enter}}); err == nil {
		t.Fatal("inverted trajectory must error")
	}
}

func TestTrajectoryProgress(t *testing.T) {
	w := testWorld(t)
	place, err := w.Place(world.CliffTrail)
	if err != nil {
		t.Fatal(err)
	}
	tr := Trajectory{Place: place, Enter: enter, Leave: leave}
	if f := tr.FractionAt(enter.Add(-time.Hour)); f != 0 {
		t.Fatalf("before enter = %v", f)
	}
	if f := tr.FractionAt(enter.Add(90 * time.Minute)); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("midpoint = %v", f)
	}
	if f := tr.FractionAt(leave.Add(time.Hour)); f != 1 {
		t.Fatalf("after leave = %v", f)
	}
	// Walking moves the phone.
	p0 := tr.PositionAt(enter)
	p1 := tr.PositionAt(leave)
	if geo.Distance(p0, p1) < 100 {
		t.Fatal("phone did not move along the trail")
	}
}

func TestClockAndPosition(t *testing.T) {
	p := trailPhone(t, world.LongTrail, 1)
	if !p.now.Equal(enter) {
		t.Fatal("clock should start at enter")
	}
	mid := enter.Add(90 * time.Minute)
	p.SetTime(mid)
	if !p.now.Equal(mid) {
		t.Fatal("SetTime failed")
	}
	want := p.traj.PositionAt(mid)
	if p.Position() != want {
		t.Fatal("Position should track the clock")
	}
}

func TestTrailPhoneSensorSuite(t *testing.T) {
	m := trailPhone(t, world.CliffTrail, 2).Manager()
	for _, f := range []string{FnTemperature, FnHumidity, FnAccel, FnAltitude, FnLocation} {
		if _, ok := m.Provider(f); !ok {
			t.Fatalf("trail phone missing %s", f)
		}
	}
	// Trails model no brightness/noise/wifi.
	for _, f := range []string{FnLight, FnNoise, FnWiFi} {
		if _, ok := m.Provider(f); ok {
			t.Fatalf("trail phone should not register %s", f)
		}
	}
}

func TestCoffeePhoneSensorSuite(t *testing.T) {
	m := coffeePhone(t, world.Starbucks, 3).Manager()
	for _, f := range []string{FnTemperature, FnLight, FnNoise, FnWiFi, FnLocation} {
		if _, ok := m.Provider(f); !ok {
			t.Fatalf("coffee phone missing %s", f)
		}
	}
}

func TestTemperatureAcquisitionNearTruth(t *testing.T) {
	p := coffeePhone(t, world.BNCafe, 4)
	var acc stats.Welford
	for i := 0; i < 60; i++ {
		at := enter.Add(time.Duration(i) * 3 * time.Minute)
		r, err := p.Manager().Acquire(context.Background(), FnTemperature,
			sensors.Request{At: at, Count: 5, Window: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range r.Values {
			acc.Add(v)
		}
	}
	if math.Abs(acc.Mean()-71) > 1.5 {
		t.Fatalf("B&N temperature = %v, want ~71", acc.Mean())
	}
}

func TestAccelRoughnessDiffersAcrossTrails(t *testing.T) {
	rough := func(name string) float64 {
		p := trailPhone(t, name, 5)
		var acc stats.Welford
		for i := 0; i < 60; i++ {
			at := enter.Add(time.Duration(i) * 3 * time.Minute)
			r, err := p.Manager().Acquire(context.Background(), FnAccel,
				sensors.Request{At: at, Count: 50, Window: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			sd, err := stats.StdDev(r.Values)
			if err != nil {
				t.Fatal(err)
			}
			acc.Add(sd)
		}
		return acc.Mean()
	}
	gl, cliff := rough(world.GreenLakeTrail), rough(world.CliffTrail)
	if cliff <= gl {
		t.Fatalf("Cliff roughness %v <= Green Lake %v", cliff, gl)
	}
	if math.Abs(gl-0.5) > 0.1 || math.Abs(cliff-1.4) > 0.2 {
		t.Fatalf("roughness = %v / %v, want ~0.5 / ~1.4", gl, cliff)
	}
}

func TestAltitudeVariesAlongTrail(t *testing.T) {
	p := trailPhone(t, world.CliffTrail, 6)
	var means []float64
	for i := 0; i <= 36; i++ {
		at := enter.Add(time.Duration(i) * 5 * time.Minute)
		r, err := p.Manager().Acquire(context.Background(), FnAltitude,
			sensors.Request{At: at, Count: 4, Window: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		m, err := stats.Mean(r.Values)
		if err != nil {
			t.Fatal(err)
		}
		means = append(means, m)
	}
	sd, err := stats.StdDev(means)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sd-28) > 6 {
		t.Fatalf("Cliff altitude change = %v, want ~28", sd)
	}
}

func TestLocationNearTrajectory(t *testing.T) {
	p := trailPhone(t, world.GreenLakeTrail, 7)
	at := enter.Add(time.Hour)
	r, err := p.Manager().Acquire(context.Background(), FnLocation,
		sensors.Request{At: at, Count: 3, Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	truth := p.traj.PositionAt(at)
	// On a trail the fixes form a burst of consecutive path vertices
	// (25 m apart) starting at the walker, so allow count × segment slack.
	for _, pt := range r.Points {
		if d := geo.Distance(pt, truth); d > 90 {
			t.Fatalf("GPS fix %v m from truth", d)
		}
	}
	// A single-fix request returns the walker's own position.
	single, err := p.Manager().Acquire(context.Background(), FnLocation,
		sensors.Request{At: at.Add(time.Minute), Count: 1, Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	truth1 := p.traj.PositionAt(at.Add(time.Minute))
	if d := geo.Distance(single.Points[0], truth1); d > 30 {
		t.Fatalf("single GPS fix %v m from truth", d)
	}
}

func TestTrailGPSBurstFollowsPath(t *testing.T) {
	p := trailPhone(t, world.CliffTrail, 17)
	at := enter.Add(time.Hour)
	r, err := p.Manager().Acquire(context.Background(), FnLocation,
		sensors.Request{At: at, Count: 8, Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 8 {
		t.Fatalf("burst = %d fixes", len(r.Points))
	}
	// Consecutive fixes are ~one trail segment (25 m) apart.
	for i := 1; i < len(r.Points); i++ {
		d := geo.Distance(r.Points[i-1], r.Points[i])
		if d < 15 || d > 35 {
			t.Fatalf("burst spacing %v m, want ~25", d)
		}
	}
	// The burst's tortuosity matches the trail's calibrated curvature.
	turn := geo.MeanTurnPer100m(r.Points)
	if math.Abs(turn-70) > 20 {
		t.Fatalf("burst curvature = %v, want ~70", turn)
	}
}

func TestEnergyAccounting(t *testing.T) {
	p := coffeePhone(t, world.TimHortons, 8)
	if p.EnergySpentMilliJ() != 0 {
		t.Fatal("fresh phone should have spent no energy")
	}
	if _, err := p.Manager().Acquire(context.Background(), FnWiFi,
		sensors.Request{At: enter, Count: 10, Window: time.Second}); err != nil {
		t.Fatal(err)
	}
	embedded := p.EnergySpentMilliJ()
	if embedded <= 0 {
		t.Fatal("embedded acquisition should cost energy")
	}
	if _, err := p.Manager().Acquire(context.Background(), FnLight,
		sensors.Request{At: enter, Count: 10, Window: time.Second}); err != nil {
		t.Fatal(err)
	}
	external := p.EnergySpentMilliJ() - embedded
	if external <= embedded {
		t.Fatalf("external cost %v should exceed embedded %v", external, embedded)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	read := func() []float64 {
		p := coffeePhone(t, world.Starbucks, 99)
		r, err := p.Manager().Acquire(context.Background(), FnNoise,
			sensors.Request{At: enter.Add(time.Minute), Count: 8, Window: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return r.Values
	}
	a, b := read(), read()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different readings")
		}
	}
}

func TestBluetoothFailuresSurvivable(t *testing.T) {
	w := testWorld(t)
	place, err := w.Place(world.BNCafe)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		ID: "flaky", Token: "tok",
		Traj:                 Trajectory{Place: place, Enter: enter, Leave: leave},
		Seed:                 11,
		BluetoothFailureRate: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for i := 0; i < 20; i++ {
		at := enter.Add(time.Duration(i) * time.Minute)
		if _, err := p.Manager().Acquire(context.Background(), FnTemperature,
			sensors.Request{At: at, Count: 2, Window: time.Second}); err == nil {
			ok++
		}
	}
	if ok < 15 {
		t.Fatalf("only %d/20 acquisitions survived 40%% transient failures with retries", ok)
	}
	if p.link.Failures() == 0 {
		t.Fatal("no failures were injected — test is vacuous")
	}
}
