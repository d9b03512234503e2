package fieldtest

import (
	"math"
	"sort"
	"testing"

	"sor/internal/chaos"
	"sor/internal/server"
	"sor/internal/stats"
	"sor/internal/store"
	"sor/internal/wire"
	"sor/internal/world"
)

// sensorFeatures maps each scalar sensor to the feature it produces.
var sensorFeatures = map[string]string{
	"temperature": "temperature", "humidity": "humidity", "light": "brightness", "wifi": "wifi",
	"microphone": "noise", "accelerometer": "roughness", "barometer": "altitude change",
}

// welfordFeature is how features were extracted before exact sums, kept
// as a second oracle: the sensor's samples in canonical order (instant,
// window, reading count, then readings), folded left through one Welford
// — every reading for a mean feature, each window's RMS level, standard
// deviation or mean for noise, roughness and altitude change.
func welfordFeature(sensor string, samples []wire.SensorSample) float64 {
	sort.SliceStable(samples, func(i, j int) bool {
		a, b := samples[i], samples[j]
		if a.AtUnixMilli != b.AtUnixMilli {
			return a.AtUnixMilli < b.AtUnixMilli
		}
		if a.WindowMilli != b.WindowMilli {
			return a.WindowMilli < b.WindowMilli
		}
		if len(a.Readings) != len(b.Readings) {
			return len(a.Readings) < len(b.Readings)
		}
		for k := range a.Readings {
			if a.Readings[k] != b.Readings[k] {
				return a.Readings[k] < b.Readings[k]
			}
		}
		return false
	})
	var w stats.Welford
	for _, smp := range samples {
		switch sensor {
		case "microphone":
			rms, _ := stats.RMS(smp.Readings)
			w.Add(rms)
		case "accelerometer":
			sd, _ := stats.StdDev(smp.Readings)
			w.Add(sd)
		case "barometer":
			m, _ := stats.Mean(smp.Readings)
			w.Add(m)
		default:
			for _, r := range smp.Readings {
				w.Add(r)
			}
		}
	}
	if sensor == "barometer" {
		return w.StdDev()
	}
	return w.Mean()
}

// checkAgainstWelford requires every scalar feature row to lie within
// 1e-12 relative of welfordFeature over the stored uploads of its place.
func checkAgainstWelford(t *testing.T, what string, db *store.Store, rows []store.FeatureRow) {
	t.Helper()
	bySensor := make(map[string]map[string][]wire.SensorSample) // place -> sensor -> samples
	for _, h := range db.DrainHistory() {
		app, err := db.App(h.AppID)
		if err != nil {
			t.Fatal(err)
		}
		if bySensor[app.Place] == nil {
			bySensor[app.Place] = make(map[string][]wire.SensorSample)
		}
		for _, raw := range h.Rows {
			m, err := wire.Decode(raw.Body)
			if err != nil {
				t.Fatal(err)
			}
			for _, series := range m.(*wire.DataUpload).Series {
				bySensor[app.Place][series.Sensor] = append(bySensor[app.Place][series.Sensor], series.Samples...)
			}
		}
	}
	checked := 0
	for place, sensors := range bySensor {
		for sensor, samples := range sensors {
			feat := sensorFeatures[sensor]
			var row *store.FeatureRow
			for i := range rows {
				if rows[i].Place == place && rows[i].Feature == feat {
					row = &rows[i]
				}
			}
			if row == nil {
				t.Fatalf("%s: no %s row for %s", what, feat, place)
			}
			want := welfordFeature(sensor, samples)
			if diff := math.Abs(row.Value - want); diff > 1e-12*math.Abs(want) {
				t.Errorf("%s: %s %s = %v, Welford left fold %v (relative %.2g)", what, place, feat, row.Value, want, diff/math.Abs(want))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no feature checked", what)
	}
	t.Logf("%s: %d features within 1e-12 of the Welford left fold", what, checked)
}

// TestExactFoldsMatchWelfordOracle: on the field-test data and on the
// chaos soak's data, every feature is within 1e-12 relative of the left
// Welford fold over the canonical sample order it replaced.
func TestExactFoldsMatchWelfordOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs")
	}
	for _, cat := range []string{world.CategoryTrail, world.CategoryCoffee} {
		var srv *server.Server
		dir := t.TempDir()
		newServer = func(cfg server.Config) (*server.Server, error) {
			cfg.DB, cfg.Storage = nil, store.NewDurableBackend(dir)
			s, err := server.New(cfg)
			if err != nil {
				return nil, err
			}
			srv = s
			return s, s.Open()
		}
		_, err := Run(Config{Category: cat, PhonesPerPlace: 7, Budget: 20, Seed: 2013})
		newServer = server.New
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstWelford(t, "field test "+cat, srv.DB(), srv.DB().FeaturesByCategory(cat))
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}

	sc := chaos.FleetSoaks["crash"]
	sc.Phones, sc.Budget, sc.Seed, sc.DataDir, sc.ServerKills = 6, 4, 42, t.TempDir(), 3
	res, err := chaos.RunFleet(sc)
	if err != nil {
		t.Fatal(err)
	}
	backend := store.NewDurableBackend(sc.DataDir)
	db, err := backend.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	checkAgainstWelford(t, "chaos crash soak", db, res.Features)
}
