package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"sor/internal/feature"
	"sor/internal/obs"
	"sor/internal/store"
	"sor/internal/wire"
	"sor/internal/world"
)

// canonicalizeSamplesOracle is the definition of canonical order: a copy
// of the arrival order, stable-sorted by instant, window, reading count,
// then readings. The processor's in-place runs must equal it.
func canonicalizeSamplesOracle(samples []feature.Sample) []feature.Sample {
	out := append([]feature.Sample(nil), samples...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if !a.At.Equal(b.At) {
			return a.At.Before(b.At)
		}
		if a.Window != b.Window {
			return a.Window < b.Window
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
	return out
}

// TestFoldOrderIsStableSortOfArrival folds one set of uploads in random
// arrival permutations, each as a trickle (a refresh every few uploads)
// and as one backlog (what recovery's refold is), and requires every run
// to end with each sensor's history equal to the stable sort of its
// arrival order, and with feature rows bit-identical across all of them.
// Instants, windows and readings are drawn from small sets so equal
// instants and fully equal samples are common.
func TestFoldOrderIsStableSortOfArrival(t *testing.T) {
	const appID = "fold-app"
	sensors := []string{"temperature", "microphone", "accelerometer"}
	r := rand.New(rand.NewSource(7))
	base := t0.UnixMilli()
	uploads := make([]*wire.DataUpload, 60)
	for u := range uploads {
		up := &wire.DataUpload{AppID: appID, UserID: "folder"}
		for _, sensor := range sensors[:1+r.Intn(len(sensors))] {
			series := wire.SensorSeries{Sensor: sensor}
			for n := 1 + r.Intn(3); n > 0; n-- {
				readings := make([]float64, 1+r.Intn(2))
				for k := range readings {
					readings[k] = float64(r.Intn(3)) + 0.1*float64(r.Intn(2))
				}
				series.Samples = append(series.Samples, wire.SensorSample{
					AtUnixMilli: base + int64(r.Intn(6))*1000,
					WindowMilli: int64(1+r.Intn(2)) * 1000,
					Readings:    readings,
				})
			}
			up.Series = append(up.Series, series)
		}
		uploads[u] = up
	}

	var want []store.FeatureRow
	for run := 0; run < 12; run++ {
		order := r.Perm(len(uploads))
		trickle := run%2 == 0
		db := store.New()
		if err := db.PutApp(store.Application{ID: appID, Category: world.CategoryCoffee, Place: "fold-place"}); err != nil {
			t.Fatal(err)
		}
		d := NewDataProcessor(db)
		d.SetNow(func() time.Time { return t0 })
		arrival := make(map[string][]feature.Sample)
		for n, u := range order {
			up := uploads[u]
			body, err := wire.Encode(up)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Ingest(appID, [][]byte{body}, store.IngestOptions{Received: t0}); err != nil {
				t.Fatal(err)
			}
			for _, series := range up.Series {
				for _, smp := range series.Samples {
					arrival[series.Sensor] = append(arrival[series.Sensor], feature.Sample{
						At:       time.UnixMilli(smp.AtUnixMilli).UTC(),
						Window:   time.Duration(smp.WindowMilli) * time.Millisecond,
						Readings: smp.Readings,
					})
				}
			}
			if trickle && n%3 == 0 {
				d.Process()
			}
		}
		d.Process()

		what := fmt.Sprintf("run %d (trickle=%v)", run, trickle)
		ad := d.appData(appID)
		for sensor, samples := range arrival {
			got := ad.scalar[sensor]
			if got.sorted != len(got.recs) {
				t.Fatalf("%s: %s left %d of %d samples unsorted after a refresh", what, sensor, len(got.recs)-got.sorted, len(got.recs))
			}
			if history, oracle := got.samples(), canonicalizeSamplesOracle(samples); !reflect.DeepEqual(history, oracle) {
				t.Fatalf("%s: %s history is not the stable sort of its arrival order\n got %v\nwant %v", what, sensor, history, oracle)
			}
		}
		rows := db.FeaturesByCategory(world.CategoryCoffee)
		if len(rows) != len(sensors) {
			t.Fatalf("%s: %d feature rows, want %d", what, len(rows), len(sensors))
		}
		if want == nil {
			want = rows
			// The first run also pins the rows to the extractors over the
			// oracle's order.
			for _, row := range rows {
				for sensor, pipeline := range featurePipelines {
					if pipeline.feature != row.Feature || arrival[sensor] == nil {
						continue
					}
					v, err := pipeline.extractor.Extract(canonicalizeSamplesOracle(arrival[sensor]))
					if err != nil || math.Float64bits(v) != math.Float64bits(row.Value) || row.Samples != len(arrival[sensor]) {
						t.Fatalf("%s: %s = %v over %d samples, oracle %v over %d (%v)",
							what, row.Feature, row.Value, row.Samples, v, len(arrival[sensor]), err)
					}
				}
			}
			continue
		}
		for i, row := range rows {
			if row.Feature != want[i].Feature || math.Float64bits(row.Value) != math.Float64bits(want[i].Value) || row.Samples != want[i].Samples {
				t.Fatalf("%s: row %+v, first run had %+v", what, row, want[i])
			}
		}
	}
}

// TestSameUploadsLogTheSameRecords: two durable servers fed the same
// uploads hold byte-identical WAL record streams after Process. A fold
// refreshes the apps it touched in app-ID order, not map order, and a
// batch spanning apps logs one ingest record per app in the order the
// batch first names them.
func TestSameUploadsLogTheSameRecords(t *testing.T) {
	const apps = 8
	logOf := func() [][]byte {
		clock := &virtualClock{now: t0}
		backend := store.NewDurableBackend(t.TempDir(), store.WithSnapshotInterval(time.Hour))
		s, err := New(Config{Storage: backend, Now: clock.Now, Catalog: DefaultCatalog()})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Open(); err != nil {
			t.Fatal(err)
		}
		defer s.Kill()
		h := s.Handler()
		send := func(m wire.Message) {
			t.Helper()
			resp, err := h(nil, m)
			if err != nil {
				t.Fatal(err)
			}
			if ack := resp.(*wire.Ack); ack.Code != 200 {
				t.Fatalf("%T answered %+v", m, ack)
			}
		}
		user := func(i int) string { return fmt.Sprintf("log-user-%d", i) }
		tasks := make([]string, apps)
		for i := range tasks {
			if err := s.CreateApp(concApp(i)); err != nil {
				t.Fatal(err)
			}
			tasks[i] = concJoin(t, s, i, user(i))
		}
		batch := &wire.DataUploadBatch{}
		for i := range tasks {
			send(concReport(tasks[i], concApp(i).ID, user(i), t0))
			up := reportWithReadings(tasks[i], concApp(i).ID, user(i), t0.Add(time.Minute), float64(i))
			up.ReportID = fmt.Sprintf("log-%d", i)
			batch.Uploads = append([]wire.DataUpload{*up}, batch.Uploads...)
		}
		send(batch)
		if n := s.Processor().Process(); n != 2*apps {
			t.Fatalf("folded %d uploads, want %d", n, 2*apps)
		}
		records, err := backend.WAL().ReadAfter(0, 1<<20, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		return records
	}
	want := logOf()
	for run := 1; run < 4; run++ {
		got := logOf()
		for i := range min(len(got), len(want)) {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("run %d: WAL record %d of %d differs from the first run's", run, i+1, len(got))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("run %d logged %d records, the first run %d", run, len(got), len(want))
		}
	}
}

// TestResumedExtractionMatchesScratch runs random fold/refresh scripts
// over all seven pipelines and requires every refresh — resuming folds
// from their marks — to upsert, for each sensor, exactly what its
// extractor computes from scratch over the oracle's canonical order: the
// same Float64bits, or no row when that extraction fails. Scripts mix
// appends with mid-run inserts and fully tied samples, grow runs across
// dozens of fold blocks, feed NaN readings and malformed samples (a
// negative window, no readings) to some sensors late in the run, and
// toggle SetRobust twice, so folds resume after a stretch of robust
// refreshes reordered their runs.
func TestResumedExtractionMatchesScratch(t *testing.T) {
	const appID, steps = "diff-app", 700
	sensors := make([]string, 0, len(featurePipelines))
	for sensor := range featurePipelines {
		sensors = append(sensors, sensor)
	}
	sort.Strings(sensors)
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := store.New()
		if err := db.PutApp(store.Application{ID: appID, Category: world.CategoryCoffee, Place: "diff-place"}); err != nil {
			t.Fatal(err)
		}
		d := NewDataProcessor(db)
		d.SetObserver(obs.NewObserver())
		robust := seed%2 == 0
		d.SetRobust(robust)
		ad := d.appData(appID)
		base := t0.UnixMilli()
		arrival := make(map[string][]feature.Sample)
		// sample draws one sample for sensor at step: mostly appends behind
		// everything so far, else an instant among the first 40 seconds
		// (a mid-run insert, often a full tie). A NaN sample has a window of
		// its own: a NaN ends a comparison as a tie, and keeping those ties
		// inside one class keeps the order a strict weak one, so "the
		// stable sort" stays defined.
		sample := func(sensor string, step int) wire.SensorSample {
			at := base + int64(40+step)*1000
			if r.Intn(10) < 3 {
				at = base + int64(r.Intn(40))*1000
			}
			smp := wire.SensorSample{AtUnixMilli: at, WindowMilli: int64(1 + r.Intn(2)), Readings: make([]float64, 1+r.Intn(3))}
			for k := range smp.Readings {
				smp.Readings[k] = float64(r.Intn(3)) + 0.5*float64(r.Intn(2))
				if r.Intn(8) == 0 {
					smp.Readings[k] = r.NormFloat64()
				}
			}
			late := step > steps*3/4 && r.Intn(40) == 0
			switch {
			case late && (sensor == "wifi" || sensor == "barometer"):
				smp.WindowMilli, smp.Readings = 7, []float64{math.NaN()}
			case late && sensor == "humidity":
				smp.WindowMilli = -1
			case late && sensor == "accelerometer":
				smp.Readings = nil
			}
			return smp
		}
		refreshes, history := 0, 0
		for step := 0; step < steps; step++ {
			if step == steps/3 || step == steps*2/3 {
				robust = !robust
				d.SetRobust(robust)
			}
			if r.Intn(4) != 0 {
				up := &wire.DataUpload{AppID: appID, UserID: "differ"}
				for _, sensor := range sensors {
					if r.Intn(3) != 0 {
						continue
					}
					series := wire.SensorSeries{Sensor: sensor}
					for n := 1 + r.Intn(3); n > 0; n-- {
						smp := sample(sensor, step)
						series.Samples = append(series.Samples, smp)
						arrival[sensor] = append(arrival[sensor], feature.Sample{
							At:       time.UnixMilli(smp.AtUnixMilli).UTC(),
							Window:   time.Duration(smp.WindowMilli) * time.Millisecond,
							Readings: smp.Readings,
						})
					}
					up.Series = append(up.Series, series)
				}
				ad.foldDecoded(up)
				continue
			}
			_, values, err := d.extractApp(appID)
			if err != nil {
				t.Fatal(err)
			}
			refreshes++
			got := make(map[string]featureValue, len(values))
			for _, v := range values {
				got[v.feature] = v
			}
			pipelines := featurePipelines
			if robust {
				pipelines = robustPipelines
			}
			want := 0
			for sensor, samples := range arrival {
				history += len(samples)
				pipeline := pipelines[sensor]
				wantV, wantErr := pipeline.extractor.Extract(canonicalizeSamplesOracle(samples))
				v, ok := got[pipeline.feature]
				if ok != (wantErr == nil) {
					t.Fatalf("seed %d step %d (robust=%v): %s upserted=%v, from scratch err=%v", seed, step, robust, pipeline.feature, ok, wantErr)
				}
				if !ok {
					continue
				}
				want++
				if math.Float64bits(v.value) != math.Float64bits(wantV) || v.samples != len(samples) {
					t.Fatalf("seed %d step %d (robust=%v): %s = %v over %d samples, from scratch %v over %d",
						seed, step, robust, pipeline.feature, v.value, v.samples, wantV, len(samples))
				}
			}
			if len(values) != want {
				t.Fatalf("seed %d step %d: %d values upserted, %d expected", seed, step, len(values), want)
			}
		}
		stepped := d.met.refolded.Value()
		if refreshes < 100 || stepped >= int64(history) {
			t.Fatalf("seed %d: %d refreshes stepped %d samples of the %d a from-scratch refresh steps", seed, refreshes, stepped, history)
		}
		t.Logf("seed %d: %d refreshes stepped %d samples, %d from scratch", seed, refreshes, stepped, history)
	}
}

// stopAfter is a context that turns cancelled after checks calls to Err.
type stopAfter struct {
	context.Context
	checks int
}

func (c *stopAfter) Err() error {
	if c.checks == 0 {
		return context.Canceled
	}
	c.checks--
	return nil
}

// TestCancelledRefreshLeavesNoAppBehind: a ProcessContext cancelled after
// its first app's refresh has already drained and folded the second app's
// upload, so the next Process — which drains nothing — must refresh it.
func TestCancelledRefreshLeavesNoAppBehind(t *testing.T) {
	db := store.New()
	apps := []string{"app-a", "app-b"}
	for i, appID := range apps {
		if err := db.PutApp(store.Application{ID: appID, Category: world.CategoryCoffee, Place: "place-" + appID}); err != nil {
			t.Fatal(err)
		}
		body, err := wire.Encode(&wire.DataUpload{AppID: appID, UserID: "u", Series: []wire.SensorSeries{{
			Sensor:  "temperature",
			Samples: []wire.SensorSample{{AtUnixMilli: t0.UnixMilli(), WindowMilli: 1000, Readings: []float64{20 + float64(i)}}},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Ingest(appID, [][]byte{body}, store.IngestOptions{Received: t0}); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDataProcessor(db)
	// One check before the drain, one before app-a's refresh; app-b's
	// check finds the context cancelled.
	if n := d.ProcessContext(&stopAfter{Context: context.Background(), checks: 2}); n != 2 {
		t.Fatalf("cancelled call folded %d uploads, want 2", n)
	}
	if _, err := db.Feature(world.CategoryCoffee, "place-app-b", "temperature"); err == nil {
		t.Fatal("the cancelled call refreshed app-b; the probe needs it skipped")
	}
	if n := d.Process(); n != 0 {
		t.Fatalf("second call folded %d uploads, want 0", n)
	}
	for i, appID := range apps {
		row, err := db.Feature(world.CategoryCoffee, "place-"+appID, "temperature")
		if err != nil || row.Value != 20+float64(i) {
			t.Fatalf("%s: temperature row %+v (%v) after the next Process", appID, row, err)
		}
	}
}
