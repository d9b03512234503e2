package server

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"sor/internal/feature"
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
			if got.sorted != len(got.samples) {
				t.Fatalf("%s: %s left %d of %d samples unsorted after a refresh", what, sensor, len(got.samples)-got.sorted, len(got.samples))
			}
			if oracle := canonicalizeSamplesOracle(samples); !reflect.DeepEqual(got.samples, oracle) {
				t.Fatalf("%s: %s history is not the stable sort of its arrival order\n got %v\nwant %v", what, sensor, got.samples, oracle)
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
