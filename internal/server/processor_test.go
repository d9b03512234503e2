package server

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"sor/internal/feature"
	"sor/internal/stats"
	"sor/internal/store"
	"sor/internal/wire"
	"sor/internal/world"
)

// bigMean is the reference mean: the exact sum of xs over len(xs),
// rounded once by math/big.
func bigMean(xs []float64) float64 {
	sum := new(big.Float).SetPrec(4096)
	var x big.Float
	for _, v := range xs {
		sum.Add(sum, x.SetFloat64(v))
	}
	m, _ := sum.Quo(sum, new(big.Float).SetInt64(int64(len(xs)))).Float64()
	return m
}

// bigStdDev is the reference population standard deviation of xs, by
// math/big.
func bigStdDev(xs []float64) float64 {
	n := new(big.Float).SetInt64(int64(len(xs)))
	sum, squares := new(big.Float).SetPrec(4096), new(big.Float).SetPrec(4096)
	var x big.Float
	for _, v := range xs {
		x.SetFloat64(v)
		sum.Add(sum, &x)
		squares.Add(squares, new(big.Float).SetPrec(4096).Mul(&x, &x))
	}
	squares.Mul(squares, n)
	sum.Mul(sum, sum)
	v := squares.Sub(squares, sum)
	v.Quo(v, n.Mul(n, n))
	sd, _ := v.Sqrt(v).Float64()
	return sd
}

// referenceFeature is a sensor's feature computed with math/big from its
// samples: each window's observation as the extractor defines it (a
// reading, a window's standard deviation, mean or RMS level), then their
// exact mean — or, for altitude change, their exact spread; robust, the
// exact mean of the readings the MAD filter keeps.
func referenceFeature(t *testing.T, sensor string, robust bool, samples []wire.SensorSample) float64 {
	t.Helper()
	var obs []float64
	for _, smp := range samples {
		var o float64
		var err error
		switch sensor {
		case "microphone":
			o, err = stats.RMS(smp.Readings)
		case "accelerometer":
			o, err = stats.StdDev(smp.Readings)
		case "barometer":
			o, err = stats.Mean(smp.Readings)
		default:
			obs = append(obs, smp.Readings...)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, o)
	}
	_, mad := robustPipelines[sensor].(feature.MADMeanExtractor)
	switch {
	case sensor == "barometer":
		return bigStdDev(obs)
	case robust && mad:
		kept, _, err := feature.MADFilter(obs, 3)
		if err != nil {
			t.Fatal(err)
		}
		return bigMean(kept)
	}
	return bigMean(obs)
}

// canonicalizeSamplesOracle is a copy of the arrival order, stable-sorted
// by instant, window, reading count, then readings: the order features
// were once folded in. Exact folds have no order, so every arrival order
// must give the features of this one.
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

// featureSample is smp as the extractors take it.
func featureSample(smp wire.SensorSample) feature.Sample {
	return feature.Sample{
		At:       time.UnixMilli(smp.AtUnixMilli).UTC(),
		Window:   time.Duration(smp.WindowMilli) * time.Millisecond,
		Readings: smp.Readings,
	}
}

// TestFoldOrderIsStableSortOfArrival folds one set of uploads over all
// seven pipelines in random arrival permutations, each as a trickle (a
// refresh every few uploads) and as one backlog (what recovery's refold
// is), with plain and with robust extraction. Every run of a mode must
// upsert bit-identical rows, each equal to its extractor over the stable
// sort of that run's arrival order and within 2 ulp of its math/big
// reference. Instants, windows and readings mix small sets, so equal
// samples are common, with wide draws around large offsets, so a left
// fold's rounding would show.
func TestFoldOrderIsStableSortOfArrival(t *testing.T) {
	const appID = "fold-app"
	sensors := make([]string, 0, len(featurePipelines))
	for sensor := range featurePipelines {
		sensors = append(sensors, sensor)
	}
	sort.Strings(sensors)
	r := rand.New(rand.NewSource(7))
	base := t0.UnixMilli()
	uploads := make([]*wire.DataUpload, 80)
	bySensor := make(map[string][]wire.SensorSample)
	for u := range uploads {
		up := &wire.DataUpload{AppID: appID, UserID: "folder"}
		for _, sensor := range sensors {
			if r.Intn(2) == 0 {
				continue
			}
			series := wire.SensorSeries{Sensor: sensor}
			for n := 1 + r.Intn(3); n > 0; n-- {
				readings := make([]float64, 1+r.Intn(4))
				for k := range readings {
					readings[k] = float64(r.Intn(3)) + 0.1*float64(r.Intn(2))
					if r.Intn(2) == 0 {
						readings[k] = 1e3*float64(1+r.Intn(5)) + r.NormFloat64()*math.Pow(10, float64(r.Intn(8)-4))
					}
				}
				series.Samples = append(series.Samples, wire.SensorSample{
					AtUnixMilli: base + int64(r.Intn(6))*1000,
					WindowMilli: int64(1+r.Intn(2)) * 1000,
					Readings:    readings,
				})
			}
			bySensor[sensor] = append(bySensor[sensor], series.Samples...)
			up.Series = append(up.Series, series)
		}
		uploads[u] = up
	}

	for _, robust := range []bool{false, true} {
		pipelines := featurePipelines
		if robust {
			pipelines = robustPipelines
		}
		var want []store.FeatureRow
		for run := 0; run < 8; run++ {
			order := r.Perm(len(uploads))
			trickle := run%2 == 0
			db := store.New()
			if err := db.PutApp(store.Application{ID: appID, Category: world.CategoryCoffee, Place: "fold-place"}); err != nil {
				t.Fatal(err)
			}
			d := NewDataProcessor(db, robust)
			d.SetNow(func() time.Time { return t0 })
			arrival := make(map[string][]feature.Sample)
			for n, u := range order {
				body, err := wire.Encode(uploads[u])
				if err != nil {
					t.Fatal(err)
				}
				for _, series := range uploads[u].Series {
					for _, smp := range series.Samples {
						arrival[series.Sensor] = append(arrival[series.Sensor], featureSample(smp))
					}
				}
				if _, err := db.Ingest(appID, [][]byte{body}, store.IngestOptions{Received: t0}); err != nil {
					t.Fatal(err)
				}
				if trickle && n%3 == 0 {
					d.Process()
				}
			}
			d.Process()

			what := fmt.Sprintf("robust=%v run %d (trickle=%v)", robust, run, trickle)
			rows := db.FeaturesByCategory(world.CategoryCoffee)
			if len(rows) != len(sensors) {
				t.Fatalf("%s: %d feature rows, want %d", what, len(rows), len(sensors))
			}
			for _, sensor := range sensors {
				pipeline := pipelines[sensor]
				row, err := db.Feature(world.CategoryCoffee, "fold-place", pipeline.Name())
				v, oracleErr := pipeline.Extract(canonicalizeSamplesOracle(arrival[sensor]))
				if err != nil || oracleErr != nil || math.Float64bits(row.Value) != math.Float64bits(v) {
					t.Fatalf("%s: %s = %v (%v), over the stable sort of arrival %v (%v)", what, pipeline.Name(), row.Value, err, v, oracleErr)
				}
			}
			if want != nil {
				for i, row := range rows {
					if row.Feature != want[i].Feature || math.Float64bits(row.Value) != math.Float64bits(want[i].Value) || row.Samples != want[i].Samples {
						t.Fatalf("%s: row %+v, first run had %+v", what, row, want[i])
					}
				}
				continue
			}
			want = rows
			for _, sensor := range sensors {
				feat := featurePipelines[sensor].Name()
				ref := referenceFeature(t, sensor, robust, bySensor[sensor])
				row, err := db.Feature(world.CategoryCoffee, "fold-place", feat)
				if err != nil || row.Samples != len(bySensor[sensor]) || ulps(row.Value, ref) > 2 {
					t.Fatalf("%s: %s = %v over %d samples (%v), math/big %v over %d", what, feat, row.Value, row.Samples, err, ref, len(bySensor[sensor]))
				}
			}
		}
	}
}

// ulps is the distance between a and b in units in the last place.
func ulps(a, b float64) uint64 {
	ordered := func(x float64) int64 {
		if b := int64(math.Float64bits(x)); b >= 0 {
			return b
		} else {
			return math.MinInt64 - b
		}
	}
	d := ordered(a) - ordered(b)
	if d < 0 {
		d = -d
	}
	return uint64(d)
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
// over all seven pipelines, plain and robust, and requires every refresh —
// a read of the accumulators its folds stepped — to upsert, for each
// sensor, exactly what its extractor computes from scratch over the
// well-formed samples so far: the same Float64bits over the same sample
// count, or no row when that extraction fails. Scripts mix appends with
// mid-run inserts and fully tied samples, and late in the run feed NaN
// readings and malformed samples (a negative window, no readings) to some
// sensors, which each fold must drop and count as a decode error.
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
		robust := seed%2 == 0
		pipelines := featurePipelines
		if robust {
			pipelines = robustPipelines
		}
		d := NewDataProcessor(db, robust)
		ad := d.appData(appID)
		base := t0.UnixMilli()
		arrival := make(map[string][]feature.Sample)
		// sample draws one sample for sensor at step: mostly appends behind
		// everything so far, else an instant among the first 40 seconds
		// (a mid-run insert, often a full tie); bad reports whether it was
		// spoiled.
		sample := func(sensor string, step int) (smp wire.SensorSample, bad bool) {
			at := base + int64(40+step)*1000
			if r.Intn(10) < 3 {
				at = base + int64(r.Intn(40))*1000
			}
			smp = wire.SensorSample{AtUnixMilli: at, WindowMilli: int64(1 + r.Intn(2)), Readings: make([]float64, 1+r.Intn(3))}
			for k := range smp.Readings {
				smp.Readings[k] = float64(r.Intn(3)) + 0.5*float64(r.Intn(2))
				if r.Intn(8) == 0 {
					smp.Readings[k] = r.NormFloat64()
				}
			}
			if step <= steps*3/4 || r.Intn(40) != 0 {
				return smp, false
			}
			switch sensor {
			case "wifi", "barometer":
				smp.Readings[0] = math.NaN()
			case "humidity":
				smp.WindowMilli = -1
			case "accelerometer":
				smp.Readings = nil
			default:
				return smp, false
			}
			return smp, true
		}
		refreshes, spoiled := 0, 0
		for step := 0; step < steps; step++ {
			if r.Intn(4) != 0 {
				up := &wire.DataUpload{AppID: appID, UserID: "differ"}
				for _, sensor := range sensors {
					if r.Intn(3) != 0 {
						continue
					}
					series := wire.SensorSeries{Sensor: sensor}
					for n := 1 + r.Intn(3); n > 0; n-- {
						smp, bad := sample(sensor, step)
						series.Samples = append(series.Samples, smp)
						if bad {
							spoiled++
							continue
						}
						arrival[sensor] = append(arrival[sensor], featureSample(smp))
					}
					up.Series = append(up.Series, series)
				}
				d.foldDecoded(ad, up)
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
			want := 0
			for sensor, samples := range arrival {
				pipeline := pipelines[sensor]
				wantV, wantErr := pipeline.Extract(samples)
				v, ok := got[pipeline.Name()]
				if ok != (wantErr == nil) {
					t.Fatalf("seed %d step %d (robust=%v): %s upserted=%v, from scratch err=%v", seed, step, robust, pipeline.Name(), ok, wantErr)
				}
				if !ok {
					continue
				}
				want++
				if math.Float64bits(v.value) != math.Float64bits(wantV) || v.samples != len(samples) {
					t.Fatalf("seed %d step %d (robust=%v): %s = %v over %d samples, from scratch %v over %d",
						seed, step, robust, pipeline.Name(), v.value, v.samples, wantV, len(samples))
				}
			}
			if len(values) != want {
				t.Fatalf("seed %d step %d: %d values upserted, %d expected", seed, step, len(values), want)
			}
		}
		if _, decodeErrors := d.Stats(); refreshes < 100 || spoiled == 0 || decodeErrors != spoiled {
			t.Fatalf("seed %d: %d refreshes, %d decode errors for %d spoiled samples", seed, refreshes, decodeErrors, spoiled)
		}
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
	d := NewDataProcessor(db, false)
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

// TestMalformedReportRefusedAtIngest: a report with a non-finite reading,
// a sample with no readings or a negative window, or a non-finite track
// fix is refused with a 4xx before anything is stored — alone, and inside
// a batch, where the well-formed reports beside it still land.
func TestMalformedReportRefusedAtIngest(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	if err := s.CreateApp(concApp(0)); err != nil {
		t.Fatal(err)
	}
	task := concJoin(t, s, 0, "probe-user")
	for name, spoil := range map[string]func(*wire.DataUpload){
		"NaN reading":     func(up *wire.DataUpload) { up.Series[0].Samples[0].Readings[1] = math.NaN() },
		"+Inf reading":    func(up *wire.DataUpload) { up.Series[1].Samples[0].Readings[0] = math.Inf(1) },
		"no readings":     func(up *wire.DataUpload) { up.Series[2].Samples[0].Readings = nil },
		"negative window": func(up *wire.DataUpload) { up.Series[3].Samples[0].WindowMilli = -1 },
		"non-finite fix":  func(up *wire.DataUpload) { up.Track = []wire.GeoPoint{{AtUnixMilli: t0.UnixMilli(), Lat: math.NaN()}} },
	} {
		pending := s.DB().PendingUploads()
		bad := concReport(task, concApp(0).ID, "probe-user", t0)
		bad.ReportID = "bad-" + name
		spoil(bad)
		resp, err := h(nil, bad)
		if err != nil {
			t.Fatal(err)
		}
		if ack := resp.(*wire.Ack); ack.Code < 400 || ack.Code >= 500 {
			t.Fatalf("%s: single upload answered %+v, want a 4xx", name, ack)
		}
		good := concReport(task, concApp(0).ID, "probe-user", t0)
		good.ReportID = "good-" + name
		resp, err = h(nil, &wire.DataUploadBatch{Uploads: []wire.DataUpload{*bad, *good}})
		if err != nil {
			t.Fatal(err)
		}
		if ack := resp.(*wire.Ack); ack.Code != 207 {
			t.Fatalf("%s: batch with one bad report answered %+v, want 207", name, ack)
		}
		if got := s.DB().PendingUploads() - pending; got != 1 {
			t.Fatalf("%s: %d uploads stored, want only the good one", name, got)
		}
	}
}

// TestMalformedStoredSampleDropped: bodies stored before ingest checked
// them — or replicated from a node that did not — fold without the
// malformed samples: a NaN reading, a sample with no readings, one with a
// negative window, and a microphone reading of 1e200, whose RMS level
// would overflow, are each dropped and counted as a decode error, so the
// place's features stay finite, later uploads still move them, and the
// category still ranks.
func TestMalformedStoredSampleDropped(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	for i := 0; i < 2; i++ {
		if err := s.CreateApp(concApp(i)); err != nil {
			t.Fatal(err)
		}
		user := fmt.Sprintf("drop-user-%d", i)
		resp, err := h(nil, reportWithReadings(concJoin(t, s, i, user), concApp(i).ID, user, t0, 20))
		if err != nil || resp.(*wire.Ack).Code != 200 {
			t.Fatalf("good report for app %d: %+v (%v)", i, resp, err)
		}
	}
	s.Processor().Process()
	put := func(up *wire.DataUpload) {
		body, err := wire.Encode(up)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.DB().Ingest(up.AppID, [][]byte{body}, store.IngestOptions{Received: t0}); err != nil {
			t.Fatal(err)
		}
	}
	spoiled := reportWithReadings("", concApp(0).ID, "drop-user-0", t0.Add(time.Minute), 30)
	spoiled.Series[0].Samples = append(spoiled.Series[0].Samples,
		wire.SensorSample{AtUnixMilli: t0.UnixMilli(), WindowMilli: 5000, Readings: []float64{math.NaN()}},
		wire.SensorSample{AtUnixMilli: t0.UnixMilli(), WindowMilli: 5000},
		wire.SensorSample{AtUnixMilli: t0.UnixMilli(), WindowMilli: -5000, Readings: []float64{99}})
	spoiled.Series[2].Samples = append(spoiled.Series[2].Samples,
		wire.SensorSample{AtUnixMilli: t0.UnixMilli(), WindowMilli: 5000, Readings: []float64{1e200}})
	put(spoiled)
	put(reportWithReadings("", concApp(0).ID, "drop-user-0", t0.Add(2*time.Minute), 40))
	s.Processor().Process()
	if _, decodeErrors := s.Processor().Stats(); decodeErrors != 4 {
		t.Fatalf("%d decode errors, want the 4 malformed samples", decodeErrors)
	}
	for feat, want := range map[string]float64{"temperature": 30, "noise": 30} {
		row, err := s.DB().Feature(world.CategoryCoffee, concApp(0).Place, feat)
		if err != nil || row.Value != want || row.Samples != 3 {
			t.Fatalf("%s row %+v (%v), want %v over 3 samples", feat, row, err, want)
		}
	}
	rankCoffee(t, s)
}
