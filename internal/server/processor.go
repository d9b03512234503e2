package server

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sor/internal/feature"
	"sor/internal/geo"
	"sor/internal/obs"
	"sor/internal/store"
	"sor/internal/wire"
)

// DataProcessor periodically drains raw binary uploads from the database,
// decodes them, accumulates samples per application, and recomputes the
// humanly understandable feature values (§IV-A). Decoded samples are kept
// in canonical order per application and sensor (see sampleRun), so each
// refresh extracts from the whole history without re-sorting it.
//
// Accumulators are per-application, each behind its own lock, so two
// concurrent Process calls (or a Process racing a feature refresh) only
// contend when they touch the same app.
type DataProcessor struct {
	db     *store.Store
	robust atomic.Bool
	now    func() time.Time // stamps FeatureRow.Updated; injectable

	mu    sync.RWMutex // guards the byApp map only, not the appData within
	byApp map[string]*appData

	// processed counts decoded uploads; decodeErrors counts blobs that
	// failed to decode (they are dropped with accounting, not retried).
	processed    atomic.Int64
	decodeErrors atomic.Int64

	obsv *obs.Observer
	met  processorMetrics
}

// processorMetrics are the processor's constant-label handles (all nil
// without an observer).
type processorMetrics struct {
	processed  *obs.Counter
	decodeErrs *obs.Counter
	refreshes  *obs.Counter
	processMs  *obs.Histogram
}

// appData is one application's decoded-sample accumulator. Its lock
// serializes folds and refreshes for this app only.
type appData struct {
	mu     sync.Mutex
	scalar map[string]*sampleRun // sensor name -> samples
	// track groups GPS fixes into bursts keyed by (user, timestamp): all
	// fixes one phone recorded in one measurement form one burst, so the
	// curvature estimate never mixes different walkers' traces.
	track map[burstKey]*feature.GeoSample
}

type burstKey struct {
	user string
	at   int64
}

// NewDataProcessor builds a processor over the store.
func NewDataProcessor(db *store.Store) *DataProcessor {
	return &DataProcessor{db: db, now: time.Now, byApp: make(map[string]*appData)}
}

// SetNow substitutes the clock stamping FeatureRow.Updated (the server
// passes its own injected clock through, so a simulation's feature rows
// carry virtual timestamps and same-seed runs match byte for byte).
// Call before the first Process; not synchronized against processing.
func (d *DataProcessor) SetNow(now func() time.Time) {
	if now != nil {
		d.now = now
	}
}

// SetRobust switches between the plain §IV-A extractors and the
// MAD-outlier-rejecting variants.
func (d *DataProcessor) SetRobust(robust bool) {
	d.robust.Store(robust)
}

// SetObserver instruments the processor: fold counts and durations
// become metrics, and each folded upload that arrived with a trace
// RequestID records a "processor.fold" span under that id. Call before
// the first Process; not synchronized against concurrent processing.
func (d *DataProcessor) SetObserver(o *obs.Observer) {
	d.obsv = o
	reg := o.Metrics()
	d.met = processorMetrics{
		processed:  reg.Counter("sor_processor_uploads_total"),
		decodeErrs: reg.Counter("sor_processor_decode_errors_total"),
		refreshes:  reg.Counter("sor_processor_refreshes_total"),
		processMs:  reg.LatencyHistogram("sor_processor_process_ms"),
	}
}

// Stats reports processing counters.
func (d *DataProcessor) Stats() (processed, decodeErrors int) {
	return int(d.processed.Load()), int(d.decodeErrors.Load())
}

// appData returns the app's accumulator, creating it on first use.
func (d *DataProcessor) appData(appID string) *appData {
	d.mu.RLock()
	ad := d.byApp[appID]
	d.mu.RUnlock()
	if ad != nil {
		return ad
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if ad = d.byApp[appID]; ad == nil {
		ad = &appData{
			scalar: make(map[string]*sampleRun),
			track:  make(map[burstKey]*feature.GeoSample),
		}
		d.byApp[appID] = ad
	}
	return ad
}

// Process drains pending uploads and refreshes feature rows. It returns
// the number of uploads folded in. Safe for concurrent use.
func (d *DataProcessor) Process() int {
	return d.ProcessContext(context.Background())
}

// ProcessContext is Process honoring cancellation: the context is
// checked before the drain and between per-app feature refreshes. Once
// blobs are drained they are always folded — aborting mid-fold would
// drop data the store no longer holds, breaking exactly-once — so
// cancellation can only stop work that has not yet been claimed.
func (d *DataProcessor) ProcessContext(ctx context.Context) int {
	if ctx.Err() != nil {
		return 0
	}
	t0 := time.Now()
	uploads := d.db.DrainUploads()
	if len(uploads) == 0 {
		return 0
	}
	touched := make(map[string]bool)
	var apps []string
	for _, raw := range uploads {
		// With tracing on, each upload that arrived under a RequestID gets
		// a fold span carrying the same id the client minted — the final
		// hop of the ingest trace.
		var span *obs.Span
		if d.obsv != nil && raw.RequestID != "" {
			span = d.obsv.StartSpanID(obs.RequestID(raw.RequestID), "processor.fold")
			span.Annotate("app", raw.AppID)
		}
		if up := d.decode(raw); up != nil {
			d.appData(up.AppID).foldDecoded(up)
			d.countFolded(1)
			if !touched[up.AppID] {
				touched[up.AppID] = true
				apps = append(apps, up.AppID)
			}
		}
		span.End()
	}

	// Refresh in app-ID order, not the map's: each upsert is a WAL record,
	// and the same fold must log the same bytes in the same order.
	slices.Sort(apps)
	for _, appID := range apps {
		if ctx.Err() != nil {
			break
		}
		// Refresh failures for one app must not block the others.
		_ = d.refreshApp(appID)
		d.met.refreshes.Inc()
	}
	d.met.processMs.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	return len(uploads)
}

// decode returns the upload one stored blob carries. A blob that does not
// decode, is not a DataUpload, or names another app than the one it was
// stored under is counted as a decode error and dropped, never retried.
// Refusing the last case keeps every app's samples inside its own rows,
// which is what lets recovery fold each app on its own worker.
func (d *DataProcessor) decode(raw store.RawUpload) *wire.DataUpload {
	msg, err := wire.Decode(raw.Body)
	up, ok := msg.(*wire.DataUpload)
	if err != nil || !ok || up.AppID != raw.AppID {
		d.decodeErrors.Add(1)
		d.met.decodeErrs.Inc()
		return nil
	}
	return up
}

// countFolded accounts for n uploads folded into accumulators.
func (d *DataProcessor) countFolded(n int) {
	d.processed.Add(int64(n))
	d.met.processed.Add(int64(n))
}

// foldDecoded accumulates one decoded upload's samples into the app's
// runs and bursts. The fold owns up from here on: its reading slices move
// into the runs uncopied.
func (ad *appData) foldDecoded(up *wire.DataUpload) {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	for _, series := range up.Series {
		run := ad.scalar[series.Sensor]
		if run == nil {
			run = &sampleRun{}
			ad.scalar[series.Sensor] = run
		}
		for _, smp := range series.Samples {
			run.samples = append(run.samples, feature.Sample{
				At:       time.UnixMilli(smp.AtUnixMilli).UTC(),
				Window:   time.Duration(smp.WindowMilli) * time.Millisecond,
				Readings: smp.Readings,
			})
		}
	}
	for _, gp := range up.Track {
		key := burstKey{user: up.UserID, at: gp.AtUnixMilli}
		burst, ok := ad.track[key]
		if !ok {
			burst = &feature.GeoSample{At: time.UnixMilli(gp.AtUnixMilli).UTC()}
			ad.track[key] = burst
		}
		burst.Points = append(burst.Points, geo.Point{Lat: gp.Lat, Lon: gp.Lon, Alt: gp.Alt})
	}
}

// sensorFeature maps an upload series name to the feature it produces and
// the extractor computing it.
type sensorFeature struct {
	feature   string
	extractor feature.Extractor
}

// featurePipelines maps sensor series names to extraction pipelines
// (§IV-A's per-feature methods).
var featurePipelines = map[string]sensorFeature{
	"temperature":   {"temperature", feature.MeanExtractor{Feature: "temperature"}},
	"humidity":      {"humidity", feature.MeanExtractor{Feature: "humidity"}},
	"light":         {"brightness", feature.MeanExtractor{Feature: "brightness"}},
	"wifi":          {"wifi", feature.MeanExtractor{Feature: "wifi"}},
	"microphone":    {"noise", feature.NoiseRMSExtractor{}},
	"accelerometer": {"roughness", feature.RoughnessExtractor{}},
	"barometer":     {"altitude change", feature.AltitudeChangeExtractor{}},
}

// robustPipelines swaps the location-estimating extractors for their
// MAD-outlier-rejecting variants; roughness/altitude/noise keep their
// spread semantics. Enabled via Config.RobustExtraction — the data-quality
// extension quantified in EXPERIMENTS.md.
var robustPipelines = map[string]sensorFeature{
	"temperature":   {"temperature", feature.MADMeanExtractor{Feature: "temperature"}},
	"humidity":      {"humidity", feature.MADMeanExtractor{Feature: "humidity"}},
	"light":         {"brightness", feature.MADMeanExtractor{Feature: "brightness"}},
	"wifi":          {"wifi", feature.MADMeanExtractor{Feature: "wifi"}},
	"microphone":    {"noise", feature.NoiseRMSExtractor{}},
	"accelerometer": {"roughness", feature.RoughnessExtractor{}},
	"barometer":     {"altitude change", feature.AltitudeChangeExtractor{}},
}

// sampleRun is one sensor's sample history in an order independent of
// ingest arrival order. Float accumulation is not associative, so feeding
// extractors in drain order would make feature values depend on which
// retransmission won a race; a canonical order makes the whole pipeline a
// pure function of the sample *set*, which is what lets the chaos suite
// demand byte-identical features from a faulty and a fault-free run.
//
// samples[:sorted] is canonical — the stable sort of its arrival order
// under compareSamples; a fold appends behind it in arrival order, and the
// next refresh sorts that tail and merges it in. A trickle therefore costs
// its own samples (plus the elements they displace), and recovery's
// refold of the whole history is one sort, never an insertion per sample.
type sampleRun struct {
	samples []feature.Sample
	sorted  int
}

// compareSamples is the canonical sample order: instant, window, reading
// count, then readings elementwise. A reading pair that is neither equal
// nor ordered (a NaN) ends the comparison as a tie.
func compareSamples(a, b feature.Sample) int {
	if c := a.At.Compare(b.At); c != 0 {
		return c
	}
	if a.Window != b.Window {
		return cmp.Compare(a.Window, b.Window)
	}
	if len(a.Readings) != len(b.Readings) {
		return cmp.Compare(len(a.Readings), len(b.Readings))
	}
	for k, x := range a.Readings {
		if y := b.Readings[k]; x != y {
			switch {
			case x < y:
				return -1
			case y < x:
				return 1
			}
			return 0
		}
	}
	return 0
}

// canonical brings the whole history into canonical order, in place, and
// returns it. Merging the sorted tail behind the sorted prefix, prefix
// first on ties, is the stable sort of the full arrival order. The merge
// runs from the back: each tail sample is placed behind the prefix samples
// not greater than it, and the block it displaces moves in one copy.
func (r *sampleRun) canonical() []feature.Sample {
	s, k := r.samples, r.sorted
	if k == len(s) {
		return s
	}
	slices.SortStableFunc(s[k:], compareSamples)
	if k > 0 && compareSamples(s[k], s[k-1]) < 0 {
		tail := slices.Clone(s[k:])
		for j := len(tail) - 1; j >= 0; j-- {
			// s[pos:k] are the prefix samples still unplaced that sort
			// after tail[j]; tail[:j+1] all precede them.
			pos := sort.Search(k, func(i int) bool { return compareSamples(tail[j], s[i]) < 0 })
			copy(s[pos+j+1:], s[pos:k])
			s[pos+j] = tail[j]
			k = pos
		}
	}
	r.sorted = len(s)
	return s
}

// featureValue is one extracted feature of one application.
type featureValue struct {
	feature string
	value   float64
	samples int
}

// refreshApp recomputes every feature for one application.
func (d *DataProcessor) refreshApp(appID string) error {
	app, values, err := d.extractApp(appID)
	if err != nil {
		return err
	}
	return d.upsertFeatures(app, values)
}

// extractApp computes every feature of one application from its folded
// samples, in feature order. It writes nothing, so extractions of
// different apps may run in parallel.
func (d *DataProcessor) extractApp(appID string) (store.Application, []featureValue, error) {
	app, err := d.db.App(appID)
	if err != nil {
		return app, nil, fmt.Errorf("server: processing upload for unknown app %s: %w", appID, err)
	}
	d.mu.RLock()
	ad := d.byApp[appID]
	d.mu.RUnlock()
	if ad == nil {
		return app, nil, nil
	}
	pipelines := featurePipelines
	if d.robust.Load() {
		pipelines = robustPipelines
	}
	// The scalar extractors run under the app lock: canonical reorders the
	// run in place, so no header snapshot of it would stay valid against
	// the next refresh, and an extraction is one pass of adds over the run.
	// Bursts are snapshotted instead — their points are never mutated after
	// append — and the curvature estimate runs outside the lock.
	ad.mu.Lock()
	values := make([]featureValue, 0, len(ad.scalar)+1)
	for sensor, run := range ad.scalar {
		pipeline, ok := pipelines[sensor]
		if !ok || len(run.samples) == 0 {
			continue
		}
		value, err := pipeline.extractor.Extract(run.canonical())
		if err != nil {
			continue
		}
		values = append(values, featureValue{pipeline.feature, value, len(run.samples)})
	}
	type keyedBurst struct {
		key burstKey
		gs  feature.GeoSample
	}
	bursts := make([]keyedBurst, 0, len(ad.track))
	for key, burst := range ad.track {
		bursts = append(bursts, keyedBurst{key: key, gs: feature.GeoSample{
			At:     burst.At,
			Points: burst.Points[:len(burst.Points):len(burst.Points)],
		}})
	}
	ad.mu.Unlock()
	// Canonical burst order: (instant, user). Points inside one burst keep
	// their recorded sequence — that is the walker's path; only the order
	// *between* bursts is arrival-dependent and must be normalized.
	sort.Slice(bursts, func(i, j int) bool {
		if bursts[i].key.at != bursts[j].key.at {
			return bursts[i].key.at < bursts[j].key.at
		}
		return bursts[i].key.user < bursts[j].key.user
	})
	if len(bursts) > 0 {
		track := make([]feature.GeoSample, len(bursts))
		for i, kb := range bursts {
			track[i] = kb.gs
		}
		if curv, err := feature.BurstCurvature(track); err == nil {
			values = append(values, featureValue{"curvature", curv, len(track)})
		}
	}
	// Feature order, not the sensor map's: each upsert is a WAL record, and
	// a replayed experiment must log the same bytes in the same order.
	slices.SortFunc(values, func(a, b featureValue) int { return cmp.Compare(a.feature, b.feature) })
	return app, values, nil
}

// upsertFeatures writes one application's extracted features, stamped
// with one clock reading. Each row is a WAL record on durable stores.
func (d *DataProcessor) upsertFeatures(app store.Application, values []featureValue) error {
	now := d.now().UTC()
	for _, v := range values {
		if err := d.db.UpsertFeature(store.FeatureRow{
			Category: app.Category,
			Place:    app.Place,
			Feature:  v.feature,
			Value:    v.value,
			Samples:  v.samples,
			Updated:  now,
		}); err != nil {
			return err
		}
	}
	return nil
}
