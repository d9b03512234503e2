package server

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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
// humanly understandable feature values (§IV-A). Each decoded sample is
// stepped into its (application, sensor) accumulator as it is folded, and
// a refresh only reads the accumulators, so a sample costs its own
// readings whenever it arrives.
//
// Accumulators are per-application, each behind its own lock, so two
// concurrent Process calls (or a Process racing a feature refresh) only
// contend when they touch the same app.
type DataProcessor struct {
	db        *store.Store
	pipelines map[string]feature.Fold // plain or robust, fixed at construction
	now       func() time.Time        // stamps FeatureRow.Updated; injectable

	mu    sync.RWMutex // guards the byApp map only, not the appData within
	byApp map[string]*appData

	// unrefreshed holds the apps folded into but not refreshed since: a
	// cancelled ProcessContext leaves them here, and the next Process
	// refreshes them even when it drains nothing.
	unrefreshedMu sync.Mutex
	unrefreshed   map[string]bool

	// processed counts decoded uploads; decodeErrors counts blobs that
	// failed to decode and the malformed samples and fixes of those that
	// did (they are dropped with accounting, not retried).
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
	scalar map[string]*feature.Acc // sensor name -> its pipeline's state
	// track groups GPS fixes into bursts keyed by (user, timestamp): all
	// fixes one phone recorded in one measurement form one burst, so the
	// curvature estimate never mixes different walkers' traces.
	track map[burstKey][]geo.Point
}

type burstKey struct {
	user string
	at   int64
}

// NewDataProcessor builds a processor over the store, running the plain
// §IV-A extractors or, when robust, the MAD-outlier-rejecting variants.
func NewDataProcessor(db *store.Store, robust bool) *DataProcessor {
	pipelines := featurePipelines
	if robust {
		pipelines = robustPipelines
	}
	return &DataProcessor{db: db, pipelines: pipelines, now: time.Now, byApp: make(map[string]*appData), unrefreshed: make(map[string]bool)}
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
			scalar: make(map[string]*feature.Acc),
			track:  make(map[burstKey][]geo.Point),
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
// cancellation can only stop work that has not yet been claimed. An app
// whose refresh the cancellation skipped stays marked, and the next call
// refreshes it.
func (d *DataProcessor) ProcessContext(ctx context.Context) int {
	if ctx.Err() != nil {
		return 0
	}
	t0 := time.Now()
	uploads := d.db.DrainUploads()
	var folded []string
	var up wire.DataUpload // decode scratch, reused across the drain
	for _, raw := range uploads {
		// With tracing on, each upload that arrived under a RequestID gets
		// a fold span carrying the same id the client minted — the final
		// hop of the ingest trace.
		var span *obs.Span
		if d.obsv != nil && raw.RequestID != "" {
			span = d.obsv.StartSpanID(obs.RequestID(raw.RequestID), "processor.fold")
			span.Annotate("app", raw.AppID)
		}
		if d.decode(raw, &up) {
			d.foldDecoded(d.appData(up.AppID), &up)
			d.countFolded(1)
			folded = append(folded, up.AppID)
		}
		span.End()
	}

	// Refresh in app-ID order, not the map's: each upsert is a WAL record,
	// and the same fold must log the same bytes in the same order.
	apps := d.markUnrefreshed(folded)
	if len(uploads) == 0 && len(apps) == 0 {
		return 0
	}
	for _, appID := range apps {
		if ctx.Err() != nil {
			break
		}
		if !d.claimRefresh(appID) {
			continue // a concurrent call refreshed it after our folds
		}
		// Refresh failures for one app must not block the others.
		_ = d.refreshApp(appID)
		d.met.refreshes.Inc()
	}
	d.met.processMs.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	return len(uploads)
}

// markUnrefreshed marks the folded apps and returns every marked app,
// sorted.
func (d *DataProcessor) markUnrefreshed(folded []string) []string {
	d.unrefreshedMu.Lock()
	defer d.unrefreshedMu.Unlock()
	for _, appID := range folded {
		d.unrefreshed[appID] = true
	}
	if len(d.unrefreshed) == 0 {
		return nil
	}
	apps := make([]string, 0, len(d.unrefreshed))
	for appID := range d.unrefreshed {
		apps = append(apps, appID)
	}
	slices.Sort(apps)
	return apps
}

// claimRefresh unmarks appID and reports whether it was marked. The mark
// goes before the refresh runs, so a fold landing during the refresh marks
// the app again.
func (d *DataProcessor) claimRefresh(appID string) bool {
	d.unrefreshedMu.Lock()
	defer d.unrefreshedMu.Unlock()
	marked := d.unrefreshed[appID]
	delete(d.unrefreshed, appID)
	return marked
}

// decode decodes one stored blob into up, reusing up's buffers, and
// reports whether it carries an upload to fold. A blob that does not
// decode, is not a DataUpload, or names another app than the one it was
// stored under is counted as a decode error and dropped, never retried.
// Refusing the last case keeps every app's samples inside its own rows,
// which is what lets recovery fold each app on its own worker.
func (d *DataProcessor) decode(raw store.RawUpload, up *wire.DataUpload) bool {
	if err := wire.DecodeUpload(raw.Body, up); err != nil || up.AppID != raw.AppID {
		d.countDecodeErrors(1)
		return false
	}
	return true
}

// countDecodeErrors accounts for n dropped blobs, samples or fixes.
func (d *DataProcessor) countDecodeErrors(n int) {
	d.decodeErrors.Add(int64(n))
	d.met.decodeErrs.Add(int64(n))
}

// countFolded accounts for n uploads folded into accumulators.
func (d *DataProcessor) countFolded(n int) {
	d.processed.Add(int64(n))
	d.met.processed.Add(int64(n))
}

// foldDecoded steps one decoded upload's samples into the app's
// accumulators and appends its track fixes to their bursts. A sample its
// fold's Step refuses, or a fix that is not finite — a body stored or
// replicated before ingest checked it — is dropped and counted as a
// decode error. It keeps no slice of up, so the caller may decode the next
// upload into the same message.
func (d *DataProcessor) foldDecoded(ad *appData, up *wire.DataUpload) {
	dropped := 0
	ad.mu.Lock()
	for _, series := range up.Series {
		fold, ok := d.pipelines[series.Sensor]
		if !ok {
			continue // no feature reads this sensor
		}
		acc := ad.scalar[series.Sensor]
		if acc == nil {
			acc = new(feature.Acc)
			ad.scalar[series.Sensor] = acc
		}
		for _, smp := range series.Samples {
			if fold.Step(acc, time.Duration(smp.WindowMilli)*time.Millisecond, smp.Readings) != nil {
				dropped++
			}
		}
	}
	for _, gp := range up.Track {
		if checkFix(gp) != nil {
			dropped++
			continue
		}
		key := burstKey{user: up.UserID, at: gp.AtUnixMilli}
		ad.track[key] = append(ad.track[key], geo.Point{Lat: gp.Lat, Lon: gp.Lon, Alt: gp.Alt})
	}
	ad.mu.Unlock()
	if dropped > 0 {
		d.countDecodeErrors(dropped)
	}
}

// checkUpload is ingest's half of the sample rule: it refuses a report
// with a sample feature.Validate refuses or a track fix checkFix
// refuses, before anything is written. foldDecoded applies the same rule to
// bodies already stored.
func checkUpload(up *wire.DataUpload) error {
	for _, series := range up.Series {
		for _, smp := range series.Samples {
			if err := feature.Validate(time.Duration(smp.WindowMilli)*time.Millisecond, smp.Readings); err != nil {
				return fmt.Errorf("%s sample at %d: %w", series.Sensor, smp.AtUnixMilli, err)
			}
		}
	}
	for _, gp := range up.Track {
		if err := checkFix(gp); err != nil {
			return fmt.Errorf("track fix at %d: %w", gp.AtUnixMilli, err)
		}
	}
	return nil
}

// checkFix refuses a track fix with a coordinate feature.Validate would
// refuse as a reading.
func checkFix(gp wire.GeoPoint) error {
	return feature.Validate(0, []float64{gp.Lat, gp.Lon, gp.Alt})
}

// featurePipelines maps sensor series names to the folds computing their
// features, each named by its fold (§IV-A's per-feature methods).
var featurePipelines = map[string]feature.Fold{
	"temperature":   feature.MeanExtractor{Feature: "temperature"},
	"humidity":      feature.MeanExtractor{Feature: "humidity"},
	"light":         feature.MeanExtractor{Feature: "brightness"},
	"wifi":          feature.MeanExtractor{Feature: "wifi"},
	"microphone":    feature.NoiseRMSExtractor{},
	"accelerometer": feature.RoughnessExtractor{},
	"barometer":     feature.AltitudeChangeExtractor{},
}

// robustPipelines swaps the location-estimating extractors for their
// MAD-outlier-rejecting variants; roughness/altitude/noise keep their
// spread semantics. Enabled via Config.RobustExtraction — the data-quality
// extension quantified in EXPERIMENTS.md.
var robustPipelines = map[string]feature.Fold{
	"temperature":   feature.MADMeanExtractor{Feature: "temperature"},
	"humidity":      feature.MADMeanExtractor{Feature: "humidity"},
	"light":         feature.MADMeanExtractor{Feature: "brightness"},
	"wifi":          feature.MADMeanExtractor{Feature: "wifi"},
	"microphone":    feature.NoiseRMSExtractor{},
	"accelerometer": feature.RoughnessExtractor{},
	"barometer":     feature.AltitudeChangeExtractor{},
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
	// The accumulators are read under the app lock. Bursts are snapshotted
	// instead — their points are never mutated after append — and the
	// curvature estimate, an exact mean over bursts in any order, runs
	// outside the lock.
	ad.mu.Lock()
	values := make([]featureValue, 0, len(ad.scalar)+1)
	for sensor, acc := range ad.scalar {
		fold := d.pipelines[sensor]
		value, err := fold.Read(acc)
		if err != nil {
			continue
		}
		values = append(values, featureValue{fold.Name(), value, acc.Samples()})
	}
	track := make([]feature.GeoSample, 0, len(ad.track))
	for _, points := range ad.track {
		track = append(track, feature.GeoSample{Points: points[:len(points):len(points)]})
	}
	ad.mu.Unlock()
	if len(track) > 0 {
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
