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
	"sor/internal/stats"
	"sor/internal/store"
	"sor/internal/wire"
)

// DataProcessor periodically drains raw binary uploads from the database,
// decodes them, accumulates samples per application, and recomputes the
// humanly understandable feature values (§IV-A). Decoded samples are kept
// in canonical order per application and sensor (see sampleRun), and a
// refresh resumes each fold extractor from its state before the first
// sample that moved, so it costs what arrived rather than the history.
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

	// unrefreshed holds the apps folded into but not refreshed since: a
	// cancelled ProcessContext leaves them here, and the next Process
	// refreshes them even when it drains nothing.
	unrefreshedMu sync.Mutex
	unrefreshed   map[string]bool

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
	refolded   *obs.Counter // samples extraction stepped
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
	return &DataProcessor{db: db, now: time.Now, byApp: make(map[string]*appData), unrefreshed: make(map[string]bool)}
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
		refolded:   reg.Counter("sor_processor_refolded_samples_total"),
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
			d.appData(up.AppID).foldDecoded(&up)
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
		d.decodeErrors.Add(1)
		d.met.decodeErrs.Inc()
		return false
	}
	return true
}

// countFolded accounts for n uploads folded into accumulators.
func (d *DataProcessor) countFolded(n int) {
	d.processed.Add(int64(n))
	d.met.processed.Add(int64(n))
}

// foldDecoded accumulates one decoded upload's samples into the app's
// runs and bursts. It keeps no slice of up — scalar readings are copied
// into the runs' arenas and track fixes into the bursts' points — so the
// caller may decode the next upload into the same message.
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
			run.add(smp.AtUnixMilli, time.Duration(smp.WindowMilli)*time.Millisecond, smp.Readings)
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
// A run holds no pointers: recs are fixed-size records, and their readings
// sit in arena, which only ever grows — a fold appends each sample's
// readings there and its record behind the others. recs[:sorted] is
// canonical — the stable sort of its arrival order under compareSamples;
// the next refresh sorts the tail and merges it in. A trickle therefore
// costs its own samples (plus the records they displace, each move a plain
// memmove), and recovery's refold of the whole history is one sort, never
// an insertion per sample.
//
// marks make extraction resumable: marks[i] is fold's state after stepping
// recs[:i*foldBlock]. A refresh resumes from the last mark at or before the
// first record canonical moved, so a trickle at the end of the run steps
// its own samples plus under one block.
type sampleRun struct {
	recs   []sampleRec
	arena  []float64
	sorted int

	fold  feature.Fold // the extractor marks belong to; nil: no marks
	marks []stats.Welford
}

// sampleRec is one sample of a run: the paper's (t, Δt, d) tuple, its
// readings being arena[off : off+n].
type sampleRec struct {
	at     int64 // Unix milliseconds
	window time.Duration
	off, n int
}

// foldBlock is how many samples a run steps between fold marks.
const foldBlock = 32

// add appends one sample to the run's unsorted tail.
func (r *sampleRun) add(atMilli int64, window time.Duration, readings []float64) {
	r.recs = append(r.recs, sampleRec{at: atMilli, window: window, off: len(r.arena), n: len(readings)})
	r.arena = append(r.arena, readings...)
}

// readings returns rec's readings, capped so an append cannot reach into
// the arena behind them.
func (r *sampleRun) readings(rec sampleRec) []float64 {
	return r.arena[rec.off : rec.off+rec.n : rec.off+rec.n]
}

// compareSamples is the canonical sample order: instant, window, reading
// count, then readings elementwise. A reading pair that is neither equal
// nor ordered (a NaN) ends the comparison as a tie.
func (r *sampleRun) compareSamples(a, b sampleRec) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	if a.window != b.window {
		return cmp.Compare(a.window, b.window)
	}
	if a.n != b.n {
		return cmp.Compare(a.n, b.n)
	}
	ys := r.readings(b)
	for k, x := range r.readings(a) {
		if y := ys[k]; x != y {
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
// returns the first position it changed (len(recs) when it changed none).
// Merging the sorted tail behind the sorted prefix, prefix first on ties,
// is the stable sort of the full arrival order. The merge runs from the
// back: each tail record is placed behind the prefix records not greater
// than it, and the block it displaces moves in one copy.
func (r *sampleRun) canonical() int {
	s, k := r.recs, r.sorted
	if k == len(s) {
		return k
	}
	slices.SortStableFunc(s[k:], r.compareSamples)
	if k > 0 && r.compareSamples(s[k], s[k-1]) < 0 {
		tail := slices.Clone(s[k:])
		for j := len(tail) - 1; j >= 0; j-- {
			// s[pos:k] are the prefix records still unplaced that sort
			// after tail[j]; tail[:j+1] all precede them.
			pos := sort.Search(k, func(i int) bool { return r.compareSamples(tail[j], s[i]) < 0 })
			copy(s[pos+j+1:], s[pos:k])
			s[pos+j] = tail[j]
			k = pos
		}
	}
	r.sorted = len(s)
	return k
}

// samples returns the history in canonical order as feature samples, their
// readings aliasing the arena. Valid until the next fold into the run.
func (r *sampleRun) samples() []feature.Sample {
	r.canonical()
	out := make([]feature.Sample, len(r.recs))
	for i, rec := range r.recs {
		out[i] = feature.Sample{At: time.UnixMilli(rec.at).UTC(), Window: rec.window, Readings: r.readings(rec)}
	}
	return out
}

// extract computes e over the canonical history and reports how many
// samples it stepped. A Fold resumes from the last mark before the first
// position canonical changed — its state there covers a prefix no merge has
// touched, so the value is Extract's bit for bit — and leaves a mark every
// foldBlock samples on the way. Any other extractor runs over the whole
// history and drops the marks.
func (r *sampleRun) extract(e feature.Extractor) (value float64, stepped int, err error) {
	f, ok := e.(feature.Fold)
	if !ok {
		r.fold, r.marks = nil, r.marks[:0]
		value, err = e.Extract(r.samples())
		return value, len(r.recs), err
	}
	first := r.canonical()
	if r.fold != f {
		r.fold, r.marks = f, r.marks[:0]
	}
	r.marks = r.marks[:min(len(r.marks), first/foldBlock+1)]
	if len(r.marks) == 0 {
		r.marks = append(r.marks, stats.Welford{})
	}
	start := (len(r.marks) - 1) * foldBlock
	w := r.marks[len(r.marks)-1]
	for i := start; i < len(r.recs); {
		rec := r.recs[i]
		if err := f.Step(&w, rec.window, r.readings(rec)); err != nil {
			return 0, i + 1 - start, err
		}
		if i++; i%foldBlock == 0 {
			r.marks = append(r.marks, w)
		}
	}
	value, err = f.Read(&w)
	return value, len(r.recs) - start, err
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
	// run in place and extract moves its marks, and a fold extraction steps
	// only the samples behind the first one the refresh moved. Bursts are
	// snapshotted instead — their points are never mutated after append —
	// and the curvature estimate runs outside the lock.
	ad.mu.Lock()
	values := make([]featureValue, 0, len(ad.scalar)+1)
	stepped := 0
	for sensor, run := range ad.scalar {
		pipeline, ok := pipelines[sensor]
		if !ok || len(run.recs) == 0 {
			continue
		}
		value, n, err := run.extract(pipeline.extractor)
		stepped += n
		if err != nil {
			continue
		}
		values = append(values, featureValue{pipeline.feature, value, len(run.recs)})
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
	d.met.refolded.Add(int64(stepped))
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
