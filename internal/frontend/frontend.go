// Package frontend implements SOR's Mobile Frontend (Fig. 3): the Message
// Handler that talks to the sensing server in binary-over-HTTP, the Local
// Preference Manager that lets a user withhold sensors, the Task Manager
// whose task instances execute the Lua sensing scripts delivered with each
// schedule, the Script Interpreter binding that maps get_*_readings()
// calls onto sensor Providers through the security whitelist, and a
// wake-lock that keeps the (simulated) phone awake during communication.
package frontend

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"sor/internal/device"
	"sor/internal/luascript"
	"sor/internal/obs"
	"sor/internal/sensors"
	"sor/internal/transport"
	"sor/internal/wire"
)

// Sender abstracts the transport used to reach the sensing server (the
// Message Handler's outbound side). transport.Client implements it.
type Sender interface {
	Send(ctx context.Context, m wire.Message) (wire.Message, error)
}

// WakeLock mimics powerManager.newWakeupLock(): the frontend holds it
// during communication and sensing so the phone cannot sleep.
type WakeLock struct {
	mu    sync.Mutex
	holds int
	peak  int
}

// Acquire takes the lock (counted).
func (w *WakeLock) Acquire() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.holds++
	if w.holds > w.peak {
		w.peak = w.holds
	}
}

// Release drops one hold; releasing an unheld lock is an error.
func (w *WakeLock) Release() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.holds == 0 {
		return errors.New("frontend: release of unheld wake lock")
	}
	w.holds--
	return nil
}

// Preferences is the Local Preference Manager: per-acquisition-function
// consent. The paper's example: a user refusing to expose GPS locations.
type Preferences struct {
	mu     sync.RWMutex
	denied map[string]bool
}

// NewPreferences allows everything by default.
func NewPreferences() *Preferences {
	return &Preferences{denied: make(map[string]bool)}
}

// Allowed reports consent for a function.
func (p *Preferences) Allowed(funcName string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return !p.denied[funcName]
}

// TaskState is a task instance's lifecycle (§II-A: "running, waiting for
// data, etc").
type TaskState int

// Task states.
const (
	TaskStateWaiting TaskState = iota + 1
	TaskStateRunning
	TaskStateDone
	TaskStateFailed
	// TaskStateUploadPending means sensing finished and the report sits in
	// the outbox waiting for the network to come back.
	TaskStateUploadPending
)

// String names the state.
func (s TaskState) String() string {
	switch s {
	case TaskStateWaiting:
		return "waiting"
	case TaskStateRunning:
		return "running"
	case TaskStateDone:
		return "done"
	case TaskStateFailed:
		return "failed"
	case TaskStateUploadPending:
		return "upload-pending"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// TaskInfo is a snapshot of one task instance.
type TaskInfo struct {
	TaskID       string
	AppID        string
	State        TaskState
	Measurements int
	Err          string
	// Gaps lists acquisitions that failed even after bounded retries and
	// were skipped, leaving a hole in the uploaded series instead of
	// failing the whole task.
	Gaps []string
}

// Frontend is the mobile application instance running on one phone.
type Frontend struct {
	phone  *device.Phone
	sender Sender
	prefs  *Preferences
	wake   *WakeLock
	outbox *Outbox

	reportSeq atomic.Int64

	// outbox construction knobs, consumed by New.
	outboxBackoff    time.Duration
	outboxBackoffMax time.Duration
	outboxSeed       int64
	obsv             *obs.Observer

	mu    sync.Mutex
	tasks map[string]*TaskInfo
}

// defaultAcquireRetries is how many times a failed sensor acquisition is
// retried before the instant is skipped as a gap.
const defaultAcquireRetries = 2

// Option configures a Frontend.
type Option func(*Frontend)

// WithOutboxRetry applies a transport.Retry envelope to the outbox flush
// loop: FlushOutbox's backoff base and cap, and the jitter seed (the
// default is derived from the device token so each phone jitters
// differently but deterministically). Attempts is ignored: the outbox
// never gives up; its durability IS the retry budget.
func WithOutboxRetry(r transport.Retry) Option {
	return func(f *Frontend) {
		f.outboxBackoff = r.ResolveBase(f.outboxBackoff)
		f.outboxBackoffMax = r.ResolveCap(f.outboxBackoffMax)
		f.outboxSeed = r.ResolveSeed(f.outboxSeed)
	}
}

// WithObserver instruments the frontend's outbox (depth, deliveries,
// drops). Passing the same observer to a fleet of frontends aggregates
// their series — the depth gauge then reads as fleet-wide backlog.
func WithObserver(o *obs.Observer) Option {
	return func(f *Frontend) { f.obsv = o }
}

// tokenSeed derives a stable per-phone jitter seed.
func tokenSeed(token string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(token))
	return int64(h.Sum64())
}

// New builds a frontend for a phone.
func New(phone *device.Phone, sender Sender, opts ...Option) (*Frontend, error) {
	if phone == nil {
		return nil, errors.New("frontend: nil phone")
	}
	if sender == nil {
		return nil, errors.New("frontend: nil sender")
	}
	f := &Frontend{
		phone:            phone,
		sender:           sender,
		prefs:            NewPreferences(),
		wake:             &WakeLock{},
		tasks:            make(map[string]*TaskInfo),
		outboxBackoff:    defaultOutboxBackoff,
		outboxBackoffMax: defaultOutboxBackoffCap,
		outboxSeed:       tokenSeed(phone.Token),
	}
	for _, o := range opts {
		o(f)
	}
	f.outbox = newOutbox(defaultOutboxCapacity, f.outboxBackoff, f.outboxBackoffMax, f.outboxSeed)
	if f.obsv != nil {
		f.outbox.met = newOutboxMetrics(f.obsv.Metrics())
	}
	return f, nil
}

// Phone returns the underlying device.
func (f *Frontend) Phone() *device.Phone { return f.phone }

// Outbox exposes the store-and-forward queue (stats, pending count).
func (f *Frontend) Outbox() *Outbox { return f.outbox }

// FlushOutbox drains pending uploads with backoff until empty or ctx ends.
func (f *Frontend) FlushOutbox(ctx context.Context) error {
	return f.outbox.Flush(ctx, f.sender)
}

// cloneInfo deep-copies a task snapshot (Gaps is a shared slice otherwise).
func cloneInfo(t *TaskInfo) TaskInfo {
	c := *t
	c.Gaps = append([]string(nil), t.Gaps...)
	return c
}

// Task returns one task snapshot.
func (f *Frontend) Task(taskID string) (TaskInfo, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.tasks[taskID]
	if !ok {
		return TaskInfo{}, false
	}
	return cloneInfo(t), true
}

// nextReportID mints a ReportID unique across this device's lifetime:
// token + task + a monotonically increasing sequence number. The server's
// dedup window keys on it to make retransmissions idempotent.
func (f *Frontend) nextReportID(taskID string) string {
	return fmt.Sprintf("%s/%s/%d", f.phone.Token, taskID, f.reportSeq.Add(1))
}

// Participate scans the 2D barcode payload (appID + server already known
// to the sender) and sends the participation request; on success the
// server replies with an Ack embedding this phone's Schedule.
func (f *Frontend) Participate(ctx context.Context, userID, appID string, budget int, leaveAfter time.Duration) (*wire.Schedule, error) {
	f.wake.Acquire()
	defer func() { _ = f.wake.Release() }()
	pos := f.phone.Position()
	req := &wire.Participate{
		UserID:        userID,
		Token:         f.phone.Token,
		AppID:         appID,
		Loc:           wire.Location{Lat: pos.Lat, Lon: pos.Lon, Alt: pos.Alt},
		Budget:        budget,
		LeaveAfterSec: int64(leaveAfter / time.Second),
	}
	resp, err := f.sender.Send(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("frontend: participate: %w", err)
	}
	ack, ok := resp.(*wire.Ack)
	if !ok {
		return nil, fmt.Errorf("frontend: unexpected response %s", resp.Type())
	}
	if !ack.OK {
		return nil, fmt.Errorf("frontend: server refused participation: %s", ack.Message)
	}
	if len(ack.Payload) == 0 {
		return nil, errors.New("frontend: ack carried no schedule")
	}
	inner, err := wire.Decode(ack.Payload)
	if err != nil {
		return nil, fmt.Errorf("frontend: decoding schedule: %w", err)
	}
	sched, ok := inner.(*wire.Schedule)
	if !ok {
		return nil, fmt.Errorf("frontend: expected schedule, got %s", inner.Type())
	}
	return sched, nil
}

// defaultWindow is the paper's Δt when the script does not override it.
const defaultWindow = 5 * time.Second

// ExecuteSchedule runs a task instance to completion: for every scheduled
// instant it advances the phone clock, interprets the Lua script (which
// pulls data from providers through the whitelist), and finally uploads
// all collected samples to the server in one binary message.
func (f *Frontend) ExecuteSchedule(ctx context.Context, sched *wire.Schedule) (*wire.DataUpload, error) {
	if sched == nil {
		return nil, errors.New("frontend: nil schedule")
	}
	info := &TaskInfo{TaskID: sched.TaskID, AppID: sched.AppID, State: TaskStateWaiting}
	f.mu.Lock()
	if _, dup := f.tasks[sched.TaskID]; dup {
		f.mu.Unlock()
		return nil, fmt.Errorf("frontend: task %s already exists", sched.TaskID)
	}
	f.tasks[sched.TaskID] = info
	f.mu.Unlock()

	setState := func(s TaskState, err error) {
		f.mu.Lock()
		defer f.mu.Unlock()
		info.State = s
		if err != nil {
			info.Err = err.Error()
		}
	}
	setState(TaskStateRunning, nil)

	upload := &wire.DataUpload{
		TaskID: sched.TaskID,
		AppID:  sched.AppID,
		UserID: sched.UserID,
	}
	collector := newCollector(upload)

	chunk, err := luascript.Parse(sched.Script, device.ScriptFunctions)
	if err != nil {
		setState(TaskStateFailed, err)
		return nil, fmt.Errorf("frontend: task script: %w", err)
	}

	for _, atUnix := range sched.AtUnix {
		if err := ctx.Err(); err != nil {
			setState(TaskStateFailed, err)
			return nil, fmt.Errorf("frontend: task cancelled: %w", err)
		}
		at := time.Unix(atUnix, 0).UTC()
		f.phone.SetTime(at)
		interp, err := f.newTaskInterp(ctx, sched.TaskID, at, collector)
		if err != nil {
			setState(TaskStateFailed, err)
			return nil, err
		}
		if _, err := interp.RunChunk(chunk); err != nil {
			setState(TaskStateFailed, err)
			return nil, fmt.Errorf("frontend: task %s at %v: %w", sched.TaskID, at, err)
		}
		f.mu.Lock()
		info.Measurements++
		f.mu.Unlock()
	}

	// Sensing is done: hand the report to the store-and-forward outbox.
	// The task's fate now depends only on delivery — a dead network parks
	// it in upload-pending instead of failing it; the outbox retries on
	// every drain trigger (ping wake-ups, later tasks, explicit flush).
	upload.ReportID = f.nextReportID(sched.TaskID)
	setState(TaskStateUploadPending, nil)
	f.outbox.Enqueue(upload, func(delivered bool, reason string) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if delivered {
			info.State = TaskStateDone
			return
		}
		info.State = TaskStateFailed
		info.Err = fmt.Sprintf("upload refused: %s", reason)
	})
	f.wake.Acquire()
	drainErr := f.outbox.drainOnce(ctx, f.sender)
	if relErr := f.wake.Release(); relErr != nil {
		setState(TaskStateFailed, relErr)
		return nil, relErr
	}
	_ = drainErr // transport failure: report stays queued, task stays pending
	f.mu.Lock()
	state, errMsg := info.State, info.Err
	f.mu.Unlock()
	if state == TaskStateFailed {
		return nil, fmt.Errorf("frontend: %s", errMsg)
	}
	return upload, nil
}

// HandlePing answers a push-channel wake-up by pinging the server (the
// paper's Google-Cloud-Messaging-assisted rendezvous) and then drains any
// reports stranded in the outbox — the wake-up doubles as the signal that
// the network is back.
func (f *Frontend) HandlePing(ctx context.Context) error {
	f.wake.Acquire()
	defer func() { _ = f.wake.Release() }()
	if _, err := f.sender.Send(ctx, &wire.Ping{Token: f.phone.Token}); err != nil {
		return err
	}
	if f.outbox.Pending() > 0 {
		return f.outbox.drainOnce(ctx, f.sender)
	}
	return nil
}

// newTaskInterp builds the per-measurement interpreter with every
// whitelisted host function registered: the phone's sensors acquire, and a
// sensor the phone lacks raises an error naming it (which pcall can catch,
// as it catches a denied sensor).
func (f *Frontend) newTaskInterp(ctx context.Context, taskID string, at time.Time, col *collector) (*luascript.Interp, error) {
	interp := luascript.NewInterp(
		luascript.WithWhitelist(device.ScriptFunctions...),
		luascript.WithContext(ctx),
	)
	for _, fn := range device.ScriptFunctions {
		if err := interp.Register(fn, f.hostFunc(ctx, taskID, fn, at, col)); err != nil {
			return nil, fmt.Errorf("frontend: binding %s: %w", fn, err)
		}
	}
	return interp, nil
}

// recordGap notes a skipped acquisition on the task (sensor@instant).
func (f *Frontend) recordGap(taskID, fn string, at time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if info, ok := f.tasks[taskID]; ok {
		info.Gaps = append(info.Gaps, fmt.Sprintf("%s@%s", fn, at.UTC().Format(time.RFC3339)))
	}
}

// acquireWithRetry retries a failed acquisition up to acquireRetries times
// (on top of whatever retries the provider itself does — e.g. the
// Bluetooth link's own transient-failure loop). Cancellation stops the
// loop immediately.
func (f *Frontend) acquireWithRetry(ctx context.Context, fn string, req sensors.Request) (sensors.Reading, error) {
	var lastErr error
	for attempt := 0; attempt <= defaultAcquireRetries; attempt++ {
		reading, err := f.phone.Manager().Acquire(ctx, fn, req)
		if err == nil {
			return reading, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return sensors.Reading{}, lastErr
}

// hostFunc adapts one acquisition function into a Lua host function:
// get_*_readings(count, window_ms) -> table of numbers;
// get_location(count) -> table of {lat, lon, alt} tables.
func (f *Frontend) hostFunc(ctx context.Context, taskID, fn string, at time.Time, col *collector) luascript.GoFunc {
	return func(args []luascript.Value) ([]luascript.Value, error) {
		if _, ok := f.phone.Manager().Provider(fn); !ok {
			return nil, fmt.Errorf("sensor %s not on this phone", fn)
		}
		if !f.prefs.Allowed(fn) {
			return nil, fmt.Errorf("sensor %s disabled by user preference", fn)
		}
		count := 1
		if len(args) > 0 {
			if n, ok := args[0].(float64); ok && n >= 1 {
				count = int(n)
			}
		}
		window := defaultWindow
		if len(args) > 1 {
			if ms, ok := args[1].(float64); ok && ms >= 0 {
				window = time.Duration(ms) * time.Millisecond
			}
		}
		reading, err := f.acquireWithRetry(ctx, fn, sensors.Request{
			At: at, Count: count, Window: window,
		})
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			// The sensor kept failing after bounded retries (e.g. a flaky
			// Bluetooth multisensor). Degrade gracefully: record the gap,
			// hand the script an empty table, and let the task's other
			// sensors still produce a partial upload.
			f.recordGap(taskID, fn, at)
			return []luascript.Value{luascript.NewTable()}, nil
		}
		col.record(fn, reading)
		if fn == device.FnLocation {
			out := luascript.NewTable()
			for _, pt := range reading.Points {
				entry := luascript.NewTable()
				entry.SetField("lat", pt.Lat)
				entry.SetField("lon", pt.Lon)
				entry.SetField("alt", pt.Alt)
				out.Append(entry)
			}
			return []luascript.Value{out}, nil
		}
		out := luascript.NewTable()
		for _, v := range reading.Values {
			out.Append(v)
		}
		return []luascript.Value{out}, nil
	}
}

// collector accumulates readings into the pending DataUpload.
type collector struct {
	mu     sync.Mutex
	upload *wire.DataUpload
	series map[string]int // sensor name -> index in upload.Series
}

func newCollector(upload *wire.DataUpload) *collector {
	return &collector{upload: upload, series: make(map[string]int)}
}

// sensorName maps acquisition function names to upload series names.
var sensorName = map[string]string{
	device.FnTemperature: "temperature",
	device.FnHumidity:    "humidity",
	device.FnLight:       "light",
	device.FnWiFi:        "wifi",
	device.FnNoise:       "microphone",
	device.FnAccel:       "accelerometer",
	device.FnAltitude:    "barometer",
}

func (c *collector) record(fn string, r sensors.Reading) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fn == device.FnLocation {
		for _, pt := range r.Points {
			c.upload.Track = append(c.upload.Track, wire.GeoPoint{
				AtUnixMilli: r.At.UnixMilli(),
				Lat:         pt.Lat, Lon: pt.Lon, Alt: pt.Alt,
			})
		}
		return
	}
	name, ok := sensorName[fn]
	if !ok {
		name = fn
	}
	idx, ok := c.series[name]
	if !ok {
		idx = len(c.upload.Series)
		c.upload.Series = append(c.upload.Series, wire.SensorSeries{Sensor: name})
		c.series[name] = idx
	}
	c.upload.Series[idx].Samples = append(c.upload.Series[idx].Samples, wire.SensorSample{
		AtUnixMilli: r.At.UnixMilli(),
		WindowMilli: int64(r.Window / time.Millisecond),
		Readings:    append([]float64(nil), r.Values...),
	})
}
