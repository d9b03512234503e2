package frontend

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sor/internal/device"
	"sor/internal/sensors"
	"sor/internal/wire"
	"sor/internal/world"
)

var (
	enter = time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC)
	leave = enter.Add(3 * time.Hour)
)

// fakeSender records messages and replies per type.
type fakeSender struct {
	mu       sync.Mutex
	got      []wire.Message
	schedule *wire.Schedule
	refuse   string
}

func (s *fakeSender) Send(_ context.Context, m wire.Message) (wire.Message, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got = append(s.got, m)
	if s.refuse != "" {
		return &wire.Ack{OK: false, Code: 403, Message: s.refuse}, nil
	}
	switch m.(type) {
	case *wire.Participate:
		if s.schedule != nil {
			payload, err := wire.Encode(s.schedule)
			if err != nil {
				return nil, err
			}
			return &wire.Ack{OK: true, Code: 200, Payload: payload}, nil
		}
		return &wire.Ack{OK: true, Code: 200}, nil
	default:
		return &wire.Ack{OK: true, Code: 200}, nil
	}
}

func (s *fakeSender) messages() []wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]wire.Message(nil), s.got...)
}

func newPhone(t *testing.T, placeName string) *device.Phone {
	t.Helper()
	w, err := world.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	place, err := w.Place(placeName)
	if err != nil {
		t.Fatal(err)
	}
	p, err := device.New(device.Config{
		ID: "phone-1", Token: "tok-1",
		Traj: device.Trajectory{Place: place, Enter: enter, Leave: leave},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newFrontend(t *testing.T, placeName string, s Sender) *Frontend {
	t.Helper()
	f, err := New(newPhone(t, placeName), s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, &fakeSender{}); err == nil {
		t.Fatal("nil phone must error")
	}
	if _, err := New(newPhone(t, world.BNCafe), nil); err == nil {
		t.Fatal("nil sender must error")
	}
}

func TestWakeLock(t *testing.T) {
	var w WakeLock
	if w.Held() {
		t.Fatal("fresh lock held")
	}
	w.Acquire()
	w.Acquire()
	if !w.Held() || w.Peak() != 2 {
		t.Fatalf("held=%v peak=%d", w.Held(), w.Peak())
	}
	if err := w.Release(); err != nil {
		t.Fatal(err)
	}
	if err := w.Release(); err != nil {
		t.Fatal(err)
	}
	if w.Held() {
		t.Fatal("lock still held")
	}
	if err := w.Release(); err == nil {
		t.Fatal("over-release must error")
	}
}

func TestPreferences(t *testing.T) {
	p := NewPreferences()
	if !p.Allowed(device.FnLocation) {
		t.Fatal("default must allow")
	}
	p.Deny(device.FnLocation)
	if p.Allowed(device.FnLocation) {
		t.Fatal("deny failed")
	}
	p.Allow(device.FnLocation)
	if !p.Allowed(device.FnLocation) {
		t.Fatal("allow failed")
	}
}

func TestTaskStateString(t *testing.T) {
	for s, want := range map[TaskState]string{
		TaskStateWaiting: "waiting", TaskStateRunning: "running",
		TaskStateDone: "done", TaskStateFailed: "failed",
		TaskStateUploadPending: "upload-pending",
	} {
		if s.String() != want {
			t.Fatalf("%d = %q", s, s.String())
		}
	}
}

func TestParticipateRoundTrip(t *testing.T) {
	sched := &wire.Schedule{
		TaskID: "t1", AppID: "app", UserID: "u1",
		Script: "return 0", AtUnix: []int64{enter.Unix()},
	}
	s := &fakeSender{schedule: sched}
	f := newFrontend(t, world.BNCafe, s)
	got, err := f.Participate(context.Background(), "u1", "app", 17, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got.TaskID != "t1" {
		t.Fatalf("schedule = %+v", got)
	}
	msgs := s.messages()
	if len(msgs) != 1 {
		t.Fatalf("messages = %d", len(msgs))
	}
	p := msgs[0].(*wire.Participate)
	if p.UserID != "u1" || p.AppID != "app" || p.Budget != 17 || p.Token != "tok-1" {
		t.Fatalf("participate = %+v", p)
	}
	if p.Loc.Lat == 0 {
		t.Fatal("participate should carry the phone location")
	}
	if f.WakeLock().Held() {
		t.Fatal("wake lock leaked")
	}
}

func TestParticipateRefused(t *testing.T) {
	s := &fakeSender{refuse: "not at the place"}
	f := newFrontend(t, world.BNCafe, s)
	_, err := f.Participate(context.Background(), "u1", "app", 5, time.Hour)
	if err == nil || !strings.Contains(err.Error(), "not at the place") {
		t.Fatalf("err = %v", err)
	}
}

func TestParticipateWithoutSchedulePayload(t *testing.T) {
	s := &fakeSender{} // ack without payload
	f := newFrontend(t, world.BNCafe, s)
	if _, err := f.Participate(context.Background(), "u", "a", 1, time.Hour); err == nil {
		t.Fatal("missing schedule payload must error")
	}
}

const coffeeScript = `
	local temps = get_temperature_readings(4, 5000)
	local noise = get_noise_readings(16, 2000)
	local light = get_light_readings(4, 5000)
	local wifi = get_wifi_rssi(3, 1000)
	assert(#temps == 4 and #noise == 16)
	return #temps
`

func TestExecuteScheduleCollectsAndUploads(t *testing.T) {
	s := &fakeSender{}
	f := newFrontend(t, world.Starbucks, s)
	sched := &wire.Schedule{
		TaskID: "t1", AppID: "app-sb", UserID: "u1",
		Script: coffeeScript,
		AtUnix: []int64{enter.Unix(), enter.Add(10 * time.Minute).Unix(), enter.Add(20 * time.Minute).Unix()},
	}
	upload, err := f.ExecuteSchedule(context.Background(), sched)
	if err != nil {
		t.Fatal(err)
	}
	if upload.TaskID != "t1" || upload.UserID != "u1" {
		t.Fatalf("upload header = %+v", upload)
	}
	bySensor := make(map[string]int)
	for _, series := range upload.Series {
		bySensor[series.Sensor] = len(series.Samples)
	}
	for _, sensor := range []string{"temperature", "microphone", "light", "wifi"} {
		if bySensor[sensor] != 3 {
			t.Fatalf("sensor %s has %d samples, want 3 (one per instant); map=%v",
				sensor, bySensor[sensor], bySensor)
		}
	}
	// The upload must have been sent.
	msgs := s.messages()
	if len(msgs) != 1 {
		t.Fatalf("sent %d messages", len(msgs))
	}
	if _, ok := msgs[0].(*wire.DataUpload); !ok {
		t.Fatalf("sent %T", msgs[0])
	}
	// Task bookkeeping.
	info, ok := f.Task("t1")
	if !ok || info.State != TaskStateDone || info.Measurements != 3 {
		t.Fatalf("task info = %+v", info)
	}
}

func TestExecuteScheduleDuplicateTask(t *testing.T) {
	s := &fakeSender{}
	f := newFrontend(t, world.Starbucks, s)
	sched := &wire.Schedule{TaskID: "dup", AppID: "a", UserID: "u",
		Script: "return 0", AtUnix: []int64{enter.Unix()}}
	if _, err := f.ExecuteSchedule(context.Background(), sched); err != nil {
		t.Fatal(err)
	}
	sched2 := *sched
	if _, err := f.ExecuteSchedule(context.Background(), &sched2); err == nil {
		t.Fatal("duplicate task must error")
	}
}

func TestExecuteScheduleBadScript(t *testing.T) {
	s := &fakeSender{}
	f := newFrontend(t, world.Starbucks, s)
	sched := &wire.Schedule{TaskID: "bad", AppID: "a", UserID: "u",
		Script: "this is not lua(", AtUnix: []int64{enter.Unix()}}
	if _, err := f.ExecuteSchedule(context.Background(), sched); err == nil {
		t.Fatal("bad script must error")
	}
	info, _ := f.Task("bad")
	if info.State != TaskStateFailed {
		t.Fatalf("task state = %v", info.State)
	}
}

func TestExecuteScheduleScriptRuntimeError(t *testing.T) {
	s := &fakeSender{}
	f := newFrontend(t, world.Starbucks, s)
	sched := &wire.Schedule{TaskID: "boom", AppID: "a", UserID: "u",
		Script: `error("sensor exploded")`, AtUnix: []int64{enter.Unix()}}
	_, err := f.ExecuteSchedule(context.Background(), sched)
	if err == nil || !strings.Contains(err.Error(), "sensor exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestPreferenceDenialBlocksSensor(t *testing.T) {
	s := &fakeSender{}
	f := newFrontend(t, world.Starbucks, s)
	f.Preferences().Deny(device.FnLocation)
	sched := &wire.Schedule{TaskID: "loc", AppID: "a", UserID: "u",
		Script: "local l = get_location(1) return #l", AtUnix: []int64{enter.Unix()}}
	_, err := f.ExecuteSchedule(context.Background(), sched)
	if err == nil || !strings.Contains(err.Error(), "disabled by user preference") {
		t.Fatalf("err = %v", err)
	}
	// A script can survive denial with pcall.
	f2 := newFrontend(t, world.Starbucks, s)
	f2.Preferences().Deny(device.FnLocation)
	sched2 := &wire.Schedule{TaskID: "loc2", AppID: "a", UserID: "u",
		Script: `
			local ok = pcall(function() return get_location(1) end)
			if not ok then
				local t = get_temperature_readings(2, 1000)
				return #t
			end
			return -1`,
		AtUnix: []int64{enter.Unix()}}
	upload, err := f2.ExecuteSchedule(context.Background(), sched2)
	if err != nil {
		t.Fatal(err)
	}
	if len(upload.Track) != 0 {
		t.Fatal("denied GPS still produced track points")
	}
	if len(upload.Series) == 0 {
		t.Fatal("fallback sensing produced no data")
	}
}

// TestMissingSensorNamesItself: a whitelisted sensor the phone lacks
// (a trail phone has no light sensor) fails the task with an error naming
// the function, and a pcall guards it like a denied sensor.
func TestMissingSensorNamesItself(t *testing.T) {
	f := newFrontend(t, world.GreenLakeTrail, &fakeSender{})
	if _, ok := f.phone.Manager().Provider(device.FnLight); ok {
		t.Fatal("trail phone has a light sensor")
	}
	_, err := f.ExecuteSchedule(context.Background(), &wire.Schedule{TaskID: "light", AppID: "a", UserID: "u",
		Script: "local l = get_light_readings(2, 1000) return #l", AtUnix: []int64{enter.Unix()}})
	if err == nil || !strings.Contains(err.Error(), "sensor get_light_readings not on this phone") {
		t.Fatalf("err = %v", err)
	}
	upload, err := f.ExecuteSchedule(context.Background(), &wire.Schedule{TaskID: "light2", AppID: "a", UserID: "u",
		Script: `
			local ok = pcall(function() return get_light_readings(2, 1000) end)
			if not ok then
				local t = get_temperature_readings(2, 1000)
				return #t
			end
			return -1`,
		AtUnix: []int64{enter.Unix()}})
	if err != nil {
		t.Fatal(err)
	}
	if len(upload.Series) == 0 {
		t.Fatal("fallback sensing produced no data")
	}
}

// TestCancelInsidePcallFailsTask: a task cancelled while a pcall-guarded
// host call runs fails, and no partial report is queued or sent.
func TestCancelInsidePcallFailsTask(t *testing.T) {
	s := &fakeSender{}
	f := newFrontend(t, world.Starbucks, s)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, ok := f.phone.Manager().Provider(device.FnLocation)
	if !ok {
		t.Fatal("phone has no GPS")
	}
	p.(*sensors.FuncProvider).Sample = func(sensors.Request) (sensors.Reading, error) {
		cancel() // the task is cancelled mid-acquisition
		return sensors.Reading{}, ctx.Err()
	}
	sched := &wire.Schedule{TaskID: "cancel", AppID: "a", UserID: "u",
		Script: `
			local ok = pcall(function() return get_location(1) end)
			return 0`,
		AtUnix: []int64{enter.Unix()}}
	if _, err := f.ExecuteSchedule(ctx, sched); err == nil || !strings.Contains(err.Error(), "script cancelled") {
		t.Fatalf("err = %v", err)
	}
	if n := f.Outbox().Pending(); n != 0 {
		t.Fatalf("%d reports queued for a cancelled task", n)
	}
	if msgs := s.messages(); len(msgs) != 0 {
		t.Fatalf("cancelled task sent %d messages", len(msgs))
	}
	if info, _ := f.Task("cancel"); info.State != TaskStateFailed {
		t.Fatalf("task state = %v", info.State)
	}
}

// TestTaskScriptsOnThePhone runs the task language through the
// frontend's interpreter binding: a script that summarises its readings
// with the language's statements and operators, and faulty scripts whose
// task fails naming the fault and, for a refusal or a runtime error, its
// line:col.
func TestTaskScriptsOnThePhone(t *testing.T) {
	f := newFrontend(t, world.GreenLakeTrail, &fakeSender{})
	upload, err := f.ExecuteSchedule(context.Background(), &wire.Schedule{
		TaskID: "summary", AppID: "a", UserID: "u",
		Script: `
			-- classify the temperature, keep the span of altitudes
			local temps = get_temperature_readings(4, 5000)
			local alts = get_altitude_readings(3, 2000)
			local fixes = get_location(2)
			local lo, hi = alts[1], alts[1]
			for _, a in ipairs(alts) do
				if a < lo then lo = a elseif a > hi then hi = a end
			end
			local level = "cold"
			if temps[1] >= 1e4 then level = "hot"
			elseif temps[1] > -50 and not (temps[1] <= -100) then level = "mild"
			else level = 'cold' end
			assert(#level >= 3 and level ~= nil, "no level")
			assert(hi - lo >= 0 and (-lo <= 0 or lo < 0), "span")
			assert((7 % 3) ^ 2 == 1 and 10 / 4 * 2 == 5.0, "arithmetic")
			assert(fixes[1].lat ~= fixes[2] and fixes.missing == nil, "fixes")
			assert("a\tb" < "b" and "b" > "a\n", "strings")
			return hi - lo`,
		AtUnix: []int64{enter.Unix(), enter.Add(30 * time.Minute).Unix()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(upload.Track) != 4 {
		t.Fatalf("track = %d points, want 4", len(upload.Track))
	}
	for i, c := range []struct{ script, want string }{
		{"local t = get_temperature_readings(1, 10)\nreturn t + 1", "2:10: attempt to perform arithmetic on a table value"},
		{"return -get_location(1)", "1:8: attempt to negate a table value"},
		{"return get_temperature_readings(1, 10) < 1", "attempt to compare table with number"},
		{"return get_location(1) >= get_location(1)", "attempt to compare two table values"},
		{"return #get_temperature_readings(1, 10)[1]", "1:8: attempt to get length of a number value"},
		{"local x = nil return x.y", "1:23: attempt to index a nil value"},
		{"assert(false)", "1:1: assertion failed!"},
		{"error(42)", "1:1: 42"},
		{"for _, v in ipairs(1) do end", "table expected, got number"},
		{"local f = 1 f()", "1:13: attempt to call a number value"},
		{"return 1e", "1:8: malformed number exponent"},
		{"return 'a\\q'", "1:10: invalid escape"},
		{`return "abc`, "1:8: unterminated string"},
		{"if true then", `1:13: expected "end", found <eof>`},
		{"local x = 1 return x return", "1:22: return must be the last statement"},
		{"local = 1", `1:7: expected name, found "="`},
		{"local x = (1", `1:13: expected ")"`},
		{"for k v in ipairs(x) do end", `1:7: expected "in", found "v"`},
		{"return get_location(1)[1 + ]", `1:28: unexpected "]"`},
		{"x", "1:1: unknown name"},
		{"get_location", "1:1: expression is not a statement"},
	} {
		g := newFrontend(t, world.GreenLakeTrail, &fakeSender{})
		id := fmt.Sprintf("bad-%d", i)
		_, err := g.ExecuteSchedule(context.Background(), &wire.Schedule{
			TaskID: id, AppID: "a", UserID: "u", Script: c.script, AtUnix: []int64{enter.Unix()}})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("script %q: err = %v, want %q", c.script, err, c.want)
		}
		if info, _ := g.Task(id); info.State != TaskStateFailed {
			t.Fatalf("script %q: task state = %v", c.script, info.State)
		}
	}
}

func TestLocationScriptProducesTrack(t *testing.T) {
	s := &fakeSender{}
	f := newFrontend(t, world.GreenLakeTrail, s)
	sched := &wire.Schedule{TaskID: "walk", AppID: "a", UserID: "u",
		Script: `
			local fixes = get_location(2)
			local alts = get_altitude_readings(3, 2000)
			return fixes[1].lat`,
		AtUnix: []int64{enter.Unix(), enter.Add(30 * time.Minute).Unix()},
	}
	upload, err := f.ExecuteSchedule(context.Background(), sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(upload.Track) != 4 { // 2 fixes × 2 instants
		t.Fatalf("track = %d points, want 4", len(upload.Track))
	}
	if upload.Track[0].Lat < 42 || upload.Track[0].Lat > 44 {
		t.Fatalf("track point = %+v", upload.Track[0])
	}
	// Barometer series present.
	found := false
	for _, series := range upload.Series {
		if series.Sensor == "barometer" && len(series.Samples) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("barometer series missing: %+v", upload.Series)
	}
}

func TestLeave(t *testing.T) {
	s := &fakeSender{}
	f := newFrontend(t, world.BNCafe, s)
	if err := f.Leave(context.Background(), "u1", "app"); err != nil {
		t.Fatal(err)
	}
	msgs := s.messages()
	if len(msgs) != 1 {
		t.Fatalf("messages = %d", len(msgs))
	}
	if l, ok := msgs[0].(*wire.Leave); !ok || l.UserID != "u1" {
		t.Fatalf("sent %+v", msgs[0])
	}
	s2 := &fakeSender{refuse: "unknown user"}
	f2 := newFrontend(t, world.BNCafe, s2)
	if err := f2.Leave(context.Background(), "ghost", "app"); err == nil {
		t.Fatal("refused leave must error")
	}
}

func TestHandlePing(t *testing.T) {
	s := &fakeSender{}
	f := newFrontend(t, world.BNCafe, s)
	if err := f.HandlePing(context.Background()); err != nil {
		t.Fatal(err)
	}
	msgs := s.messages()
	if p, ok := msgs[0].(*wire.Ping); !ok || p.Token != "tok-1" {
		t.Fatalf("sent %+v", msgs[0])
	}
}

func TestConcurrentTaskInstances(t *testing.T) {
	// SOR is a multi-task system: several task instances may acquire from
	// one or multiple sensors simultaneously (§II-A).
	s := &fakeSender{}
	f := newFrontend(t, world.Starbucks, s)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sched := &wire.Schedule{
				TaskID: "conc-" + string(rune('a'+i)), AppID: "a", UserID: "u",
				Script: coffeeScript,
				AtUnix: []int64{enter.Unix(), enter.Add(time.Minute).Unix()},
			}
			_, err := f.ExecuteSchedule(context.Background(), sched)
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(f.Tasks()) != 4 {
		t.Fatalf("tasks = %d", len(f.Tasks()))
	}
	for _, info := range f.Tasks() {
		if info.State != TaskStateDone {
			t.Fatalf("task %s state = %v", info.TaskID, info.State)
		}
	}
}

func TestBufferSharingSavesEnergy(t *testing.T) {
	// Two task instances whose schedules hit the same instants should
	// share provider buffers (§II-A: "each Provider maintains a data
	// buffer ... can even share them with multiple different tasks; in
	// this way, energy consumed for sensing can be reduced").
	s := &fakeSender{}
	f := newFrontend(t, world.Starbucks, s)
	// Both tasks measure at the same instant — the provider's single-slot
	// buffer serves the second task for free.
	at := []int64{enter.Unix()}
	script := "local t = get_temperature_readings(4, 5000) return #t"
	if _, err := f.ExecuteSchedule(context.Background(), &wire.Schedule{
		TaskID: "share-1", AppID: "a", UserID: "u", Script: script, AtUnix: at,
	}); err != nil {
		t.Fatal(err)
	}
	energyAfterFirst := f.Phone().EnergySpentMilliJ()
	if _, err := f.ExecuteSchedule(context.Background(), &wire.Schedule{
		TaskID: "share-2", AppID: "a", UserID: "u", Script: script, AtUnix: at,
	}); err != nil {
		t.Fatal(err)
	}
	energyAfterSecond := f.Phone().EnergySpentMilliJ()
	if energyAfterSecond != energyAfterFirst {
		t.Fatalf("second task re-acquired instead of sharing the buffer: %v -> %v",
			energyAfterFirst, energyAfterSecond)
	}
	stats := f.Phone().Manager().Stats()
	if stats.BufferHits < 1 {
		t.Fatalf("buffer hits = %d, want >= 1", stats.BufferHits)
	}
	// The shared reading still reaches both uploads.
	msgs := s.messages()
	if len(msgs) != 2 {
		t.Fatalf("uploads = %d", len(msgs))
	}
	for _, m := range msgs {
		up := m.(*wire.DataUpload)
		if len(up.Series) != 1 || len(up.Series[0].Samples) != 1 {
			t.Fatalf("upload %s series = %+v", up.TaskID, up.Series)
		}
	}
}

// Held reports whether the phone is being kept awake.
func (w *WakeLock) Held() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.holds > 0
}

// Peak reports the maximum concurrent holds (test instrumentation).
func (w *WakeLock) Peak() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.peak
}

// Deny forbids an acquisition function (e.g. device.FnLocation).
func (p *Preferences) Deny(funcName string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.denied[funcName] = true
}

// Allow re-permits a function.
func (p *Preferences) Allow(funcName string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.denied, funcName)
}

// Preferences exposes the Local Preference Manager.
func (f *Frontend) Preferences() *Preferences { return f.prefs }

// WakeLock exposes the wake lock (test instrumentation).
func (f *Frontend) WakeLock() *WakeLock { return f.wake }

// Tasks snapshots all task instances.
func (f *Frontend) Tasks() []TaskInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]TaskInfo, 0, len(f.tasks))
	for _, t := range f.tasks {
		out = append(out, cloneInfo(t))
	}
	return out
}

// Leave notifies the server the user left the place.
func (f *Frontend) Leave(ctx context.Context, userID, appID string) error {
	f.wake.Acquire()
	defer func() { _ = f.wake.Release() }()
	resp, err := f.sender.Send(ctx, &wire.Leave{UserID: userID, AppID: appID})
	if err != nil {
		return fmt.Errorf("frontend: leave: %w", err)
	}
	if ack, ok := resp.(*wire.Ack); ok && !ack.OK {
		return fmt.Errorf("frontend: leave refused: %s", ack.Message)
	}
	return nil
}
