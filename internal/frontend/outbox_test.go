package frontend

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"sor/internal/device"
	"sor/internal/transport"
	"sor/internal/wire"
	"sor/internal/world"
)

// flakySender fails the first failN sends with a transport error, then
// acks. refuse lists ReportIDs to reject permanently.
type flakySender struct {
	mu     sync.Mutex
	failN  int
	refuse map[string]bool
	sent   []wire.Message
}

func (s *flakySender) Send(_ context.Context, m wire.Message) (wire.Message, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failN > 0 {
		s.failN--
		return nil, errors.New("link down")
	}
	s.sent = append(s.sent, m)
	if up, ok := m.(*wire.DataUpload); ok && s.refuse[up.ReportID] {
		return &wire.Ack{OK: false, Code: 400, Message: "corrupt report"}, nil
	}
	return &wire.Ack{OK: true, Code: 200}, nil
}

func (s *flakySender) uploadsSent() []*wire.DataUpload {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*wire.DataUpload
	for _, m := range s.sent {
		if up, ok := m.(*wire.DataUpload); ok {
			out = append(out, up)
		}
	}
	return out
}

// batchingSender additionally implements BatchSender; batchAck scripts the
// batch response.
type batchingSender struct {
	flakySender
	batchAck *wire.Ack
	batches  int
}

func (s *batchingSender) SendBatch(_ context.Context, ups []*wire.DataUpload) (*wire.Ack, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches++
	return s.batchAck, nil
}

func up(id string) *wire.DataUpload {
	return &wire.DataUpload{TaskID: "t", AppID: "a", UserID: "u", ReportID: id}
}

func TestOutboxOverflowDropsOldest(t *testing.T) {
	o := newOutbox(2, time.Millisecond, 10*time.Millisecond, 1)
	o.Enqueue(up("r1"), nil)
	o.Enqueue(up("r2"), nil)
	o.Enqueue(up("r3"), nil)
	if o.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", o.Pending())
	}
	if st := o.Stats(); st.DroppedOverflow != 1 || st.Enqueued != 3 {
		t.Fatalf("stats = %+v", st)
	}
	s := &flakySender{}
	if err := o.drainOnce(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	got := s.uploadsSent()
	if len(got) != 2 || got[0].ReportID != "r2" || got[1].ReportID != "r3" {
		t.Fatalf("sent %+v, want r2 then r3 (r1 evicted)", got)
	}
}

func TestOutboxTransportFailureLeavesQueue(t *testing.T) {
	o := newOutbox(8, time.Millisecond, 10*time.Millisecond, 1)
	var delivered []string
	var mu sync.Mutex
	note := func(id string) func(bool, string) {
		return func(ok bool, _ string) {
			mu.Lock()
			defer mu.Unlock()
			if ok {
				delivered = append(delivered, id)
			}
		}
	}
	o.Enqueue(up("r1"), note("r1"))
	o.Enqueue(up("r2"), note("r2"))
	s := &flakySender{failN: 1}
	if err := o.drainOnce(context.Background(), s); err == nil {
		t.Fatal("transport failure must surface")
	}
	if o.Pending() != 2 {
		t.Fatalf("pending = %d after transport failure, want 2 (nothing lost)", o.Pending())
	}
	if o.LastError() == "" {
		t.Fatal("LastError empty after failure")
	}
	if err := o.drainOnce(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if o.Pending() != 0 {
		t.Fatalf("pending = %d after recovery", o.Pending())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != 2 {
		t.Fatalf("delivered callbacks = %v", delivered)
	}
	if st := o.Stats(); st.Delivered != 2 || st.DroppedRefused != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOutboxBatchCoalescing(t *testing.T) {
	o := newOutbox(8, time.Millisecond, 10*time.Millisecond, 1)
	for _, id := range []string{"r1", "r2", "r3"} {
		o.Enqueue(up(id), nil)
	}
	s := &batchingSender{batchAck: &wire.Ack{OK: true, Code: 200}}
	if err := o.drainOnce(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if o.Pending() != 0 {
		t.Fatalf("pending = %d", o.Pending())
	}
	if s.batches != 1 {
		t.Fatalf("batches = %d, want 1 (coalesced)", s.batches)
	}
	if got := s.uploadsSent(); len(got) != 0 {
		t.Fatalf("individual sends = %d, want 0", len(got))
	}
	if st := o.Stats(); st.Delivered != 3 || st.BatchesSent != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOutboxBatchPartialFallsBackToSingles(t *testing.T) {
	o := newOutbox(8, time.Millisecond, 10*time.Millisecond, 1)
	var refusedReason string
	o.Enqueue(up("good-1"), nil)
	o.Enqueue(up("bad"), func(ok bool, reason string) {
		if !ok {
			refusedReason = reason
		}
	})
	o.Enqueue(up("good-2"), nil)
	s := &batchingSender{
		flakySender: flakySender{refuse: map[string]bool{"bad": true}},
		batchAck:    &wire.Ack{OK: false, Code: 207, Message: "1 of 3 refused"},
	}
	if err := o.drainOnce(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if o.Pending() != 0 {
		t.Fatalf("pending = %d", o.Pending())
	}
	if got := s.uploadsSent(); len(got) != 3 {
		t.Fatalf("singles fallback sent %d, want 3", len(got))
	}
	if refusedReason == "" || !strings.Contains(refusedReason, "corrupt") {
		t.Fatalf("refusal reason = %q", refusedReason)
	}
	if st := o.Stats(); st.Delivered != 2 || st.DroppedRefused != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// dyingSender answers 5xx for the first dieN sends — a server erroring
// mid-shutdown — then accepts.
type dyingSender struct {
	mu   sync.Mutex
	dieN int
}

func (s *dyingSender) Send(_ context.Context, m wire.Message) (wire.Message, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dieN > 0 {
		s.dieN--
		return &wire.Ack{OK: false, Code: 500, Message: "store: wal append: wal: log killed"}, nil
	}
	return &wire.Ack{OK: true, Code: 200}, nil
}

func TestOutboxServerErrorKeepsReportQueued(t *testing.T) {
	o := newOutbox(8, time.Millisecond, 10*time.Millisecond, 1)
	o.Enqueue(up("r1"), nil)
	o.Enqueue(up("r2"), nil)
	s := &dyingSender{dieN: 1}
	if err := o.drainOnce(context.Background(), s); err == nil {
		t.Fatal("a 5xx ack must surface as a retryable error")
	}
	if o.Pending() != 2 {
		t.Fatalf("pending = %d after 5xx ack, want 2 (nothing dropped)", o.Pending())
	}
	if err := o.drainOnce(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if o.Pending() != 0 {
		t.Fatalf("pending = %d after recovery", o.Pending())
	}
	if st := o.Stats(); st.Delivered != 2 || st.DroppedRefused != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOutboxBatchServerErrorSkipsSinglesProbe(t *testing.T) {
	o := newOutbox(8, time.Millisecond, 10*time.Millisecond, 1)
	o.Enqueue(up("r1"), nil)
	o.Enqueue(up("r2"), nil)
	s := &batchingSender{batchAck: &wire.Ack{OK: false, Code: 500, Message: "recovering"}}
	if err := o.drainOnce(context.Background(), s); err == nil {
		t.Fatal("a 5xx batch ack must surface as a retryable error")
	}
	if o.Pending() != 2 {
		t.Fatalf("pending = %d, want 2 (nothing dropped)", o.Pending())
	}
	if got := s.uploadsSent(); len(got) != 0 {
		t.Fatalf("singles probe sent %d reports at a failing server, want 0", len(got))
	}
}

func TestExecuteScheduleParksUploadWhenNetworkDown(t *testing.T) {
	s := &flakySender{failN: 1 << 30} // network down for now
	f, err := New(newPhone(t, world.Starbucks), s, WithOutboxRetry(transport.Retry{Base: time.Millisecond, Cap: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	sched := &wire.Schedule{TaskID: "t1", AppID: "a", UserID: "u",
		Script: "local t = get_temperature_readings(2, 1000) return #t",
		AtUnix: []int64{enter.Unix()}}
	upload, err := f.ExecuteSchedule(context.Background(), sched)
	if err != nil {
		t.Fatalf("a dead network must not fail the task: %v", err)
	}
	if upload.ReportID == "" || !strings.HasPrefix(upload.ReportID, "tok-1/t1/") {
		t.Fatalf("ReportID = %q", upload.ReportID)
	}
	info, _ := f.Task("t1")
	if info.State != TaskStateUploadPending {
		t.Fatalf("state = %v, want upload-pending", info.State)
	}
	if f.Outbox().Pending() != 1 {
		t.Fatalf("outbox pending = %d", f.Outbox().Pending())
	}

	// The network heals; a push-channel ping wake-up drains the outbox.
	s.mu.Lock()
	s.failN = 0
	s.mu.Unlock()
	if err := f.HandlePing(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.Outbox().Pending() != 0 {
		t.Fatalf("outbox pending = %d after ping drain", f.Outbox().Pending())
	}
	info, _ = f.Task("t1")
	if info.State != TaskStateDone {
		t.Fatalf("state = %v after delivery, want done", info.State)
	}
	if got := s.uploadsSent(); len(got) != 1 || got[0].ReportID != upload.ReportID {
		t.Fatalf("server got %+v", got)
	}
}

func TestExecuteScheduleUploadRefusedFailsTask(t *testing.T) {
	s := &flakySender{refuse: map[string]bool{"tok-1/t1/1": true}}
	f, err := New(newPhone(t, world.Starbucks), s)
	if err != nil {
		t.Fatal(err)
	}
	sched := &wire.Schedule{TaskID: "t1", AppID: "a", UserID: "u",
		Script: "return 0", AtUnix: []int64{enter.Unix()}}
	_, err = f.ExecuteSchedule(context.Background(), sched)
	if err == nil || !strings.Contains(err.Error(), "upload refused") {
		t.Fatalf("err = %v", err)
	}
	info, _ := f.Task("t1")
	if info.State != TaskStateFailed {
		t.Fatalf("state = %v", info.State)
	}
	if st := f.Outbox().Stats(); st.DroppedRefused != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReportIDsUniquePerDevice(t *testing.T) {
	s := &flakySender{}
	f, err := New(newPhone(t, world.Starbucks), s)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	for _, taskID := range []string{"a", "b", "c"} {
		upload, err := f.ExecuteSchedule(context.Background(), &wire.Schedule{
			TaskID: taskID, AppID: "app", UserID: "u",
			Script: "return 0", AtUnix: []int64{enter.Unix()}})
		if err != nil {
			t.Fatal(err)
		}
		if ids[upload.ReportID] {
			t.Fatalf("duplicate ReportID %q", upload.ReportID)
		}
		ids[upload.ReportID] = true
	}
}

func TestFlushOutboxRetriesUntilDelivered(t *testing.T) {
	s := &flakySender{failN: 3}
	f, err := New(newPhone(t, world.Starbucks), s,
		WithOutboxRetry(transport.Retry{Base: time.Millisecond, Cap: 4 * time.Millisecond, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ExecuteSchedule(context.Background(), &wire.Schedule{
		TaskID: "t1", AppID: "a", UserID: "u",
		Script: "return 0", AtUnix: []int64{enter.Unix()}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.FlushOutbox(ctx); err != nil {
		t.Fatal(err)
	}
	if f.Outbox().Pending() != 0 {
		t.Fatal("outbox not drained")
	}
	info, _ := f.Task("t1")
	if info.State != TaskStateDone {
		t.Fatalf("state = %v", info.State)
	}
}

// TestSensorGapDegradesGracefully pins satellite behavior: a sensor whose
// Bluetooth link keeps failing is skipped with a recorded gap, the task
// still completes, and the upload carries the healthy sensors' data.
func TestSensorGapDegradesGracefully(t *testing.T) {
	w, err := world.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	place, err := w.Place(world.Starbucks)
	if err != nil {
		t.Fatal(err)
	}
	phone, err := device.New(device.Config{
		ID: "phone-1", Token: "tok-1",
		Traj:                 device.Trajectory{Place: place, Enter: enter, Leave: leave},
		Seed:                 1,
		BluetoothFailureRate: 1, // the Sensordrone never answers
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &flakySender{}
	f, err := New(phone, s)
	if err != nil {
		t.Fatal(err)
	}
	sched := &wire.Schedule{TaskID: "t1", AppID: "a", UserID: "u",
		// temperature rides the (dead) Bluetooth link; wifi is embedded.
		Script: `
			local temps = get_temperature_readings(2, 1000)
			local wifi = get_wifi_rssi(2, 1000)
			return #wifi`,
		AtUnix: []int64{enter.Unix(), enter.Add(10 * time.Minute).Unix()}}
	upload, err := f.ExecuteSchedule(context.Background(), sched)
	if err != nil {
		t.Fatalf("flaky sensor must not fail the task: %v", err)
	}
	bySensor := make(map[string]int)
	for _, series := range upload.Series {
		bySensor[series.Sensor] = len(series.Samples)
	}
	if bySensor["temperature"] != 0 {
		t.Fatalf("dead sensor still produced samples: %v", bySensor)
	}
	if bySensor["wifi"] != 2 {
		t.Fatalf("healthy sensor lost data: %v", bySensor)
	}
	info, _ := f.Task("t1")
	if info.State != TaskStateDone {
		t.Fatalf("state = %v", info.State)
	}
	if len(info.Gaps) != 2 {
		t.Fatalf("gaps = %v, want one per instant", info.Gaps)
	}
	for _, g := range info.Gaps {
		if !strings.Contains(g, device.FnTemperature) {
			t.Fatalf("gap %q does not name the sensor", g)
		}
	}
	// Snapshots are copies: mutating one must not leak into the frontend.
	snap, _ := f.Task("t1")
	snap.Gaps[0] = "mutated"
	again, _ := f.Task("t1")
	if again.Gaps[0] == "mutated" {
		t.Fatal("Task() leaked the live Gaps slice")
	}
}

// LastError returns the most recent delivery error ("" when none).
func (o *Outbox) LastError() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lastErr
}
