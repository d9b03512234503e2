package server

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sor/internal/store"
	"sor/internal/wire"
	"sor/internal/world"
)

// openDurable builds a server over a durable backend rooted at dir and
// recovers it. Each call is one server incarnation.
func openDurable(t *testing.T, dir string, clock *virtualClock) *Server {
	t.Helper()
	s, err := New(Config{
		Storage: store.NewDurableBackend(dir),
		Now:     clock.Now,
		Catalog: DefaultCatalog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDurableServerCrashRecovery is the server-level recovery contract:
// after a kill (no checkpoint, no WAL flush beyond acked writes), a new
// incarnation over the same data dir serves the same schedules, keeps the
// budget ledger and dedup window, refolds the feature matrix, and never
// reissues a persisted task ID.
func TestDurableServerCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	clock := &virtualClock{now: t0}

	s1 := openDurable(t, dir, clock)
	if err := s1.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	sched := participate(t, s1, "alice", "tok-a", 6)
	up := uploadFor(sched, "tok-a/"+sched.TaskID+"/1")
	if resp, err := s1.Handler()(nil, up); err != nil {
		t.Fatal(err)
	} else if ack := resp.(*wire.Ack); !ack.OK {
		t.Fatalf("upload refused: %+v", ack)
	}
	wantExecuted := len(s1.ExecutedInstants("app-sb"))
	wantConsumed := s1.BudgetLedger("app-sb")["alice"].Consumed

	// A participation row whose scheduler join never committed (crash
	// mid-participate): recovery must orphan it, not resurrect it.
	if err := s1.DB().PutParticipation(store.Participation{
		TaskID: "task-999", AppID: "app-sb", UserID: "carol", Token: "tok-c",
		Status: store.TaskWaiting, Joined: clock.Now(), Budget: 3,
	}); err != nil {
		t.Fatal(err)
	}

	s1.Kill() // crash: no checkpoint, acked writes only

	s2 := openDurable(t, dir, clock)
	defer s2.Close()

	// The phone's schedule survives and is re-served on ping.
	resp, err := s2.Handler()(nil, &wire.Ping{Token: "tok-a"})
	if err != nil {
		t.Fatal(err)
	}
	ack := resp.(*wire.Ack)
	if !ack.OK || len(ack.Payload) == 0 {
		t.Fatalf("ping after recovery = %+v", ack)
	}
	inner, err := wire.Decode(ack.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if restored := inner.(*wire.Schedule); restored.TaskID != sched.TaskID ||
		len(restored.AtUnix) != len(sched.AtUnix) {
		t.Fatalf("schedule changed across crash: %+v vs %+v", restored, sched)
	}

	// Budget ledger and coverage replayed from the stored uploads.
	if got := s2.BudgetLedger("app-sb")["alice"].Consumed; got != wantConsumed {
		t.Fatalf("consumed after recovery = %d, want %d", got, wantConsumed)
	}
	if got := len(s2.ExecutedInstants("app-sb")); got != wantExecuted {
		t.Fatalf("executed after recovery = %d, want %d", got, wantExecuted)
	}

	// Feature matrix refolded during Open — no manual Process needed.
	if _, err := s2.DB().Feature(world.CategoryCoffee, world.Starbucks, "temperature"); err != nil {
		t.Fatalf("features not refolded on recovery: %v", err)
	}

	// The dedup window survives: a pre-crash report retransmitted to the
	// new incarnation acks OK but is a duplicate — stored and charged once.
	resp, err = s2.Handler()(nil, up)
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); !ack.OK || !strings.Contains(ack.Message, "duplicate") {
		t.Fatalf("replay across crash = %+v, want duplicate ack", ack)
	}
	if got := s2.BudgetLedger("app-sb")["alice"].Consumed; got != wantConsumed {
		t.Fatalf("replay across crash double-charged: %d", got)
	}

	// The orphaned Waiting row was flipped to TaskError, and carol can
	// join for real now.
	if p, err := s2.DB().Participation("task-999"); err != nil || p.Status != store.TaskError {
		t.Fatalf("waiting row after recovery = %+v, %v (want TaskError)", p, err)
	}
	carolSched := participate(t, s2, "carol", "tok-c2", 3)

	// taskSeq recovered past every persisted ID: new tasks collide with
	// neither alice's nor the orphaned task-999.
	for _, taken := range []string{sched.TaskID, "task-999"} {
		if carolSched.TaskID == taken {
			t.Fatalf("task ID %s reissued after crash", taken)
		}
	}
	if n := taskNumber(carolSched.TaskID); n <= 999 {
		t.Fatalf("task counter not recovered: issued %s after task-999", carolSched.TaskID)
	}

	// Post-recovery uploads for the surviving task keep working.
	up2 := uploadFor(sched, "tok-a/"+sched.TaskID+"/2")
	up2.Series[0].Samples = up2.Series[0].Samples[:1]
	up2.Series[0].Samples[0].AtUnixMilli = t0.Add(2 * time.Minute).UnixMilli()
	if resp, err := s2.Handler()(nil, up2); err != nil {
		t.Fatal(err)
	} else if ack := resp.(*wire.Ack); !ack.OK || strings.Contains(ack.Message, "duplicate") {
		t.Fatalf("fresh post-recovery upload = %+v", ack)
	}
}

// TestDurableServerOpenClose pins the Open/Close lifecycle errors: a
// Config.DB server is born open, a Storage server must be opened exactly
// once, and dispatch before Open refuses cleanly instead of panicking.
func TestDurableServerOpenClose(t *testing.T) {
	clock := &virtualClock{now: t0}
	s, err := New(Config{
		Storage: store.NewDurableBackend(t.TempDir()),
		Now:     clock.Now,
		Catalog: DefaultCatalog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Handler()(nil, &wire.Ping{Token: "tok"}); err == nil {
		t.Fatal("dispatch before Open must error")
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if err := s.Open(); err == nil {
		t.Fatal("double Open must error")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	memory, err := New(Config{DB: store.New(), Now: clock.Now, Catalog: DefaultCatalog()})
	if err != nil {
		t.Fatal(err)
	}
	if err := memory.Open(); err == nil {
		t.Fatal("Open without a storage backend must error")
	}
	if err := memory.Close(); err != nil {
		t.Fatalf("Close on a Config.DB server must be a no-op: %v", err)
	}

	if _, err := New(Config{
		DB:      store.New(),
		Storage: store.NewDurableBackend(t.TempDir()),
		Now:     clock.Now,
		Catalog: DefaultCatalog(),
	}); err == nil {
		t.Fatal("DB and Storage together must be rejected")
	}
}

// tickingClock advances on every reading, so two readings inside one
// handler are two different instants.
type tickingClock struct {
	mu   sync.Mutex
	now  time.Time
	tick time.Duration
}

func (c *tickingClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.tick)
	return c.now
}

func (c *tickingClock) peek() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *tickingClock) set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = t
}

// TestRecoveryMatchesNeverRestartedTwin drives joins, leaves and uploads
// into a durable server and an in-memory twin on equal clocks, kills and
// reopens the durable one, and requires it to stand where the twin
// stands: same plans, ledgers and executed instants, and the same
// schedule handed to the next phone. Recovery gets there with one replan
// per app, whatever the number of participations stored.
func TestRecoveryMatchesNeverRestartedTwin(t *testing.T) {
	apps := []string{"app-sb", "app-sb2"}
	newClock := func() *tickingClock { return &tickingClock{now: t0, tick: 7 * time.Second} }
	open := func(storage store.Backend, db *store.Store, clock *tickingClock) *Server {
		t.Helper()
		s, err := New(Config{Storage: storage, DB: db, Now: clock.Now, Catalog: DefaultCatalog()})
		if err != nil {
			t.Fatal(err)
		}
		if storage != nil {
			if err := s.Open(); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	dir := t.TempDir()
	clock, twinClock := newClock(), newClock()
	durable := open(store.NewDurableBackend(dir), nil, clock)
	twin := open(nil, store.New(), twinClock)

	send := func(s *Server, m wire.Message) *wire.Ack {
		t.Helper()
		resp, err := s.Handler()(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		ack := resp.(*wire.Ack)
		if !ack.OK {
			t.Fatalf("%T refused: %+v", m, ack)
		}
		return ack
	}
	// both applies one op to the two servers and returns the schedule a
	// Participate came back with, after checking both got the same one.
	both := func(m wire.Message) *wire.Schedule {
		t.Helper()
		var scheds [2]*wire.Schedule
		for i, s := range []*Server{durable, twin} {
			ack := send(s, m)
			if _, ok := m.(*wire.Participate); !ok {
				continue
			}
			inner, err := wire.Decode(ack.Payload)
			if err != nil {
				t.Fatal(err)
			}
			scheds[i] = inner.(*wire.Schedule)
		}
		if !reflect.DeepEqual(scheds[0], scheds[1]) {
			t.Fatalf("%+v answered\n durable %+v\n twin    %+v", m, scheds[0], scheds[1])
		}
		return scheds[0]
	}
	join := func(app, user string, budget int) *wire.Schedule {
		return both(&wire.Participate{UserID: user, Token: "tok-" + user, AppID: app,
			Loc: wire.Location{Lat: 43.0413, Lon: -76.1350}, Budget: budget})
	}
	upload := func(sched *wire.Schedule, nth int) {
		both(&wire.DataUpload{
			TaskID: sched.TaskID, AppID: sched.AppID, UserID: sched.UserID,
			ReportID: fmt.Sprintf("%s/%d", sched.TaskID, nth),
			Series: []wire.SensorSeries{{Sensor: "temperature", Samples: []wire.SensorSample{
				{AtUnixMilli: sched.AtUnix[nth] * 1000, WindowMilli: 5000, Readings: []float64{72.5}},
			}}},
		})
	}

	for _, id := range apps {
		app := starbucksApp()
		app.ID = id
		for _, s := range []*Server{durable, twin} {
			if err := s.CreateApp(app); err != nil {
				t.Fatal(err)
			}
		}
	}
	join("app-sb", "alice", 6)
	join("app-sb", "bob", 4)
	carol := join("app-sb2", "carol", 5)
	both(&wire.Leave{UserID: "alice", AppID: "app-sb"})
	join("app-sb", "dave", 3)
	join("app-sb2", "erin", 2)
	// The last event of app-sb2 is a leave: recovery replans it as of the
	// stored departure, which has to be the instant the live replan used.
	both(&wire.Leave{UserID: "erin", AppID: "app-sb2"})
	// Uploads come after the last replan of either app, so no plan on
	// either side has prior coverage in it yet.
	bob, err := durable.scheduleFor(starbucksApp(), durable.states.get("app-sb"), "bob")
	if err != nil {
		t.Fatal(err)
	}
	upload(bob, 0)
	upload(bob, 1)
	upload(carol, 0)

	durable.Kill()
	clock = newClock()
	durable = open(store.NewDurableBackend(dir), nil, clock)
	defer durable.Close()
	clock.set(twinClock.peek()) // recovery may have read the clock

	for _, id := range apps {
		if got := durable.states.get(id).online.Replans(); got != 1 {
			t.Fatalf("%s: recovery ran %d replans, want 1", id, got)
		}
		got, err := durable.PlanSnapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.PlanSnapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: plan after recovery\n got  %+v\n want %+v", id, got, want)
		}
		if got, want := durable.BudgetLedger(id), twin.BudgetLedger(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ledger after recovery %+v, want %+v", id, got, want)
		}
		if got, want := durable.ExecutedInstants(id), twin.ExecutedInstants(id); !reflect.DeepEqual(got, want) || len(got) == 0 {
			t.Fatalf("%s: executed after recovery %v, want %v", id, got, want)
		}
	}
	// The next phone's plan is built on the recovered ledger and prior
	// coverage; both compares the two schedules.
	if frank := join("app-sb", "frank", 5); len(frank.AtUnix) == 0 {
		t.Fatalf("frank got an empty schedule: %+v", frank)
	}
	join("app-sb2", "grace", 4)
}
