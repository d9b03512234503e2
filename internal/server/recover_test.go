package server

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sor/internal/obs"
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
// stands: feature rows equal bit for bit, the same ledgers, executed
// instants and plans, the same present members — departed ones dropped
// from the live twin's maps as recovery never restores them — and the
// same schedule handed to the next phone.
// Recovery gets there with one replan per app, whatever the number of
// participations stored, and at every worker count: the test runs at
// GOMAXPROCS 1, 2 and 8 (`make recover-race` runs it under -race).
func TestRecoveryMatchesNeverRestartedTwin(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			recoveryMatchesTwin(t)
		})
	}
}

// twinApps is how many apps the twin test spreads over — more than any
// worker count it runs at. The last one never gets a member.
const twinApps = 18

func recoveryMatchesTwin(t *testing.T) {
	newClock := func() *tickingClock { return &tickingClock{now: t0, tick: 7 * time.Second} }
	open := func(storage store.Backend, db *store.Store, clock *tickingClock, o *obs.Observer) *Server {
		t.Helper()
		s, err := New(Config{Storage: storage, DB: db, Now: clock.Now, Catalog: DefaultCatalog(), Observer: o})
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
	durable := open(store.NewDurableBackend(dir), nil, clock, nil)
	twin := open(nil, store.New(), twinClock, nil)

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
	user := func(app, k int) string { return fmt.Sprintf("u%d-%d", app, k) }
	task := make(map[string]string) // user -> task ID
	join := func(app, k, budget int) *wire.Schedule {
		a := concApp(app)
		sched := both(&wire.Participate{UserID: user(app, k), Token: "tok-" + user(app, k), AppID: a.ID,
			Loc: wire.Location{Lat: a.Lat, Lon: a.Lon}, Budget: budget})
		task[user(app, k)] = sched.TaskID
		return sched
	}
	leave := func(app, k int) { both(&wire.Leave{UserID: user(app, k), AppID: concApp(app).ID}) }

	for i := 0; i < twinApps; i++ {
		for _, s := range []*Server{durable, twin} {
			if err := s.CreateApp(concApp(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Memberships: user 0 has a budget of 2, which its first report's three
	// instants cross. Some apps end on a leave, so recovery replans them as
	// of the stored departure, which has to be the instant the live replan
	// used.
	members, left := make([][]int, twinApps), make([][]int, twinApps)
	for i := 0; i < twinApps-1; i++ {
		join(i, 0, 2)
		join(i, 1, 3+i%3)
		join(i, 2, 4)
		members[i] = []int{0, 1, 2}
		if i%2 == 0 {
			leave(i, 1)
			left[i] = append(left[i], 1)
		}
		if i%3 == 0 {
			join(i, 3, 2)
			members[i] = append(members[i], 3)
		}
		if i%5 == 0 {
			leave(i, 0)
			left[i] = append(left[i], 0)
		}
	}

	// Uploads come after every app's last replan, so no plan on either
	// side has prior coverage in it yet. Each member sends two reports:
	// three scalar sensors at three instants, latest first, then four more
	// sensors and two GPS bursts.
	base := twinClock.peek()
	at := func(sec int) int64 { return base.Add(time.Duration(sec) * time.Second).UnixMilli() }
	reports := func(app, k int) []*wire.DataUpload {
		a, u := concApp(app), user(app, k)
		v := func(m int) float64 { return math.Sqrt(float64(2 + 7*app + 3*k + m)) }
		start := 60 * (k + 1)
		scalar := func(sec int, readings ...float64) []wire.SensorSample {
			return []wire.SensorSample{{AtUnixMilli: at(sec), WindowMilli: 5000, Readings: readings}}
		}
		burst := func(sec, points int) []wire.GeoPoint {
			out := make([]wire.GeoPoint, points)
			for j := range out {
				out[j] = wire.GeoPoint{AtUnixMilli: at(sec), Lat: a.Lat + 1e-4*float64(j),
					Lon: a.Lon + 1e-4*float64(j*j%3), Alt: v(j)}
			}
			return out
		}
		first := &wire.DataUpload{TaskID: task[u], AppID: a.ID, UserID: u, ReportID: task[u] + "/1",
			Series: []wire.SensorSeries{
				{Sensor: "temperature", Samples: append(append(scalar(start+40, 20+v(0), 21+v(1)),
					scalar(start+20, 22+v(2))...), scalar(start, 19+v(3))...)},
				{Sensor: "light", Samples: scalar(start+20, 300*v(4))},
				{Sensor: "microphone", Samples: scalar(start, v(5), -v(6), v(7))},
			}}
		second := &wire.DataUpload{TaskID: task[u], AppID: a.ID, UserID: u, ReportID: task[u] + "/2",
			Series: []wire.SensorSeries{
				{Sensor: "accelerometer", Samples: scalar(start+600, v(8), v(9)/2, v(10)/3)},
				{Sensor: "barometer", Samples: scalar(start+600, 1000+v(11), 1000-v(12))},
				{Sensor: "humidity", Samples: scalar(start+610, 40+v(13))},
				{Sensor: "wifi", Samples: scalar(start+610, -60-v(14))},
			},
			Track: append(burst(start+600, 4), burst(start+900, 3)...)}
		return []*wire.DataUpload{first, second}
	}
	// Apps i%3 == 0 send single reports; the other two of each triple share
	// one batch. Half the history is folded before the crash (archived
	// rows), the rest is still pending when it comes.
	var batch []wire.DataUpload
	for i := 0; i < twinApps-1; i++ {
		for _, k := range members[i] {
			for _, up := range reports(i, k) {
				if i%3 == 0 {
					both(up)
					continue
				}
				batch = append(batch, *up)
			}
		}
		if i%3 == 2 || i == twinApps-2 {
			both(&wire.DataUploadBatch{Uploads: batch})
			batch = nil
		}
		if i == twinApps/2 {
			durable.Processor().Process()
			twin.Processor().Process()
		}
	}
	both(reports(0, 0)[0]) // a retransmission: acked, stored and charged once
	// Three bodies stored under app 4 that no fold may take: one that is not
	// a frame, an upload naming app 5, and a well-framed message that is
	// not an upload. Each is a decode error, live and on recovery.
	foreign := *reports(5, 0)[0]
	foreign.ReportID = "foreign"
	badBodies := [][]byte{[]byte("not a report")}
	for _, m := range []wire.Message{&foreign, &wire.Ping{Token: "tok-ping"}} {
		frame, err := wire.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		badBodies = append(badBodies, frame)
	}
	for _, s := range []*Server{durable, twin} {
		if _, err := s.DB().Ingest(concApp(4).ID, badBodies, store.IngestOptions{Received: base}); err != nil {
			t.Fatal(err)
		}
	}
	twin.Processor().Process()
	if _, decodeErrors := twin.Processor().Stats(); decodeErrors != len(badBodies) {
		t.Fatalf("the live twin counted %d decode errors, stored %d bad bodies", decodeErrors, len(badBodies))
	}

	durable.Kill()
	clock = newClock()
	o := obs.NewObserver()
	durable = open(store.NewDurableBackend(dir), nil, clock, o)
	defer durable.Close()
	clock.set(twinClock.peek()) // recovery may have read the clock

	for i := 0; i < twinApps; i++ {
		id := concApp(i).ID
		if i == twinApps-1 {
			if durable.states.get(id) != nil || twin.states.get(id) != nil {
				t.Fatalf("%s: an app nobody joined has scheduling state", id)
			}
			continue
		}
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
		if got := durable.BudgetLedger(id)[user(i, 0)].Consumed; got != 2 {
			t.Fatalf("%s: user 0 consumed %d of a budget of 2", id, got)
		}
		if got, want := durable.ExecutedInstants(id), twin.ExecutedInstants(id); !reflect.DeepEqual(got, want) || len(got) == 0 {
			t.Fatalf("%s: executed after recovery %v, want %v", id, got, want)
		}
		// Departed members are gone from the live twin's member maps and
		// present list, as they are from what recovery rebuilt.
		recovered, live := presentMembers(durable, id), presentMembers(twin, id)
		if !reflect.DeepEqual(recovered, live) {
			t.Fatalf("%s: members after recovery %+v, the live twin has %+v", id, recovered, live)
		}
		tasks, tokens := sortedKeys(live.taskOf), sortedKeys(live.tokenOf)
		if !slices.Equal(tasks, live.present) || !slices.Equal(tokens, live.present) {
			t.Fatalf("%s: the twin's scheduler has %v present, its member maps %v and %v",
				id, live.present, tasks, tokens)
		}
		if n := len(live.present); n != len(members[i])-len(left[i]) {
			t.Fatalf("%s: %d members present, the script leaves %d", id, n, len(members[i])-len(left[i]))
		}
	}
	got, want := durable.DB().FeaturesByCategory(world.CategoryCoffee), twin.DB().FeaturesByCategory(world.CategoryCoffee)
	if len(got) != len(want) || len(got) != 8*(twinApps-1) {
		t.Fatalf("%d feature rows after recovery, twin has %d, want %d", len(got), len(want), 8*(twinApps-1))
	}
	for k := range got {
		g, w := got[k], want[k]
		if g.Place != w.Place || g.Feature != w.Feature || g.Samples != w.Samples ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			t.Fatalf("feature row %d after recovery %+v, twin %+v", k, g, w)
		}
	}
	stored := durable.DB().UploadCount()
	if processed, decodeErrors := durable.Processor().Stats(); processed != stored-len(badBodies) || decodeErrors != len(badBodies) {
		t.Fatalf("recovery folded %d of %d stored uploads with %d decode errors, want all but the %d bad ones",
			processed, stored, decodeErrors, len(badBodies))
	}
	snap := o.Metrics().Snapshot()
	if n := snap.Counters["sor_server_recovered_uploads_total"]; n != int64(stored) {
		t.Fatalf("sor_server_recovered_uploads_total = %d, store holds %d", n, stored)
	}
	for _, stage := range recoverStageNames {
		if h := snap.Histograms[`sor_server_recover_ms{stage="`+stage+`"}`]; h.Count != 1 {
			t.Fatalf("stage %s observed %d times in one recovery", stage, h.Count)
		}
	}

	// The next phones' plans are built on the recovered ledgers and prior
	// coverage; both compares the two schedules.
	for _, i := range []int{0, 7, twinApps - 2} {
		if sched := join(i, 9, 5); len(sched.AtUnix) == 0 {
			t.Fatalf("app %d: a new member got an empty schedule: %+v", i, sched)
		}
	}
}

// appMembers is an app's present membership as a server tracks it: the
// task and token maps the replan distributor reads, and the scheduler's
// present list.
type appMembers struct {
	taskOf, tokenOf map[string]string
	present         []string
}

func presentMembers(s *Server, appID string) appMembers {
	st := s.states.get(appID)
	st.mu.Lock()
	defer st.mu.Unlock()
	return appMembers{taskOf: maps.Clone(st.taskOf), tokenOf: maps.Clone(st.tokenOf), present: st.online.Present()}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestChargesTheEarliestInstantsOfAReport: a report with more distinct
// instants than the user has budget left charges the earliest ones, the
// same ones on every run and again after a kill→reopen, however the
// report lists them.
func TestChargesTheEarliestInstantsOfAReport(t *testing.T) {
	for run := 0; run < 8; run++ {
		dir := t.TempDir()
		clock := &virtualClock{now: t0}
		s := openDurable(t, dir, clock)
		if err := s.CreateApp(starbucksApp()); err != nil {
			t.Fatal(err)
		}
		sched := participate(t, s, "alice", "tok-a", 2)
		times := []time.Time{t0.Add(30 * time.Minute), t0.Add(10 * time.Minute), t0.Add(20 * time.Minute)}
		up := &wire.DataUpload{TaskID: sched.TaskID, AppID: "app-sb", UserID: "alice", ReportID: "r1",
			Series: []wire.SensorSeries{{Sensor: "temperature", Samples: []wire.SensorSample{
				{AtUnixMilli: times[0].UnixMilli(), WindowMilli: 5000, Readings: []float64{70}},
				{AtUnixMilli: times[1].UnixMilli(), WindowMilli: 5000, Readings: []float64{71}},
			}}},
			Track: []wire.GeoPoint{{AtUnixMilli: times[2].UnixMilli(), Lat: 43.0413, Lon: -76.1350}},
		}
		if ack, err := s.Handler()(nil, up); err != nil || !ack.(*wire.Ack).OK {
			t.Fatalf("upload: %+v, %v", ack, err)
		}
		tl := s.states.get("app-sb").timeline
		want := []int{tl.Index(times[1]), tl.Index(times[2])}
		if got := s.ExecutedInstants("app-sb"); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: charged instants %v, want the two earliest %v", run, got, want)
		}
		s.Kill()
		s = openDurable(t, dir, clock)
		if got := s.ExecutedInstants("app-sb"); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: after kill→reopen charged instants %v, want %v", run, got, want)
		}
		s.Kill()
	}
}

// BenchmarkRecover times one kill→reopen of a durable server holding 64
// apps' upload history — 8 000 reports, 512 under -short, from one member
// per app with a budget of 17: the store's open (snapshot plus WAL tail)
// and recoverState, what the end-to-end harness's recover_s measures on
// `ingest` from outside.
func BenchmarkRecover(b *testing.B) {
	apps, perApp := 64, 125
	if testing.Short() {
		perApp = 8
	}
	dir := b.TempDir()
	clock := &virtualClock{now: t0}
	open := func() *Server {
		s, err := New(Config{Storage: store.NewDurableBackend(dir), Now: clock.Now, Catalog: DefaultCatalog()})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Open(); err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := open()
	h := s.Handler()
	tasks := make([]string, apps)
	user := func(i int) string { return fmt.Sprintf("bench-user-%d", i) }
	for i := range tasks {
		if err := s.CreateApp(concApp(i)); err != nil {
			b.Fatal(err)
		}
		resp, err := h(nil, &wire.Participate{UserID: user(i), Token: "tok-" + user(i), AppID: concApp(i).ID,
			Loc: wire.Location{Lat: concApp(i).Lat, Lon: concApp(i).Lon}, Budget: 17})
		if err != nil {
			b.Fatal(err)
		}
		inner, err := wire.Decode(resp.(*wire.Ack).Payload)
		if err != nil {
			b.Fatal(err)
		}
		tasks[i] = inner.(*wire.Schedule).TaskID
	}
	for k := 0; k < perApp; k++ {
		batch := &wire.DataUploadBatch{}
		for i := range tasks {
			up := concReport(tasks[i], concApp(i).ID, user(i), t0.Add(time.Duration(k)*10*time.Second))
			up.ReportID = fmt.Sprintf("bench-%d-%d", i, k)
			batch.Uploads = append(batch.Uploads, *up)
		}
		if _, err := h(nil, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Kill()
		s = open()
	}
	b.StopTimer()
	if got := s.DB().UploadCount(); got != apps*perApp {
		b.Fatalf("reopened store holds %d uploads, want %d", got, apps*perApp)
	}
	s.Kill()
}
