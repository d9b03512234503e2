package server

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sor/internal/store"
	"sor/internal/transport/session"
	"sor/internal/wire"
	"sor/internal/world"
)

var t0 = time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC)

// virtualClock is a settable clock for tests.
type virtualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *virtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *virtualClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = t
}

const testScript = `
	local t = get_temperature_readings(3, 5000)
	return #t
`

func newTestServer(t *testing.T) (*Server, *virtualClock) {
	t.Helper()
	clock := &virtualClock{now: t0}
	s, err := New(Config{
		DB:      store.New(),
		Now:     clock.Now,
		Catalog: DefaultCatalog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, clock
}

func starbucksApp() store.Application {
	return store.Application{
		ID:       "app-sb",
		Creator:  "owner",
		Category: world.CategoryCoffee,
		Place:    world.Starbucks,
		Lat:      43.0413, Lon: -76.1350,
		RadiusM:   60,
		Script:    testScript,
		PeriodSec: 10800,
	}
}

func participate(t *testing.T, s *Server, userID, token string, budget int) *wire.Schedule {
	t.Helper()
	resp, err := s.Handler()(nil, &wire.Participate{
		UserID: userID, Token: token, AppID: "app-sb",
		Loc:    wire.Location{Lat: 43.0413, Lon: -76.1350},
		Budget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	ack := resp.(*wire.Ack)
	if !ack.OK {
		t.Fatalf("participation refused: %s", ack.Message)
	}
	inner, err := wire.Decode(ack.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return inner.(*wire.Schedule)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Catalog: DefaultCatalog()}); err == nil {
		t.Fatal("nil store must error")
	}
	if _, err := New(Config{DB: store.New()}); err == nil {
		t.Fatal("empty catalog must error")
	}
}

func TestCreateAppValidation(t *testing.T) {
	s, _ := newTestServer(t)
	app := starbucksApp()
	app.PeriodSec = 0
	if err := s.CreateApp(app); err == nil {
		t.Fatal("zero period must error")
	}
	app = starbucksApp()
	app.RadiusM = 0
	if err := s.CreateApp(app); err == nil {
		t.Fatal("zero radius must error")
	}
	app = starbucksApp()
	app.Script = ""
	if err := s.CreateApp(app); err == nil {
		t.Fatal("empty script must error")
	}
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateApp(starbucksApp()); err == nil {
		t.Fatal("duplicate app must error")
	}
}

// TestCreateAppRefusesScript: a script outside the task language is an
// app-creation error naming its position, and nothing is stored.
func TestCreateAppRefusesScript(t *testing.T) {
	s, _ := newTestServer(t)
	for _, c := range []struct{ script, want string }{
		{"local t = get_temperature_readings(3, 5000)\nwhile true do end", "2:1: while loops are not supported"},
		{"local t = get_temprature_readings(3, 5000)", `1:11: unknown name "get_temprature_readings"`},
		{"return string.format('%d', 1)", `1:8: unknown name "string"`},
	} {
		app := starbucksApp()
		app.Script = c.script
		if err := s.CreateApp(app); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("CreateApp(%q) = %v, want %q", c.script, err, c.want)
		}
		if _, err := s.db.App(app.ID); err == nil {
			t.Fatalf("refused app %q was stored", c.script)
		}
	}
}

// TestCreateAppAcceptsShippedScripts: every sensing script the repository
// ships (the `const …Script` literals of the field test, the chaos soaks
// and the fleet simulator, read from source because those packages import
// this one) passes app creation.
func TestCreateAppAcceptsShippedScripts(t *testing.T) {
	lit := regexp.MustCompile("(?m)^const (\\w+Script) = `([^`]*)`")
	found := 0
	for _, file := range []string{"../fieldtest/fieldtest.go", "../chaos/fixture.go", "../fleetsim/fleetsim.go"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range lit.FindAllStringSubmatch(string(src), -1) {
			s, _ := newTestServer(t)
			app := starbucksApp()
			app.Script = m[2]
			if err := s.CreateApp(app); err != nil {
				t.Errorf("%s: %v", m[1], err)
			}
			found++
		}
	}
	if found != 4 {
		t.Fatalf("found %d shipped scripts, want 4", found)
	}
}

func TestParticipateHappyPath(t *testing.T) {
	s, _ := newTestServer(t)
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	sched := participate(t, s, "alice", "tok-a", 10)
	if sched.UserID != "alice" || sched.AppID != "app-sb" {
		t.Fatalf("schedule = %+v", sched)
	}
	if sched.Script != testScript {
		t.Fatal("schedule must carry the app's Lua script")
	}
	if len(sched.AtUnix) != 10 {
		t.Fatalf("scheduled %d instants, want full budget 10", len(sched.AtUnix))
	}
	// Instants are inside the period and sorted.
	for i, at := range sched.AtUnix {
		tm := time.Unix(at, 0).UTC()
		if tm.Before(t0) || tm.After(t0.Add(3*time.Hour+time.Minute)) {
			t.Fatalf("instant %v outside period", tm)
		}
		if i > 0 && at <= sched.AtUnix[i-1] {
			t.Fatalf("instants not sorted: %v", sched.AtUnix)
		}
	}
	// Participation row exists and is running.
	p, err := s.DB().ActiveParticipationByUser("app-sb", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if p.Status != store.TaskRunning || p.Budget != 10 {
		t.Fatalf("participation = %+v", p)
	}
	// User auto-registered.
	if _, err := s.DB().User("alice"); err != nil {
		t.Fatal(err)
	}
}

func TestParticipateGeofenceRefusal(t *testing.T) {
	s, _ := newTestServer(t)
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Handler()(nil, &wire.Participate{
		UserID: "cheater", Token: "tok", AppID: "app-sb",
		Loc:    wire.Location{Lat: 40.7128, Lon: -74.0060}, // NYC
		Budget: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ack := resp.(*wire.Ack)
	if ack.OK || !strings.Contains(ack.Message, "location check failed") {
		t.Fatalf("ack = %+v", ack)
	}
}

func TestParticipateValidationRefusals(t *testing.T) {
	s, _ := newTestServer(t)
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	cases := []*wire.Participate{
		{Token: "t", AppID: "app-sb", Budget: 1},             // no user
		{UserID: "u", AppID: "app-sb", Budget: 1},            // no token
		{UserID: "u", Token: "t", AppID: "app-sb"},           // no budget
		{UserID: "u", Token: "t", AppID: "ghost", Budget: 1}, // unknown app
	}
	for i, msg := range cases {
		resp, err := s.Handler()(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		if ack := resp.(*wire.Ack); ack.OK {
			t.Fatalf("case %d accepted: %+v", i, ack)
		}
	}
}

func TestParticipateDoubleJoinRefused(t *testing.T) {
	s, _ := newTestServer(t)
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	participate(t, s, "alice", "tok-a", 5)
	resp, err := s.Handler()(nil, &wire.Participate{
		UserID: "alice", Token: "tok-a", AppID: "app-sb",
		Loc:    wire.Location{Lat: 43.0413, Lon: -76.1350},
		Budget: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); ack.OK || !strings.Contains(ack.Message, "already participating") {
		t.Fatalf("ack = %+v", ack)
	}
}

// TestParticipateAfterPeriodEndWritesNothing: a scan after the app's
// period has ended has an empty presence window. It is refused with a
// 4xx before any row is written, so the same scan later gets the same
// answer rather than a 409 from a stranded waiting task.
func TestParticipateAfterPeriodEndWritesNothing(t *testing.T) {
	s, clock := newTestServer(t)
	if err := s.CreateApp(starbucksApp()); err != nil { // 3 h period
		t.Fatal(err)
	}
	participate(t, s, "alice", "tok-a", 5)
	clock.Set(t0.Add(4 * time.Hour))
	for _, user := range []string{"bob", "carol", "bob"} {
		resp, err := s.Handler()(nil, &wire.Participate{UserID: user, Token: "tok-" + user, AppID: "app-sb",
			Loc: wire.Location{Lat: 43.0413, Lon: -76.1350}, Budget: 5})
		if ack, ok := resp.(*wire.Ack); err != nil || !ok || ack.OK || ack.Code != 410 {
			t.Fatalf("%s's scan after the period: %+v, %v; want a 410 refusal", user, resp, err)
		}
		if _, err := s.db.User(user); err == nil {
			t.Fatalf("refused scan registered user %s", user)
		}
	}
	for _, p := range s.db.ParticipationsByApp("app-sb") {
		if p.UserID != "alice" || p.LeaveBy.Before(p.Joined) {
			t.Fatalf("stored participation %+v; want only alice's, leaving after joining", p)
		}
	}
}

func TestSecondJoinRedistributesSchedules(t *testing.T) {
	s, clock := newTestServer(t)
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	first := participate(t, s, "alice", "tok-a", 8)
	clock.Set(t0.Add(5 * time.Minute))
	participate(t, s, "bob", "tok-b", 8)
	// Alice's stored schedule was recomputed at Bob's join.
	row, err := s.DB().Schedule(first.TaskID)
	if err != nil {
		t.Fatal(err)
	}
	if len(row.AtUnix) == 0 {
		t.Fatal("alice lost her schedule entirely")
	}
	// Combined coverage should exceed a single user's plan.
	plan, err := s.PlanSnapshot("app-sb")
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalCoverage <= 0 {
		t.Fatal("plan has no coverage")
	}
	// No instant is double-booked between the two users.
	bobRow, err := s.DB().Schedule("task-2")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	for _, at := range row.AtUnix {
		seen[at] = true
	}
	for _, at := range bobRow.AtUnix {
		if seen[at] {
			t.Fatalf("instant %d double-booked", at)
		}
	}
}

func TestPingReturnsLatestSchedule(t *testing.T) {
	s, clock := newTestServer(t)
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	participate(t, s, "alice", "tok-a", 6)
	clock.Set(t0.Add(3 * time.Minute))
	participate(t, s, "bob", "tok-b", 6)
	resp, err := s.Handler()(nil, &wire.Ping{Token: "tok-a"})
	if err != nil {
		t.Fatal(err)
	}
	ack := resp.(*wire.Ack)
	if !ack.OK || len(ack.Payload) == 0 {
		t.Fatalf("ping ack = %+v", ack)
	}
	inner, err := wire.Decode(ack.Payload)
	if err != nil {
		t.Fatal(err)
	}
	sched := inner.(*wire.Schedule)
	if sched.UserID != "alice" {
		t.Fatalf("ping returned %s's schedule", sched.UserID)
	}
	// Unknown token.
	resp, err = s.Handler()(nil, &wire.Ping{Token: "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); ack.OK {
		t.Fatal("unknown token should be refused")
	}
}

func TestLeaveFinishesAndReplans(t *testing.T) {
	s, clock := newTestServer(t)
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	sched := participate(t, s, "alice", "tok-a", 6)
	participate(t, s, "bob", "tok-b", 6)
	clock.Set(t0.Add(10 * time.Minute))
	resp, err := s.Handler()(nil, &wire.Leave{UserID: "alice", AppID: "app-sb"})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); !ack.OK {
		t.Fatalf("leave refused: %+v", ack)
	}
	p, err := s.DB().Participation(sched.TaskID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Status != store.TaskFinished || p.Left.IsZero() {
		t.Fatalf("participation after leave = %+v", p)
	}
	// Second leave refused.
	resp, err = s.Handler()(nil, &wire.Leave{UserID: "alice", AppID: "app-sb"})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); ack.OK {
		t.Fatal("double leave should be refused")
	}
}

func TestDataUploadStoredAndProcessed(t *testing.T) {
	s, _ := newTestServer(t)
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	sched := participate(t, s, "alice", "tok-a", 6)
	upload := &wire.DataUpload{
		TaskID: sched.TaskID, AppID: "app-sb", UserID: "alice",
		Series: []wire.SensorSeries{{
			Sensor: "temperature",
			Samples: []wire.SensorSample{
				{AtUnixMilli: t0.UnixMilli(), WindowMilli: 5000, Readings: []float64{72.5, 73.5}},
				{AtUnixMilli: t0.Add(time.Minute).UnixMilli(), WindowMilli: 5000, Readings: []float64{73.0}},
			},
		}},
	}
	resp, err := s.Handler()(nil, upload)
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); !ack.OK {
		t.Fatalf("upload refused: %+v", ack)
	}
	if s.DB().PendingUploads() != 1 {
		t.Fatal("raw blob not landed")
	}
	if n := s.Processor().Process(); n != 1 {
		t.Fatalf("processed %d uploads", n)
	}
	row, err := s.DB().Feature(world.CategoryCoffee, world.Starbucks, "temperature")
	if err != nil {
		t.Fatal(err)
	}
	if row.Value != 73 || row.Samples != 2 {
		t.Fatalf("feature row = %+v", row)
	}
}

func TestDataUploadValidation(t *testing.T) {
	s, _ := newTestServer(t)
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	sched := participate(t, s, "alice", "tok-a", 6)
	// Unknown task.
	resp, err := s.Handler()(nil, &wire.DataUpload{TaskID: "ghost", AppID: "app-sb", UserID: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); ack.OK {
		t.Fatal("unknown task should be refused")
	}
	// Mismatched user.
	resp, err = s.Handler()(nil, &wire.DataUpload{TaskID: sched.TaskID, AppID: "app-sb", UserID: "mallory"})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); ack.OK {
		t.Fatal("mismatched upload should be refused")
	}
}

func TestRankRequestEndToEnd(t *testing.T) {
	s, _ := newTestServer(t)
	// Three coffee-shop apps with direct feature rows (bypassing sensing).
	shops := []struct {
		id, place                  string
		temp, bright, noiseV, wifi float64
	}{
		{"app-th", world.TimHortons, 66, 1000, 0.05, -62},
		{"app-bn", world.BNCafe, 71, 400, 0.08, -50},
		{"app-sb", world.Starbucks, 73, 150, 0.18, -72},
	}
	for _, sh := range shops {
		if err := s.CreateApp(store.Application{
			ID: sh.id, Category: world.CategoryCoffee, Place: sh.place,
			Lat: 43, Lon: -76, RadiusM: 60, Script: "return 0", PeriodSec: 10800,
		}); err != nil {
			t.Fatal(err)
		}
		for f, v := range map[string]float64{
			"temperature": sh.temp, "brightness": sh.bright,
			"noise": sh.noiseV, "wifi": sh.wifi,
		} {
			if err := s.DB().UpsertFeature(store.FeatureRow{
				Category: world.CategoryCoffee, Place: sh.place, Feature: f, Value: v,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Emma's profile (Table II): B&N, Tim Hortons, Starbucks.
	resp, err := s.Handler()(nil, &wire.RankRequest{
		Category: world.CategoryCoffee,
		UserID:   "emma",
		Prefs: []wire.PrefEntry{
			{Feature: "temperature", Kind: 1, Value: 71, Weight: 4},
			{Feature: "noise", Kind: 2, Weight: 4},
			{Feature: "wifi", Kind: 3, Weight: 5},
			{Feature: "brightness", Kind: 3, Weight: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := resp.(*wire.RankResponse)
	if !ok {
		t.Fatalf("response = %+v", resp)
	}
	want := []string{world.BNCafe, world.TimHortons, world.Starbucks}
	for i, place := range want {
		if rr.Ranked[i].Place != place {
			t.Fatalf("rank %d = %s, want %s (full: %+v)", i+1, rr.Ranked[i].Place, place, rr.Ranked)
		}
	}
	if len(rr.Features) != 4 || len(rr.Ranked[0].FeatureValues) != 4 {
		t.Fatalf("feature data missing: %+v", rr)
	}
	// Unknown category refused.
	resp, err = s.Handler()(nil, &wire.RankRequest{Category: "nope", UserID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := resp.(*wire.Ack); !ok || ack.OK {
		t.Fatalf("unknown category should be refused, got %+v", resp)
	}
}

func TestRankRequestKindValueTranslation(t *testing.T) {
	// Kind 4 in the previous test was PrefDefault; make sure explicit
	// PrefValue (kind 1) also works through the wire.
	s, _ := newTestServer(t)
	if err := s.CreateApp(store.Application{
		ID: "a1", Category: world.CategoryCoffee, Place: "P1",
		Lat: 43, Lon: -76, RadiusM: 10, Script: "return 0", PeriodSec: 60,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateApp(store.Application{
		ID: "a2", Category: world.CategoryCoffee, Place: "P2",
		Lat: 43, Lon: -76, RadiusM: 10, Script: "return 0", PeriodSec: 60,
	}); err != nil {
		t.Fatal(err)
	}
	for place, temp := range map[string]float64{"P1": 60, "P2": 70} {
		for _, f := range []string{"temperature", "brightness", "noise", "wifi"} {
			v := temp
			if f != "temperature" {
				v = 1
			}
			if err := s.DB().UpsertFeature(store.FeatureRow{
				Category: world.CategoryCoffee, Place: place, Feature: f, Value: v,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	resp, err := s.Handler()(nil, &wire.RankRequest{
		Category: world.CategoryCoffee, UserID: "u",
		Prefs: []wire.PrefEntry{
			{Feature: "temperature", Kind: 1, Value: 59, Weight: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rr := resp.(*wire.RankResponse)
	if rr.Ranked[0].Place != "P1" {
		t.Fatalf("PrefValue 59 should rank P1 first: %+v", rr.Ranked)
	}
}

// TestPushNotificationsOnReplan drives the server's push path through a
// real session registry: a replan pushes a member with a live session
// exactly when it moved their instants, and what it pushes is the schedule
// their Ping returns; a member without a session does not fail the join;
// and a rank epoch is announced to every session exactly when it advances.
func TestPushNotificationsOnReplan(t *testing.T) {
	registry := session.NewRegistry()
	clock := &virtualClock{now: t0}
	s, err := New(Config{
		DB: store.New(), Now: clock.Now, Catalog: DefaultCatalog(), Push: registry,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	alice, _, err := registry.Attach("tok-a", nil)
	if err != nil {
		t.Fatal(err)
	}
	pinged := func() *wire.Schedule {
		t.Helper()
		resp, err := s.Handler()(nil, &wire.Ping{Token: "tok-a"})
		if err != nil {
			t.Fatal(err)
		}
		inner, err := wire.Decode(resp.(*wire.Ack).Payload)
		if err != nil {
			t.Fatal(err)
		}
		return inner.(*wire.Schedule)
	}
	wantOnePush := func(when string, want wire.Message) {
		t.Helper()
		got := alice.TakePending()
		if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Fatalf("%s: alice's session holds %+v, want exactly %+v", when, got, want)
		}
	}
	sched := participate(t, s, "alice", "tok-a", 4)
	wantOnePush("after her own join", pinged())
	// Bob joins at the same instant and never connected a stream: his push
	// fails, his join must not. The replan plans alice where she was, so
	// she hears nothing.
	participate(t, s, "bob", "tok-b", 4)
	if got := pinged(); !reflect.DeepEqual(got, sched) {
		t.Fatalf("bob's join moved alice from %v to %v; this step needs a join that does not", sched.AtUnix, got.AtUnix)
	}
	if got := alice.TakePending(); len(got) != 0 {
		t.Fatalf("a replan that left alice's instants alone pushed her %+v", got)
	}
	// Carol joins five minutes in: alice's window now starts later, her
	// instants move, and she is pushed the moved schedule once.
	clock.Set(t0.Add(5 * time.Minute))
	participate(t, s, "carol", "tok-c", 4)
	moved := pinged()
	if reflect.DeepEqual(moved, sched) {
		t.Fatalf("carol's join left alice at %v; this step needs a join that moves her", sched.AtUnix)
	}
	wantOnePush("after carol's join moved her", moved)

	// Rank epochs. The first build is epoch 1.
	for _, f := range []string{"temperature", "brightness", "noise", "wifi"} {
		if err := s.DB().UpsertFeature(store.FeatureRow{
			Category: world.CategoryCoffee, Place: world.Starbucks, Feature: f, Value: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	rank := func() int64 {
		t.Helper()
		resp, err := s.Handler()(nil, &wire.RankRequest{Category: world.CategoryCoffee, UserID: "alice"})
		if err != nil {
			t.Fatal(err)
		}
		return resp.(*wire.RankResponse).Epoch
	}
	if epoch := rank(); epoch != 1 {
		t.Fatalf("first rank served epoch %d", epoch)
	}
	wantOnePush("after the first build", &wire.EpochInvalidate{Category: world.CategoryCoffee, Epoch: 1})
	// An ingest that changes a feature: the next rank folds it into
	// epoch 2 and says so once.
	if resp, err := s.Handler()(nil, uploadFor(sched, "tok-a/"+sched.TaskID+"/1")); err != nil || !resp.(*wire.Ack).OK {
		t.Fatalf("upload: %+v, %v", resp, err)
	}
	if epoch := rank(); epoch != 2 {
		t.Fatalf("rank after a feature change served epoch %d, want 2", epoch)
	}
	wantOnePush("after the feature change", &wire.EpochInvalidate{Category: world.CategoryCoffee, Epoch: 2})
	// Traffic that moves nothing in this category marks the snapshot
	// stale (UploadSeq is store-global) but re-arms the same epoch:
	// nothing to announce.
	if _, err := s.DB().Ingest("some-other-app", [][]byte{[]byte("not a report")}, store.IngestOptions{Received: t0}); err != nil {
		t.Fatal(err)
	}
	if epoch := rank(); epoch != 2 {
		t.Fatalf("re-arm served epoch %d, want 2", epoch)
	}
	if got := alice.TakePending(); len(got) != 0 {
		t.Fatalf("re-arm broadcast %+v", got)
	}
}

func TestUnsupportedMessage(t *testing.T) {
	s, _ := newTestServer(t)
	if _, err := s.Handler()(nil, &wire.RankResponse{}); err == nil {
		t.Fatal("rank response to server must error")
	}
}

func TestFeatureMatrixSkipsIncompletePlaces(t *testing.T) {
	s, _ := newTestServer(t)
	for _, id := range []string{"x1", "x2"} {
		if err := s.CreateApp(store.Application{
			ID: id, Category: world.CategoryCoffee, Place: "Place" + id,
			Lat: 43, Lon: -76, RadiusM: 10, Script: "return 0", PeriodSec: 60,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Only x1 gets full features.
	for _, f := range []string{"temperature", "brightness", "noise", "wifi"} {
		if err := s.DB().UpsertFeature(store.FeatureRow{
			Category: world.CategoryCoffee, Place: "Placex1", Feature: f, Value: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := s.FeatureMatrix(world.CategoryCoffee)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Places) != 1 || m.Places[0] != "Placex1" {
		t.Fatalf("matrix places = %v", m.Places)
	}
	if _, err := s.FeatureMatrix("ghost-category"); err == nil {
		t.Fatal("unknown category must error")
	}
}
