package store

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

var now = time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC)

func TestUsersCRUD(t *testing.T) {
	s := New()
	if err := s.PutUser(User{}); err == nil {
		t.Fatal("empty id must error")
	}
	u := User{ID: "u1", Name: "Alice", Token: "tok1"}
	if err := s.PutUser(u); err != nil {
		t.Fatal(err)
	}
	if err := s.PutUser(u); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate err = %v", err)
	}
	got, err := s.User("u1")
	if err != nil || got != u {
		t.Fatalf("User = %+v, %v", got, err)
	}
	if _, err := s.User("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing user err = %v", err)
	}
	byTok, err := s.UserByToken("tok1")
	if err != nil || byTok.ID != "u1" {
		t.Fatalf("UserByToken = %+v, %v", byTok, err)
	}
	if _, err := s.UserByToken("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing token should be ErrNotFound")
	}
	if err := s.PutUser(User{ID: "u0"}); err != nil {
		t.Fatal(err)
	}
	users := s.Users()
	if len(users) != 2 || users[0].ID != "u0" || users[1].ID != "u1" {
		t.Fatalf("Users = %+v", users)
	}
}

func TestAppsCRUD(t *testing.T) {
	s := New()
	if err := s.PutApp(Application{}); err == nil {
		t.Fatal("empty id must error")
	}
	a := Application{ID: "app1", Category: "coffee-shop", Place: "Starbucks",
		Lat: 43.04, Lon: -76.13, RadiusM: 50, Script: "return 1", PeriodSec: 10800}
	if err := s.PutApp(a); err != nil {
		t.Fatal(err)
	}
	if err := s.PutApp(a); !errors.Is(err, ErrDuplicate) {
		t.Fatal("duplicate app must error")
	}
	got, err := s.App("app1")
	if err != nil || got != a {
		t.Fatalf("App = %+v, %v", got, err)
	}
	if _, err := s.App("x"); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing app should be ErrNotFound")
	}
	if err := s.PutApp(Application{ID: "app2", Category: "hiking-trail"}); err != nil {
		t.Fatal(err)
	}
	coffee := s.AppsByCategory("coffee-shop")
	if len(coffee) != 1 || coffee[0].ID != "app1" {
		t.Fatalf("AppsByCategory = %+v", coffee)
	}
	if len(s.Apps()) != 2 {
		t.Fatal("Apps should list both")
	}
}

func TestParticipationLifecycle(t *testing.T) {
	s := New()
	if err := s.PutParticipation(Participation{}); err == nil {
		t.Fatal("empty task id must error")
	}
	p := Participation{TaskID: "t1", UserID: "u1", AppID: "a1",
		Budget: 17, Status: TaskWaiting, Joined: now}
	if err := s.PutParticipation(p); err != nil {
		t.Fatal(err)
	}
	if err := s.PutParticipation(p); !errors.Is(err, ErrDuplicate) {
		t.Fatal("duplicate task must error")
	}
	if err := s.UpdateParticipation("t1", func(p *Participation) {
		p.Status = TaskRunning
		p.Budget--
	}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Participation("t1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != TaskRunning || got.Budget != 16 {
		t.Fatalf("after update: %+v", got)
	}
	if err := s.UpdateParticipation("ghost", func(*Participation) {}); !errors.Is(err, ErrNotFound) {
		t.Fatal("update of missing task should be ErrNotFound")
	}
	if _, err := s.Participation("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing task should be ErrNotFound")
	}

	// Active lookup skips finished tasks.
	if _, err := s.ActiveParticipationByUser("a1", "u1"); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateParticipation("t1", func(p *Participation) { p.Status = TaskFinished }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ActiveParticipationByUser("a1", "u1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("finished task must not be active")
	}

	if err := s.PutParticipation(Participation{TaskID: "t2", UserID: "u2", AppID: "a1"}); err != nil {
		t.Fatal(err)
	}
	byApp := s.ParticipationsByApp("a1")
	if len(byApp) != 2 || byApp[0].TaskID != "t1" {
		t.Fatalf("ParticipationsByApp = %+v", byApp)
	}
}

func TestTaskStatusString(t *testing.T) {
	for st, want := range map[TaskStatus]string{
		TaskWaiting: "waiting", TaskRunning: "running",
		TaskFinished: "finished", TaskError: "error", TaskStatus(9): "unknown(9)",
	} {
		if st.String() != want {
			t.Fatalf("%d.String() = %q", st, st.String())
		}
	}
}

func TestUploadsDrain(t *testing.T) {
	s := New()
	body := []byte{1, 2, 3}
	seq1 := ingestBody(s, "app-a", body, now)
	body[0] = 99 // caller mutation must not leak in
	seq2 := ingestBody(s, "app-b", []byte{4}, now.Add(time.Second))
	if seq1 != 1 || seq2 != 2 {
		t.Fatalf("seqs = %d, %d", seq1, seq2)
	}
	if s.PendingUploads() != 2 {
		t.Fatalf("pending = %d", s.PendingUploads())
	}
	got := s.DrainUploads()
	if len(got) != 2 || got[0].Seq != 1 || got[0].Body[0] != 1 {
		t.Fatalf("drained = %+v", got)
	}
	if s.PendingUploads() != 0 {
		t.Fatal("drain did not clear")
	}
	if len(s.DrainUploads()) != 0 {
		t.Fatal("second drain should be empty")
	}
}

func TestFeatures(t *testing.T) {
	s := New()
	if err := s.UpsertFeature(FeatureRow{}); err == nil {
		t.Fatal("empty feature row must error")
	}
	row := FeatureRow{Category: "coffee-shop", Place: "Starbucks",
		Feature: "temperature", Value: 73, Samples: 120, Updated: now}
	if err := s.UpsertFeature(row); err != nil {
		t.Fatal(err)
	}
	got, err := s.Feature("coffee-shop", "Starbucks", "temperature")
	if err != nil || got.Value != 73 {
		t.Fatalf("Feature = %+v, %v", got, err)
	}
	// Upsert replaces.
	row.Value = 74
	if err := s.UpsertFeature(row); err != nil {
		t.Fatal(err)
	}
	got, err = s.Feature("coffee-shop", "Starbucks", "temperature")
	if err != nil || got.Value != 74 {
		t.Fatalf("after upsert: %+v, %v", got, err)
	}
	if _, err := s.Feature("x", "y", "z"); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing feature should be ErrNotFound")
	}
	for _, f := range []FeatureRow{
		{Category: "coffee-shop", Place: "B&N", Feature: "noise", Value: 0.08},
		{Category: "coffee-shop", Place: "B&N", Feature: "brightness", Value: 400},
		{Category: "hiking-trail", Place: "Cliff", Feature: "roughness", Value: 1.4},
	} {
		if err := s.UpsertFeature(f); err != nil {
			t.Fatal(err)
		}
	}
	rows := s.FeaturesByCategory("coffee-shop")
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	// Sorted by place, then feature.
	if rows[0].Place != "B&N" || rows[0].Feature != "brightness" {
		t.Fatalf("sort order wrong: %+v", rows[0])
	}
}

func TestSchedules(t *testing.T) {
	s := New()
	if err := s.PutSchedule(ScheduleRow{}); err == nil {
		t.Fatal("empty task id must error")
	}
	row := ScheduleRow{TaskID: "t1", AppID: "a", UserID: "u", AtUnix: []int64{10, 20}}
	if err := s.PutSchedule(row); err != nil {
		t.Fatal(err)
	}
	got, err := s.Schedule("t1")
	if err != nil || len(got.AtUnix) != 2 {
		t.Fatalf("Schedule = %+v, %v", got, err)
	}
	// Replacement is allowed (re-plans).
	row.AtUnix = []int64{30}
	if err := s.PutSchedule(row); err != nil {
		t.Fatal(err)
	}
	got, err = s.Schedule("t1")
	if err != nil || len(got.AtUnix) != 1 || got.AtUnix[0] != 30 {
		t.Fatalf("after replace: %+v", got)
	}
	if _, err := s.Schedule("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing schedule should be ErrNotFound")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New()
	if err := s.PutUser(User{ID: "u1", Name: "Alice", Token: "tok"}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutApp(Application{ID: "a1", Category: "coffee-shop", Place: "B&N"}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutParticipation(Participation{TaskID: "t1", UserID: "u1", AppID: "a1", Status: TaskRunning, Joined: now}); err != nil {
		t.Fatal(err)
	}
	ingestBody(s, "a1", []byte{9, 9}, now)
	if err := s.UpsertFeature(FeatureRow{Category: "c", Place: "p", Feature: "f", Value: 1.5}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSchedule(ScheduleRow{TaskID: "t1", AppID: "a1", UserID: "u1", AtUnix: []int64{5}}); err != nil {
		t.Fatal(err)
	}

	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if u, err := restored.User("u1"); err != nil || u.Name != "Alice" {
		t.Fatalf("restored user: %+v, %v", u, err)
	}
	if a, err := restored.App("a1"); err != nil || a.Place != "B&N" {
		t.Fatalf("restored app: %+v, %v", a, err)
	}
	if p, err := restored.Participation("t1"); err != nil || p.Status != TaskRunning {
		t.Fatalf("restored task: %+v, %v", p, err)
	}
	if restored.PendingUploads() != 1 {
		t.Fatal("restored uploads missing")
	}
	if f, err := restored.Feature("c", "p", "f"); err != nil || f.Value != 1.5 {
		t.Fatalf("restored feature: %+v, %v", f, err)
	}
	if r, err := restored.Schedule("t1"); err != nil || r.AtUnix[0] != 5 {
		t.Fatalf("restored schedule: %+v, %v", r, err)
	}
	// New uploads continue the sequence.
	if seq := ingestBody(restored, "a1", []byte{1}, now); seq != 2 {
		t.Fatalf("restored seq = %d, want 2", seq)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore([]byte("{not json")); err == nil {
		t.Fatal("garbage must error")
	}
}

// ingestBody stores one blob through Ingest the way the Message Handler
// stores a single report without a ReportID (no dedup) and returns its
// sequence number.
func ingestBody(s *Store, appID string, body []byte, at time.Time) int64 {
	res, _ := s.Ingest(appID, [][]byte{body}, IngestOptions{Received: at})
	return res.LastSeq
}

// ingestMarked stores a one-byte report under reportID and reports
// whether appID's dedup window took it as new.
func ingestMarked(s *Store, appID, reportID string) bool {
	res, err := s.Ingest(appID, [][]byte{{0}}, IngestOptions{ReportIDs: []string{reportID}})
	return err == nil && res.Fresh[0]
}

// TestIngestBodyOwnership pins what Ingest does with the caller's
// slices and how it numbers rows: it stores a copy of every body, so the
// caller may reuse its slices, sequence numbers run contiguously across
// calls and apps, and each call's RequestID lands on its rows.
func TestIngestBodyOwnership(t *testing.T) {
	s := New()
	copied := []byte{1, 2, 3}
	r1, err := s.Ingest("a", [][]byte{copied}, IngestOptions{Received: now})
	if err != nil {
		t.Fatal(err)
	}
	copied[0] = 99
	reused := []byte{5}
	if _, err := s.Ingest("b", [][]byte{reused, {6}}, IngestOptions{Received: now, RequestID: "req-1"}); err != nil {
		t.Fatal(err)
	}
	reused[0] = 98
	r3, err := s.Ingest("b", [][]byte{{7}}, IngestOptions{Received: now, RequestID: "req-2"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.LastSeq != 1 || r3.LastSeq != 4 {
		t.Fatalf("seqs = %d, %d, want 1, 4", r1.LastSeq, r3.LastSeq)
	}
	rows := s.DrainUploads()
	if len(rows) != 4 {
		t.Fatalf("drained %d rows, want 4", len(rows))
	}
	for i, want := range []struct {
		app, req string
		first    byte
	}{{"a", "", 1}, {"b", "req-1", 5}, {"b", "req-1", 6}, {"b", "req-2", 7}} {
		got := rows[i]
		if got.Seq != int64(i+1) || got.AppID != want.app || got.RequestID != want.req || got.Body[0] != want.first {
			t.Fatalf("row %d = %+v, want seq %d %+v", i, got, i+1, want)
		}
	}
	if &rows[1].Body[0] == &reused[0] {
		t.Fatal("the stored body must be a copy, not the caller's slice")
	}
}

// TestIngestDedup pins Ingest's window semantics: a marked id is acked
// but not stored, an id repeated within one call stores once, empty ids
// never deduplicate, and a mismatched ReportIDs slice is an error.
func TestIngestDedup(t *testing.T) {
	s := New()
	if !ingestMarked(s, "a", "old") {
		t.Fatal("first mark must be new")
	}
	s.DrainUploads()
	res, err := s.Ingest("a", [][]byte{{1}, {2}, {3}, {4}, {5}}, IngestOptions{
		Received:  now,
		ReportIDs: []string{"old", "new", "new", "", ""},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, false, true, true}
	for i, fresh := range want {
		if res.Fresh[i] != fresh {
			t.Fatalf("Fresh = %v, want %v", res.Fresh, want)
		}
	}
	if res.Stored != 3 || res.LastSeq != 4 {
		t.Fatalf("res = %+v", res)
	}
	if s.PendingUploads() != 3 {
		t.Fatalf("pending = %d", s.PendingUploads())
	}
	// The fresh id is now marked; the empty ids are not.
	if res, _ := s.Ingest("a", [][]byte{{9}}, IngestOptions{Received: now, ReportIDs: []string{"new"}}); res.Stored != 0 {
		t.Fatal("second ingest of a marked id must not store")
	}
	if _, err := s.Ingest("a", [][]byte{{1}, {2}}, IngestOptions{ReportIDs: []string{"x"}}); err == nil {
		t.Fatal("mismatched ReportIDs must error")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := string(rune('a' + i))
			if err := s.PutUser(User{ID: id, Token: id}); err != nil {
				t.Error(err)
			}
			for j := 0; j < 100; j++ {
				ingestBody(s, id, []byte{byte(j)}, now)
				if err := s.UpsertFeature(FeatureRow{
					Category: "c", Place: id, Feature: "f", Value: float64(j),
				}); err != nil {
					t.Error(err)
				}
				s.Users()
				s.FeaturesByCategory("c")
			}
		}(i)
	}
	wg.Wait()
	if s.PendingUploads() != 800 {
		t.Fatalf("pending = %d, want 800", s.PendingUploads())
	}
	if len(s.Users()) != 8 {
		t.Fatalf("users = %d", len(s.Users()))
	}
}

// TestChangedPlacesMatchesMapWalk: over random place and application
// bumps, with the log compacting along the way, ChangedPlaces(since)
// returns the rows of exactly the places a walk of every place's latest
// version does, in row order, for
// every since from before the first bump to past the last.
func TestChangedPlacesMatchesMapWalk(t *testing.T) {
	const category = "walk"
	r := rand.New(rand.NewSource(5))
	s := New()
	latest := make(map[string]int64)
	appVer := int64(0)
	for step := 0; step < 3000; step++ {
		if r.Intn(25) == 0 {
			s.table(category).bumpApp()
			appVer = s.FeatureVersion(category)
		} else {
			// A few hot places and a long tail, so the log compacts often.
			place := fmt.Sprintf("p%02d", r.Intn(4))
			if r.Intn(3) == 0 {
				place = fmt.Sprintf("p%02d", r.Intn(60))
			}
			s.UpsertFeature(FeatureRow{Category: category, Place: place, Feature: "f", Value: float64(step)})
			latest[place] = s.FeatureVersion(category)
		}
		if step%7 != 0 {
			continue
		}
		ver := s.FeatureVersion(category)
		for _, since := range []int64{0, ver, ver - 1, r.Int63n(ver + 1), ver - r.Int63n(min(ver, 20)+1)} {
			var want []string
			for place, v := range latest {
				if v > since {
					want = append(want, place)
				}
			}
			sort.Strings(want)
			rows, joined := s.ChangedPlaces(category, since)
			if !slices.IsSorted(rows) {
				t.Fatalf("step %d since %d: rows %v out of order", step, since, rows)
			}
			var got []string
			for _, r := range rows {
				got = append(got, s.table(category).places[r])
			}
			sort.Strings(got)
			if !slices.Equal(got, want) || joined != (appVer > since) {
				t.Fatalf("step %d since %d: %v joined=%v, map walk %v joined=%v", step, since, got, joined, want, appVer > since)
			}
		}
	}
	if ft := s.table(category); len(ft.bumps) >= 2*ft.stamped {
		t.Fatalf("log holds %d bumps for %d places", len(ft.bumps), ft.stamped)
	}
}

// Anchor returns an application's persisted period anchor.
func (s *Store) Anchor(appID string) (time.Time, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	unix, ok := s.anchors[appID]
	if !ok {
		return time.Time{}, false
	}
	return time.Unix(unix, 0).UTC(), true
}

// ReportSeen reports whether a ReportID is in appID's dedup window
// (read-only; observability and tests).
func (s *Store) ReportSeen(appID, reportID string) bool {
	if reportID == "" {
		return false
	}
	sh := &s.uploadShards[shardIndex(appID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.windows[appID].seen(view(reportID))
}
