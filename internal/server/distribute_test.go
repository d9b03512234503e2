package server

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"sor/internal/coverage"
	"sor/internal/schedule"
	"sor/internal/store"
	"sor/internal/transport/session"
	"sor/internal/wire"
)

// scriptOp is one membership event of a join/leave script: member user of
// concApp(app) joins with a budget — staying stay seconds, or the rest of
// the period when stay is 0 — or leaves, at offset at into the period.
type scriptOp struct {
	app, user int
	leave     bool
	budget    int
	stay      int
	at        time.Duration
}

func scriptUser(app, k int) string { return fmt.Sprintf("m%d-%03d", app, k) }

// runOp applies op to s at its instant and fails the test unless the
// server accepts it; a join returns the schedule it was handed.
func runOp(t *testing.T, s *Server, clock *virtualClock, op scriptOp) *wire.Schedule {
	t.Helper()
	clock.Set(t0.Add(op.at))
	a, user := concApp(op.app), scriptUser(op.app, op.user)
	var m wire.Message = &wire.Leave{UserID: user, AppID: a.ID}
	if !op.leave {
		m = &wire.Participate{UserID: user, Token: "tok-" + user, AppID: a.ID,
			Loc: wire.Location{Lat: a.Lat, Lon: a.Lon}, Budget: op.budget, LeaveAfterSec: int64(op.stay)}
	}
	resp, err := s.Handler()(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	ack := resp.(*wire.Ack)
	if !ack.OK {
		t.Fatalf("%+v refused: %+v", op, ack)
	}
	if op.leave {
		return nil
	}
	inner, err := wire.Decode(ack.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return inner.(*wire.Schedule)
}

// fixedJoinScript is 24 joins and 6 leaves over two apps, one event every
// 45–90 s; each app ends with 9 members present.
func fixedJoinScript() []scriptOp {
	var ops []scriptOp
	var at time.Duration
	for k := 0; k < 12; k++ {
		for app := 0; app < 2; app++ {
			ops = append(ops, scriptOp{app: app, user: k, budget: 3 + (k+app)%5, at: at})
			at += 90 * time.Second
			if k%4 == 3 {
				ops = append(ops, scriptOp{app: app, user: k - 2, leave: true, at: at})
				at += 45 * time.Second
			}
		}
	}
	return ops
}

// randomJoinScript draws n events over two apps inside one period: a third
// of them, while an app has members, are leaves of a random present member;
// the rest are joins with random budgets, a quarter of them staying only a
// while, so some present members outlive their window.
func randomJoinScript(seed int64, n int) []scriptOp {
	rng := rand.New(rand.NewSource(seed))
	var present [2][]int
	var next [2]int
	var at time.Duration
	ops := make([]scriptOp, 0, n)
	for len(ops) < n {
		app := rng.Intn(2)
		at += time.Duration(rng.Intn(150)) * time.Second
		if len(present[app]) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(present[app]))
			ops = append(ops, scriptOp{app: app, user: present[app][i], leave: true, at: at})
			present[app] = slices.Delete(present[app], i, i+1)
			continue
		}
		op := scriptOp{app: app, user: next[app], budget: 1 + rng.Intn(8), at: at}
		if rng.Intn(4) == 0 {
			op.stay = 300 + rng.Intn(3600)
		}
		ops = append(ops, op)
		present[app] = append(present[app], next[app])
		next[app]++
	}
	return ops
}

// TestSameJoinsLogTheSameRecords: two durable servers driven through the
// same joins and leaves hold byte-identical WAL record streams. A replan
// writes the schedule rows that changed in user-ID order, not map order.
func TestSameJoinsLogTheSameRecords(t *testing.T) {
	logOf := func() [][]byte {
		clock := &virtualClock{now: t0}
		backend := store.NewDurableBackend(t.TempDir(), store.WithSnapshotInterval(time.Hour))
		s, err := New(Config{Storage: backend, Now: clock.Now, Catalog: DefaultCatalog()})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Open(); err != nil {
			t.Fatal(err)
		}
		defer s.Kill()
		for app := 0; app < 2; app++ {
			if err := s.CreateApp(concApp(app)); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range fixedJoinScript() {
			runOp(t, s, clock, op)
		}
		for app := 0; app < 2; app++ {
			if n := len(s.states.get(concApp(app).ID).online.Present()); n < 5 {
				t.Fatalf("app %d ends the script with %d members present, want at least 5", app, n)
			}
		}
		records, err := backend.WAL().ReadAfter(0, 1<<20, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		return records
	}
	want, got := logOf(), logOf()
	for i := range min(len(got), len(want)) {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("WAL record %d of %d differs between the two servers", i+1, len(got))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("the servers logged %d and %d records", len(want), len(got))
	}
}

// writeEveryRow is the distributor the server ran before it skipped the
// rows a replan left unchanged: every member the plan names and the
// server ever gave a task gets a fresh row. rows is the schedule table it
// would leave behind, by task ID.
func writeEveryRow(rows map[string]store.ScheduleRow, tl *coverage.Timeline, appID string,
	taskOf map[string]string, plan *schedule.Plan) {
	for userID, a := range plan.Assignments {
		taskID, ok := taskOf[userID]
		if !ok {
			continue
		}
		row := store.ScheduleRow{TaskID: taskID, AppID: appID, UserID: userID}
		for _, at := range a.Times(tl) {
			row.AtUnix = append(row.AtUnix, at.Unix())
		}
		rows[taskID] = row
	}
}

// TestDistributeMatchesWriteEveryRow is the differential test of the
// replan distributor: over random join/leave scripts, after every op the
// store's schedule table is exactly what writeEveryRow would have left,
// and each member with a live session was pushed once exactly when their
// row changed — with the schedule their Ping returns.
func TestDistributeMatchesWriteEveryRow(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			registry := session.NewRegistry()
			clock := &virtualClock{now: t0}
			s, err := New(Config{DB: store.New(), Now: clock.Now, Catalog: DefaultCatalog(), Push: registry})
			if err != nil {
				t.Fatal(err)
			}
			for app := 0; app < 2; app++ {
				if err := s.CreateApp(concApp(app)); err != nil {
					t.Fatal(err)
				}
			}
			oracle := make(map[string]store.ScheduleRow)
			taskOf := make(map[string]string) // every user ever given a task
			sessions := make(map[string]*session.Session)
			for n, op := range randomJoinScript(seed, 60) {
				user := scriptUser(op.app, op.user)
				if !op.leave {
					sess, _, err := registry.Attach("tok-"+user, nil)
					if err != nil {
						t.Fatal(err)
					}
					sessions[user] = sess
				}
				sched := runOp(t, s, clock, op)
				if sched != nil {
					taskOf[user] = sched.TaskID
				}
				appID := concApp(op.app).ID
				plan, err := s.PlanSnapshot(appID)
				if err != nil {
					t.Fatal(err)
				}
				before := maps.Clone(oracle)
				writeEveryRow(oracle, s.states.get(appID).timeline, appID, taskOf, plan)

				for u, taskID := range taskOf {
					got, err := s.DB().Schedule(taskID)
					want, ok := oracle[taskID]
					if ok != (err == nil) || !reflect.DeepEqual(got, want) {
						t.Fatalf("op %d %+v: %s's row is %+v (%v), the write-every-row distributor leaves %+v",
							n, op, u, got, err, want)
					}
				}
				for u, sess := range sessions {
					taskID := taskOf[u]
					prev, had := before[taskID]
					row, has := oracle[taskID]
					changed := has && (!had || !reflect.DeepEqual(prev, row))
					pushed := sess.TakePending()
					if !changed {
						if len(pushed) != 0 {
							t.Fatalf("op %d %+v: %s's row did not change, yet they were pushed %+v", n, op, u, pushed)
						}
						continue
					}
					resp, err := s.Handler()(nil, &wire.Ping{Token: "tok-" + u})
					if err != nil {
						t.Fatal(err)
					}
					pinged, err := wire.Decode(resp.(*wire.Ack).Payload)
					if err != nil {
						t.Fatal(err)
					}
					if len(pushed) != 1 || !reflect.DeepEqual(pushed[0], pinged) {
						t.Fatalf("op %d %+v: %s's row changed; pushed %+v, Ping returns %+v", n, op, u, pushed, pinged)
					}
				}
			}
		})
	}
}

// TestRejoinAfterLeaveIsRefusedCleanly: a member who left and scans the
// same app again in the same period is refused with a 409, and the refusal
// writes nothing — no waiting task stranded to block the next scan — so a
// second rejoin is refused the same way and the app keeps working.
func TestRejoinAfterLeaveIsRefusedCleanly(t *testing.T) {
	s, clock := newTestServer(t)
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	participate(t, s, "alice", "tok-a", 4)
	participate(t, s, "bob", "tok-b", 4)
	clock.Set(t0.Add(10 * time.Minute))
	if resp, err := s.Handler()(nil, &wire.Leave{UserID: "alice", AppID: "app-sb"}); err != nil || !resp.(*wire.Ack).OK {
		t.Fatalf("leave: %+v, %v", resp, err)
	}
	rows := len(s.DB().ParticipationsByApp("app-sb"))
	st := s.states.get("app-sb")
	for attempt := 1; attempt <= 2; attempt++ {
		clock.Set(t0.Add(time.Duration(10+attempt) * time.Minute))
		resp, err := s.Handler()(nil, &wire.Participate{UserID: "alice", Token: "tok-a", AppID: "app-sb",
			Loc: wire.Location{Lat: 43.0413, Lon: -76.1350}, Budget: 4})
		if err != nil {
			t.Fatal(err)
		}
		if ack := resp.(*wire.Ack); ack.OK || ack.Code != 409 {
			t.Fatalf("rejoin %d answered %+v, want a 409 refusal", attempt, ack)
		}
		if n := len(s.DB().ParticipationsByApp("app-sb")); n != rows {
			t.Fatalf("rejoin %d left %d participation rows, want %d", attempt, n, rows)
		}
		if p, err := s.DB().ActiveParticipationByUser("app-sb", "alice"); err == nil {
			t.Fatalf("rejoin %d left an active task behind: %+v", attempt, p)
		}
		if _, _, ok := st.member("alice"); ok {
			t.Fatalf("rejoin %d left alice among the members", attempt)
		}
	}
	if got := st.online.Present(); !reflect.DeepEqual(got, []string{"bob"}) {
		t.Fatalf("present after the refused rejoins: %v, want [bob]", got)
	}
	participate(t, s, "carol", "tok-c", 4)
}
