package store

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// appOracle is the apps table as the map it replaced, with the feature
// cells and participations the checked reads join against.
type appOracle struct {
	apps  map[string]Application
	cells map[[3]string]float64 // category, place, feature -> value
	parts map[string]Participation
}

// featureValues is FeatureValues over the oracle: the category's apps in
// ID order, each place once at its first app, complete places only.
func (o *appOracle) featureValues(category string, features []string) (places []string, values [][]float64) {
	var apps []Application
	for _, a := range o.apps {
		if a.Category == category {
			apps = append(apps, a)
		}
	}
	slices.SortFunc(apps, func(a, b Application) int { return strings.Compare(a.ID, b.ID) })
	listed := map[string]bool{}
	for _, a := range apps {
		if listed[a.Place] {
			continue
		}
		listed[a.Place] = true
		var row []float64
		for _, f := range features {
			if v, ok := o.cells[[3]string{category, a.Place, f}]; ok {
				row = append(row, v)
			}
		}
		if len(row) == len(features) {
			places, values = append(places, a.Place), append(values, row)
		}
	}
	return places, values
}

// activeTask is ActiveTaskOfUser over the oracle.
func (o *appOracle) activeTask(user string) (Application, Participation, bool) {
	var best *Participation
	for _, p := range o.parts {
		if p.UserID == user && p.active() && (best == nil || cmp.Or(strings.Compare(p.AppID, best.AppID), strings.Compare(p.TaskID, best.TaskID)) < 0) {
			best = &p
		}
	}
	if best == nil {
		return Application{}, Participation{}, false
	}
	return o.apps[best.AppID], *best, true
}

// checkApps compares every application read of s with the oracle.
func (o *appOracle) checkApps(t *testing.T, when string, s *Store, ids, categories, users, features []string) {
	t.Helper()
	var all []Application
	for _, id := range ids {
		got, err := s.App(id)
		want, ok := o.apps[id]
		switch {
		case ok && (err != nil || got != want):
			t.Fatalf("%s: App(%s) = %+v, %v; want %+v", when, id, got, err, want)
		case !ok && !errors.Is(err, ErrNotFound):
			t.Fatalf("%s: App(%s) = %+v, %v; want not found", when, id, got, err)
		case ok:
			all = append(all, want)
		}
	}
	slices.SortFunc(all, func(a, b Application) int { return strings.Compare(a.ID, b.ID) })
	if got := s.Apps(); !slices.Equal(got, all) {
		t.Fatalf("%s: Apps() = %+v, want %+v", when, got, all)
	}
	for _, c := range categories {
		want := []Application{}
		for _, a := range all {
			if a.Category == c {
				want = append(want, a)
			}
		}
		if got := s.AppsByCategory(c); !slices.Equal(got, want) {
			t.Fatalf("%s: AppsByCategory(%q) = %+v, want %+v", when, c, got, want)
		}
		rowOf, places, values := s.FeatureValues(c, features)
		wantP, wantV := o.featureValues(c, features)
		listed := 0
		for _, i := range rowOf {
			if i >= 0 {
				listed++
			}
		}
		if !slices.Equal(places, wantP) || !reflect.DeepEqual(values, wantV) || listed != len(places) {
			t.Fatalf("%s: FeatureValues(%q) = %v %v %v, want %v %v", when, c, rowOf, places, values, wantP, wantV)
		}
	}
	for _, u := range users {
		gotA, gotP, err := s.ActiveTaskOfUser(u)
		wantA, wantP, ok := o.activeTask(u)
		if ok != (err == nil) || gotA != wantA || !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("%s: ActiveTaskOfUser(%s) = %+v %+v %v, want %+v %+v found=%v", when, u, gotA, gotP, err, wantA, wantP, ok)
		}
	}
}

// TestAppTableMatchesOracle drives random application, feature and
// participation writes — refused duplicate IDs, two apps on one place, an
// empty category, a category whose feature rows came first — through a
// durable store and a follower fed by ApplyReplicated, checking App, Apps,
// AppsByCategory, FeatureValues and ActiveTaskOfUser on both against a
// map after every step, and on the store reopened from a checkpoint taken
// half way plus the WAL tail.
func TestAppTableMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { appOracleRun(t, seed) })
	}
}

func appOracleRun(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	b := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	st, err := b.Open()
	if err != nil {
		t.Fatal(err)
	}
	fb := NewDurableBackend(t.TempDir(), WithSnapshotInterval(time.Hour))
	follower, err := fb.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	o := &appOracle{apps: map[string]Application{}, cells: map[[3]string]float64{}, parts: map[string]Participation{}}

	// "early" gets its feature rows before any of its applications.
	categories := []string{"cafe", "trail", "", "early", "never"}
	places := []string{"p0", "p1", "p2", "shared", ""}
	features := []string{"noise", "wifi"}
	users := []string{"u0", "u1", "u2"}
	var ids []string
	for i := 0; i < 40; i++ {
		ids = append(ids, fmt.Sprintf("app-%02d", i))
	}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	upsert := func(category string) {
		row := FeatureRow{Category: category, Place: pick(places[:4]), Feature: pick(features),
			Value: float64(rng.Intn(50)), Samples: 1, Updated: now}
		if err := st.UpsertFeature(row); err != nil {
			t.Fatal(err)
		}
		o.cells[[3]string{row.Category, row.Place, row.Feature}] = row.Value
	}
	for k := 0; k < 12; k++ {
		upsert("early")
	}

	const steps = 300
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(10); {
		case r < 5:
			a := Application{ID: pick(ids), Creator: pick(users), Category: pick(categories[:4]), Place: pick(places),
				Lat: rng.NormFloat64(), Lon: rng.NormFloat64(), RadiusM: float64(rng.Intn(500)),
				Script: pick([]string{"return 1", "sense('noise')"}), PeriodSec: int64(rng.Intn(4) * 3600)}
			err := st.PutApp(a)
			if _, dup := o.apps[a.ID]; dup != errors.Is(err, ErrDuplicate) || !dup && err != nil {
				t.Fatalf("step %d: PutApp(%s) = %v, oracle holds it: %v", step, a.ID, err, dup)
			}
			if err == nil {
				o.apps[a.ID] = a
			}
		case r < 8:
			upsert(pick([]string{"cafe", "trail", "early"}))
		default:
			p := Participation{TaskID: fmt.Sprintf("t%d", rng.Intn(30)), UserID: pick(users), AppID: pick(ids),
				Budget: 3, Status: TaskStatus(1 + rng.Intn(4)), Joined: now}
			if _, ok := o.parts[p.TaskID]; ok {
				if err := st.UpdateParticipation(p.TaskID, func(q *Participation) { *q = p }); err != nil {
					t.Fatal(err)
				}
			} else if err := st.PutParticipation(p); err != nil {
				t.Fatal(err)
			}
			o.parts[p.TaskID] = p
		}
		replicate(t, b, follower)
		o.checkApps(t, fmt.Sprintf("step %d", step), st, ids, categories, users, features)
		o.checkApps(t, fmt.Sprintf("step %d, follower", step), follower, ids, categories, users, features)
		if step == steps/2 {
			if err := b.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	reopened, err := b2.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	o.checkApps(t, "reopened", reopened, ids, categories, users, features)
}

// replicate ships every record of b's log the follower lacks.
func replicate(t *testing.T, b *DurableBackend, follower *Store) {
	t.Helper()
	for {
		lsn := follower.AppliedLSN()
		recs, err := b.WAL().ReadAfter(lsn, 1024, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			return
		}
		for _, rec := range recs {
			lsn++
			if err := follower.ApplyReplicated(lsn, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAppSharesItsPlaceRow: App allocates nothing, and an application's
// place name is its feature row's, whichever of the two came first.
func TestAppSharesItsPlaceRow(t *testing.T) {
	s := New()
	for _, err := range []error{
		s.PutApp(Application{ID: "first", Category: "cafe", Place: "app" + "-first"}),
		s.UpsertFeature(FeatureRow{Category: "cafe", Place: "app" + "-first", Feature: "noise", Value: 1}),
		s.UpsertFeature(FeatureRow{Category: "cafe", Place: "row" + "-first", Feature: "noise", Value: 2}),
		s.PutApp(Application{ID: "second", Category: "cafe", Place: "row" + "-first"}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"first", "second"} {
		a, err := s.App(id)
		if err != nil {
			t.Fatal(err)
		}
		row, err := s.Feature("cafe", a.Place, "noise")
		if err != nil {
			t.Fatal(err)
		}
		if unsafe.StringData(a.Place) != unsafe.StringData(row.Place) {
			t.Errorf("app %s holds its own copy of its place's name", id)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = s.App("second") }); n != 0 {
		t.Errorf("App allocates %.1f times", n)
	}
}

// TestAppRowReplacedAcrossCategories: a second row for one ID, which only
// a damaged snapshot or log can hold, replaces the first, as the map of
// applications did, and leaves its old category's list.
func TestAppRowReplacedAcrossCategories(t *testing.T) {
	s := New()
	s.setApp(&Application{ID: "a1", Category: "cafe", Place: "p"})
	s.setApp(&Application{ID: "a0", Category: "trail", Place: "ridge"})
	s.setApp(&Application{ID: "a1", Category: "trail", Place: "q"})
	if got := s.AppsByCategory("cafe"); len(got) != 0 {
		t.Fatalf("cafe still lists %+v", got)
	}
	if got := s.AppsByCategory("trail"); len(got) != 2 || got[0].ID != "a0" || got[1] != (Application{ID: "a1", Category: "trail", Place: "q"}) {
		t.Fatalf("trail lists %+v", got)
	}
	if rowOf, places, _ := s.FeatureValues("cafe", nil); len(places) != 0 || len(rowOf) != 1 || rowOf[0] != -1 {
		t.Fatalf("cafe's matrix lists %v %v", rowOf, places)
	}
}
