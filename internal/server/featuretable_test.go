package server

import (
	"fmt"
	"math"
	"math/rand"
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

// flatKey is the reference model's key: the store once kept its feature
// table as one map keyed by this triple.
type flatKey struct{ category, place, feature string }

// flatModel is the feature table as a flat triple-keyed map, plus the
// per-category change clock the store's ChangedPlaces must reproduce and
// the table rows it numbers places by: a place's row is the count of the
// category's places before its first application or cell.
type flatModel struct {
	rows      map[flatKey]store.FeatureRow
	apps      []store.Application
	ver       map[string]int64            // category -> FeatureVersion
	placeVer  map[string]map[string]int64 // category -> place -> ver of its last material change
	appJoined map[string]int64            // category -> ver of its last PutApp
	rowOf     map[string]map[string]int32 // category -> place -> table row
}

func newFlatModel() *flatModel {
	return &flatModel{rows: make(map[flatKey]store.FeatureRow), ver: make(map[string]int64),
		placeVer: make(map[string]map[string]int64), appJoined: make(map[string]int64),
		rowOf: make(map[string]map[string]int32)}
}

// row numbers place in category's table on its first appearance.
func (m *flatModel) row(category, place string) int32 {
	if m.rowOf[category] == nil {
		m.rowOf[category] = make(map[string]int32)
	}
	r, ok := m.rowOf[category][place]
	if !ok {
		r = int32(len(m.rowOf[category]))
		m.rowOf[category][place] = r
	}
	return r
}

func (m *flatModel) putApp(a store.Application) {
	m.row(a.Category, a.Place)
	m.apps = append(m.apps, a)
	m.ver[a.Category]++
	m.appJoined[a.Category] = m.ver[a.Category]
}

func (m *flatModel) upsert(row store.FeatureRow) {
	m.row(row.Category, row.Place)
	k := flatKey{row.Category, row.Place, row.Feature}
	old, ok := m.rows[k]
	m.rows[k] = row
	if ok && old.Value == row.Value && old.Samples == row.Samples {
		return
	}
	m.ver[row.Category]++
	if m.placeVer[row.Category] == nil {
		m.placeVer[row.Category] = make(map[string]int64)
	}
	m.placeVer[row.Category][row.Place] = m.ver[row.Category]
}

// byCategory is FeaturesByCategory over the flat map.
func (m *flatModel) byCategory(category string) []store.FeatureRow {
	var out []store.FeatureRow
	for k, row := range m.rows {
		if k.category == category {
			out = append(out, row)
		}
	}
	slices.SortFunc(out, func(a, b store.FeatureRow) int {
		if c := strings.Compare(a.Place, b.Place); c != 0 {
			return c
		}
		return strings.Compare(a.Feature, b.Feature)
	})
	return out
}

// matrix is FeatureMatrix over the flat map: the category's apps in ID
// order, each place once at its first app, complete places only.
func (m *flatModel) matrix(category string) (places []string, values [][]float64) {
	apps := slices.Clone(m.apps)
	slices.SortFunc(apps, func(a, b store.Application) int { return strings.Compare(a.ID, b.ID) })
	listed := make(map[string]bool)
	for _, a := range apps {
		if a.Category != category || listed[a.Place] {
			continue
		}
		listed[a.Place] = true
		var row []float64
		for _, f := range DefaultCatalog()[category] {
			if r, ok := m.rows[flatKey{category, a.Place, f.Name}]; ok {
				row = append(row, r.Value)
			}
		}
		if len(row) == len(DefaultCatalog()[category]) {
			places = append(places, a.Place)
			values = append(values, row)
		}
	}
	return places, values
}

// changed is ChangedPlaces over the model.
func (m *flatModel) changed(category string, since int64) ([]int32, bool) {
	var rows []int32
	for place, v := range m.placeVer[category] {
		if v > since {
			rows = append(rows, m.rowOf[category][place])
		}
	}
	slices.Sort(rows)
	return rows, m.appJoined[category] > since
}

func sameRow(a, b store.FeatureRow) bool {
	return a.Category == b.Category && a.Place == b.Place && a.Feature == b.Feature &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) && a.Samples == b.Samples && a.Updated.Equal(b.Updated)
}

// checkAgainstFlat compares every feature read path of s with the model.
func checkAgainstFlat(t *testing.T, when string, s *Server, m *flatModel, categories, places, feats []string) {
	t.Helper()
	db := s.DB()
	for _, c := range categories {
		for _, p := range places {
			for _, f := range feats {
				want, ok := m.rows[flatKey{c, p, f}]
				got, err := db.Feature(c, p, f)
				if !ok {
					if err == nil {
						t.Fatalf("%s: Feature(%s, %s, %s) = %+v, want not found", when, c, p, f, got)
					}
					continue
				}
				if err != nil || !sameRow(got, want) {
					t.Fatalf("%s: Feature(%s, %s, %s) = %+v, %v; want %+v", when, c, p, f, got, err, want)
				}
			}
		}
		want, got := m.byCategory(c), db.FeaturesByCategory(c)
		if !slices.EqualFunc(got, want, sameRow) {
			t.Fatalf("%s: FeaturesByCategory(%s) = %d rows %+v, want %d rows %+v", when, c, len(got), got, len(want), want)
		}
		wantPlaces, wantValues := m.matrix(c)
		mat, err := s.FeatureMatrix(c)
		if len(wantPlaces) == 0 {
			if err == nil {
				t.Fatalf("%s: FeatureMatrix(%s) = %v, want no places", when, c, mat.Places)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: FeatureMatrix(%s): %v", when, c, err)
		}
		if !slices.Equal(mat.Places, wantPlaces) {
			t.Fatalf("%s: FeatureMatrix(%s) places %v, want %v", when, c, mat.Places, wantPlaces)
		}
		for i, row := range wantValues {
			if !slices.EqualFunc(mat.Values[i], row, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("%s: FeatureMatrix(%s) row %s = %v, want %v", when, c, wantPlaces[i], mat.Values[i], row)
			}
		}
	}
}

// TestFeatureTableMatchesFlatReference drives random upserts — new rows,
// changed values, changed sample counts, bit-identical rewrites, two
// categories, a feature outside the catalog, a place no app claims and a
// place two apps claim — through a durable server, checkpointing half way,
// and checks Feature, FeaturesByCategory, FeatureMatrix, FeatureVersion
// and ChangedPlaces against a flat triple-keyed map after every step. The
// reopened server (checkpoint restore + WAL replay) and a store restored
// from its snapshot must read the same, and the snapshot bytes must equal
// those of a store built from the flat map in another order.
func TestFeatureTableMatchesFlatReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { flatDifferential(t, seed) })
	}
}

func flatDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	clock := &virtualClock{now: t0}
	open := func() (*Server, *store.DurableBackend) {
		backend := store.NewDurableBackend(dir, store.WithSnapshotInterval(time.Hour))
		s, err := New(Config{Storage: backend, Now: clock.Now, Catalog: DefaultCatalog()})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Open(); err != nil {
			t.Fatal(err)
		}
		return s, backend
	}
	s, backend := open()
	m := newFlatModel()

	categories := []string{world.CategoryCoffee, world.CategoryTrail}
	places := []string{"p0", "p1", "p2", "p3", "p4", "p5", "shared", "unclaimed"}
	featSet := map[string]bool{"stale": true}
	for _, c := range categories {
		for _, f := range DefaultCatalog()[c] {
			featSet[f.Name] = true
		}
	}
	var feats []string
	for f := range featSet {
		feats = append(feats, f)
	}
	slices.Sort(feats)
	// App IDs run against place order, and "shared" is claimed twice.
	for _, c := range categories {
		for i, p := range places[:7] {
			a := store.Application{ID: fmt.Sprintf("%s-%02d", c, 20-i), Category: c, Place: p}
			if err := s.DB().PutApp(a); err != nil {
				t.Fatal(err)
			}
			m.putApp(a)
		}
		a := store.Application{ID: c + "-99", Category: c, Place: "shared"}
		if err := s.DB().PutApp(a); err != nil {
			t.Fatal(err)
		}
		m.putApp(a)
	}

	const steps = 400
	var keys []flatKey
	for step := 0; step < steps; step++ {
		c := categories[rng.Intn(len(categories))]
		var row store.FeatureRow
		switch r := rng.Intn(10); {
		case r < 3 && len(keys) > 0: // bit-identical rewrite
			row = m.rows[keys[rng.Intn(len(keys))]]
		case r < 5 && len(keys) > 0: // same value, other sample count
			row = m.rows[keys[rng.Intn(len(keys))]]
			row.Samples++
		case r < 7 && len(keys) > 0: // new value
			row = m.rows[keys[rng.Intn(len(keys))]]
			row.Value = float64(rng.Intn(1000)) / 8
		default: // any cell, new or not
			var f string
			if cat := DefaultCatalog()[c]; rng.Intn(8) > 0 {
				f = cat[rng.Intn(len(cat))].Name
			} else {
				f = "stale"
			}
			row = store.FeatureRow{Category: c, Place: places[rng.Intn(len(places))], Feature: f,
				Value: float64(rng.Intn(1000)) / 8, Samples: rng.Intn(5)}
		}
		row.Updated = t0.Add(time.Duration(step) * time.Second)
		k := flatKey{row.Category, row.Place, row.Feature}
		if _, ok := m.rows[k]; !ok {
			keys = append(keys, k)
		}
		since := s.DB().FeatureVersion(row.Category)
		if err := s.DB().UpsertFeature(row); err != nil {
			t.Fatal(err)
		}
		m.upsert(row)
		for _, c := range categories {
			if got := s.DB().FeatureVersion(c); got != m.ver[c] {
				t.Fatalf("step %d: FeatureVersion(%s) = %d, want %d", step, c, got, m.ver[c])
			}
			for _, from := range []int64{0, since, m.ver[c] - 1 - rng.Int63n(m.ver[c])} {
				gotP, gotJ := s.DB().ChangedPlaces(c, from)
				wantP, wantJ := m.changed(c, from)
				if !slices.Equal(gotP, wantP) || gotJ != wantJ {
					t.Fatalf("step %d: ChangedPlaces(%s, %d) = %v %v, want %v %v", step, c, from, gotP, gotJ, wantP, wantJ)
				}
			}
		}
		if step%40 == 0 {
			checkAgainstFlat(t, fmt.Sprintf("step %d", step), s, m, categories, places, feats)
		}
		if step == steps/2 {
			if err := backend.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkAgainstFlat(t, "live", s, m, categories, places, feats)
	live, err := s.DB().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, _ := open()
	defer reopened.Close()
	checkAgainstFlat(t, "reopened", reopened, m, categories, places, feats)
	again, err := reopened.DB().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(live) {
		t.Fatal("reopened store's snapshot differs from the live one")
	}

	restoredDB, err := store.Restore(live)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(Config{DB: restoredDB, Now: clock.Now, Catalog: DefaultCatalog()})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstFlat(t, "restored", restored, m, categories, places, feats)

	// The flat map, inserted in shuffled order, snapshots to the same bytes.
	ref := store.New()
	for _, a := range m.apps {
		if err := ref.PutApp(a); err != nil {
			t.Fatal(err)
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		if err := ref.UpsertFeature(m.rows[k]); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := restoredDB.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("snapshot of the restored store differs from the flat map's")
	}
}

// TestSharedPlaceRankedOnce: a place two applications claim is one row of
// the matrix (at its first application in ID order) and one entry of a
// rank answer, and an upsert to it is patched into the next epoch with
// the new value.
func TestSharedPlaceRankedOnce(t *testing.T) {
	const category = world.CategoryCoffee
	s, err := New(Config{DB: store.New(), Now: (&virtualClock{now: t0}).Now, Catalog: DefaultCatalog(), Observer: obs.NewObserver()})
	if err != nil {
		t.Fatal(err)
	}
	for i, place := range []string{"Same", "Other", "Same"} {
		app := concApp(i)
		app.Place = place
		if err := s.CreateApp(app); err != nil {
			t.Fatal(err)
		}
	}
	upsert := func(place, feat string, v float64) {
		t.Helper()
		if err := s.DB().UpsertFeature(store.FeatureRow{Category: category, Place: place, Feature: feat, Value: v, Samples: 1, Updated: t0}); err != nil {
			t.Fatal(err)
		}
	}
	for k, place := range []string{"Same", "Other"} {
		for j, f := range DefaultCatalog()[category] {
			upsert(place, f.Name, float64(10*k+j))
		}
	}
	m, rowOf, err := s.featureMatrix(category)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.Places, []string{"Same", "Other"}) {
		t.Fatalf("matrix places = %v, want [Same Other]", m.Places)
	}
	rankPlaces := func() []string {
		t.Helper()
		resp, err := s.Handler()(nil, &wire.RankRequest{UserID: "probe", Category: category, TopK: 10})
		if err != nil {
			t.Fatal(err)
		}
		r, ok := resp.(*wire.RankResponse)
		if !ok {
			t.Fatalf("rank refused: %+v", resp)
		}
		var out []string
		for _, p := range r.Ranked {
			out = append(out, p.Place)
		}
		slices.Sort(out)
		return out
	}
	if got := rankPlaces(); !slices.Equal(got, []string{"Other", "Same"}) {
		t.Fatalf("rank answer lists %v, want each place once", got)
	}
	upsert("Same", "wifi", -42)
	snap, err := s.freshSnapshot(category)
	if err != nil {
		t.Fatal(err)
	}
	if s.met.snapshotDeltaRebuilds.Value() != 1 {
		t.Fatalf("the upsert to the shared place was not patched (%d patched epochs)", s.met.snapshotDeltaRebuilds.Value())
	}
	if got := snap.cranker.Places(); !slices.Equal(got, []string{"Same", "Other"}) {
		t.Fatalf("patched epoch places = %v", got)
	}
	if row := snap.cranker.Row(int(snap.rowOf[slices.Index(rowOf, 0)])); row[len(row)-1] != -42 {
		t.Fatalf("patched epoch row for Same = %v, want wifi -42", row)
	}
	if got := rankPlaces(); !slices.Equal(got, []string{"Other", "Same"}) {
		t.Fatalf("rank answer after the patch lists %v, want each place once", got)
	}
	matchesFullBuild(t, "after the patch", s, category, snap)
}

// TestUpsertRacesFeatureMatrix runs feature upserts against every feature
// read path, and the readers then write into what they were handed: under
// -race any row slice or value arena that leaves the store's lock aliased
// is a reported race.
func TestUpsertRacesFeatureMatrix(t *testing.T) {
	const category, places = world.CategoryCoffee, 16
	s, _ := newTestServer(t)
	catalog := DefaultCatalog()[category]
	for i := 0; i < places; i++ {
		if err := s.DB().PutApp(concApp(i)); err != nil {
			t.Fatal(err)
		}
		for _, f := range catalog {
			if err := s.DB().UpsertFeature(store.FeatureRow{Category: category, Place: concApp(i).Place, Feature: f.Name, Value: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 2000; n++ {
				row := store.FeatureRow{Category: category, Place: concApp(n % places).Place,
					Feature: catalog[(n+w)%len(catalog)].Name, Value: float64(n), Samples: w}
				if err := s.DB().UpsertFeature(row); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for n := 0; n < 300; n++ {
			m, err := s.FeatureMatrix(category)
			if err != nil {
				t.Error(err)
				return
			}
			if len(m.Places) != places {
				t.Errorf("matrix has %d places, want %d", len(m.Places), places)
				return
			}
			for _, row := range m.Values {
				for j := range row {
					row[j]++
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for n := 0; n < 300; n++ {
			rows := s.DB().FeaturesByCategory(category)
			for i := range rows {
				rows[i].Value++
			}
			if _, err := s.DB().Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
