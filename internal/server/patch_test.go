package server

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"sor/internal/obs"
	"sor/internal/ranking"
	"sor/internal/store"
	"sor/internal/world"
)

// patchNode is one server under TestPatchedEpochMatchesFullBuild with the
// last snapshot and rebuild counters the test saw on it.
type patchNode struct {
	name     string
	srv      *Server
	prev     *rankSnapshot
	rebuilds int64
	deltas   int64
}

// patchStep is what one step of the differential test expects of the next
// rebuild: which path builds it, and which places it may have changed.
type patchStep struct {
	what    string
	full    bool     // the rebuild must take the full path
	changed []string // places whose rows may differ from the previous epoch
}

// TestPatchedEpochMatchesFullBuild drives random interleavings of feature
// upserts (new value, same value, foreign category, foreign feature), a
// place completing its catalog and PutApp through a durable leader and,
// via ApplyReplicated, a replica. After every step each node's snapshot
// must equal FeatureMatrix + NewColumnarRanker from scratch — places,
// value bits, column arenas and RankTopK answers — a patched epoch must
// keep every unchanged row of the epoch before it, and every case the
// patch declines must show up as a full build. (The one declined case not
// provoked is a missing cell: the store never deletes a feature row, so a
// place that is a row keeps every catalog cell.)
func TestPatchedEpochMatchesFullBuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { patchDifferential(t, seed) })
	}
	t.Run("merge refuses", patchMergeRefuses)
}

// patchMergeRefuses: a NaN cell (an in-memory store takes one; a durable
// store's JSON log does not) makes Merge refuse the patched matrix, the
// full build it falls to refuses it too, and the repaired cell is patched
// from the last good epoch.
func patchMergeRefuses(t *testing.T) {
	const category = world.CategoryCoffee
	s, err := New(Config{DB: store.New(), Now: (&virtualClock{now: t0}).Now, Catalog: DefaultCatalog(), Observer: obs.NewObserver()})
	if err != nil {
		t.Fatal(err)
	}
	upsert := func(place, feat string, v float64) {
		t.Helper()
		if err := s.DB().UpsertFeature(store.FeatureRow{Category: category, Place: place, Feature: feat, Value: v, Samples: 1, Updated: t0}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := s.CreateApp(concApp(i)); err != nil {
			t.Fatal(err)
		}
		for j, f := range DefaultCatalog()[category] {
			upsert(concApp(i).Place, f.Name, float64(i+j))
		}
	}
	good, err := s.freshSnapshot(category)
	if err != nil {
		t.Fatal(err)
	}
	upsert(concApp(1).Place, "temperature", math.NaN())
	if _, err := s.freshSnapshot(category); err == nil {
		t.Fatal("served a NaN cell")
	}
	if s.met.snapshotDeltaRebuilds.Value() != 0 || s.met.snapshotRebuilds.Value() != 1 {
		t.Fatal("an epoch Merge must refuse was installed")
	}
	upsert(concApp(1).Place, "temperature", 42)
	snap, err := s.freshSnapshot(category)
	if err != nil {
		t.Fatal(err)
	}
	if snap.epoch != good.epoch+1 || s.met.snapshotDeltaRebuilds.Value() != 1 {
		t.Fatalf("repaired cell: epoch %d → %d, %d patched", good.epoch, snap.epoch, s.met.snapshotDeltaRebuilds.Value())
	}
	matchesFullBuild(t, "after the repair", s, category, snap)
}

func patchDifferential(t *testing.T, seed int64) {
	const category = world.CategoryCoffee
	clock := &virtualClock{now: t0}
	open := func(replica bool) (*Server, *store.DurableBackend) {
		backend := store.NewDurableBackend(t.TempDir())
		s, err := New(Config{Storage: backend, Now: clock.Now, Catalog: DefaultCatalog(), Observer: obs.NewObserver()})
		if err != nil {
			t.Fatal(err)
		}
		if replica {
			err = s.OpenAsReplica()
		} else {
			err = s.Open()
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Kill)
		return s, backend
	}
	leader, leaderLog := open(false)
	follower, _ := open(true)
	nodes := []*patchNode{{name: "leader", srv: leader}, {name: "replica", srv: follower}}
	ship := func() {
		t.Helper()
		after := follower.DB().AppliedLSN()
		recs, err := leaderLog.WAL().ReadAfter(after, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			if err := follower.DB().ApplyReplicated(after+uint64(i)+1, rec); err != nil {
				t.Fatal(err)
			}
		}
	}

	r := rand.New(rand.NewSource(seed))
	catalog := DefaultCatalog()[category]
	upsert := func(cat, place, feat string, v float64, samples int) {
		t.Helper()
		if err := leader.DB().UpsertFeature(store.FeatureRow{Category: cat, Place: place, Feature: feat,
			Value: v, Samples: samples, Updated: t0}); err != nil {
			t.Fatal(err)
		}
	}
	// complete places are rows of the matrix; partial ones lack the
	// catalog's last feature. Values come from a small set so columns tie.
	var complete, partial []string
	value := func() float64 { return float64(r.Intn(12)) / 2 }
	addPlace := func(i int, cells int, withApp bool) string {
		t.Helper()
		app := concApp(i)
		if withApp {
			if err := leader.CreateApp(app); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range catalog[:cells] {
			upsert(category, app.Place, f.Name, value(), 1)
		}
		return app.Place
	}
	for i := 0; i < 10; i++ {
		complete = append(complete, addPlace(i, len(catalog), true))
	}
	for i := 10; i < 14; i++ {
		partial = append(partial, addPlace(i, len(catalog)-1, true))
	}
	// orphans have every catalog cell but no application yet: when one
	// joins, no feature row moves.
	orphans := []int{14, 15, 16, 17, 18, 19}
	for _, i := range orphans {
		addPlace(i, len(catalog), false)
	}
	pick := func(from []string) string { return from[r.Intn(len(from))] }

	check := func(step patchStep) {
		t.Helper()
		ship()
		for _, n := range nodes {
			snap, err := n.srv.freshSnapshot(category)
			if err != nil {
				t.Fatalf("%s after %s: %v", n.name, step.what, err)
			}
			rebuilds, deltas := n.srv.met.snapshotRebuilds.Value(), n.srv.met.snapshotDeltaRebuilds.Value()
			rebuilt, patched := rebuilds-n.rebuilds, deltas-n.deltas
			if rebuilt > 1 || patched > rebuilt || (rebuilt == 0) != (snap.epoch == epochOf(n.prev)) {
				t.Fatalf("%s after %s: %d rebuilds, %d patched, epoch %d → %d",
					n.name, step.what, rebuilt, patched, epochOf(n.prev), snap.epoch)
			}
			if rebuilt == 1 && (patched == 0) != (step.full || n.prev == nil) {
				t.Fatalf("%s after %s: patched=%v, want full build=%v", n.name, step.what, patched == 1, step.full || n.prev == nil)
			}
			// The replica sees every replicated row as a change; the leader
			// skips the version bump for an identical one.
			if rebuilt == 0 && n.name == "replica" && n.prev != nil && step.changed != nil {
				t.Fatalf("%s after %s: no rebuild", n.name, step.what)
			}
			matchesFullBuild(t, n.name+" after "+step.what, n.srv, category, snap)
			if patched == 1 {
				for i, place := range snap.cranker.Places() {
					got, was := snap.cranker.Row(i), n.prev.cranker.Row(i)
					if !slices.Contains(step.changed, place) && !slices.Equal(got, was) {
						t.Fatalf("%s after %s: unchanged row %s moved from %v to %v", n.name, step.what, place, was, got)
					}
				}
				if &snap.cranker.Places()[0] != &n.prev.cranker.Places()[0] || !sameIndex(snap.rowOf, n.prev.rowOf) {
					t.Fatalf("%s after %s: patched epoch rebuilt its places or row index", n.name, step.what)
				}
			}
			n.prev, n.rebuilds, n.deltas = snap, rebuilds, deltas
		}
	}

	check(patchStep{what: "first epoch", full: true})
	fullSeen := map[string]bool{}
	for i := 0; i < 120; i++ {
		var step patchStep
		switch r.Intn(8) {
		case 0, 1: // new values on a few rows, possibly the same row twice
			step.what = "new values"
			for n := 1 + r.Intn(3); n > 0; n-- {
				place := pick(complete)
				upsert(category, place, catalog[r.Intn(len(catalog))].Name, value()+100*float64(i+1), i+2)
				step.changed = append(step.changed, place)
			}
		case 2: // identical row: no version bump on the leader
			place, f := pick(complete), catalog[r.Intn(len(catalog))].Name
			row, err := leader.DB().Feature(category, place, f)
			if err != nil {
				t.Fatal(err)
			}
			step.what, step.changed = "same value", []string{place}
			upsert(category, place, f, row.Value, row.Samples)
		case 3: // another category's rows leave this one alone
			step.what = "foreign category"
			upsert(world.CategoryTrail, pick(complete), "temperature", value(), i+2)
		case 4: // a feature outside the catalog dirties the row, changes no cell
			step.what, step.changed = "foreign feature", []string{pick(complete)}
			upsert(category, step.changed[0], "curvature", value(), i+2)
		case 5: // membership grows: the place becomes a row
			if len(partial) == 1 { // case 6 keeps one to change
				continue
			}
			place := partial[0]
			partial = partial[1:]
			complete = append(complete, place)
			step.what, step.full = "place completes its catalog", true
			upsert(category, place, catalog[len(catalog)-1].Name, value(), 1)
		case 6: // a changed place that is not a row (still incomplete)
			step.what, step.full = "incomplete place changes", true
			upsert(category, pick(partial), catalog[0].Name, value()+100*float64(i+1), i+2)
		case 7: // an application joins, and only the store's app stamp says so
			if len(orphans) == 0 {
				continue
			}
			step.what, step.full = "app joins", true
			if err := leader.CreateApp(concApp(orphans[0])); err != nil {
				t.Fatal(err)
			}
			complete = append(complete, concApp(orphans[0]).Place)
			orphans = orphans[1:]
		}
		if step.full {
			fullSeen[step.what] = true
		}
		check(step)
	}
	for _, what := range []string{"place completes its catalog", "incomplete place changes", "app joins"} {
		if !fullSeen[what] {
			t.Fatalf("seed %d never exercised %q", seed, what)
		}
	}
	for _, n := range nodes {
		if n.deltas == 0 || n.deltas == n.rebuilds {
			t.Fatalf("%s: %d of %d rebuilds patched; want both paths exercised", n.name, n.deltas, n.rebuilds)
		}
	}
}

func epochOf(snap *rankSnapshot) int64 {
	if snap == nil {
		return 0
	}
	return snap.epoch
}

// sameIndex reports whether two row indexes are the same slice, not
// merely equal.
func sameIndex(a, b []int32) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b)
}

// matchesFullBuild compares a served snapshot with the from-scratch build
// over the node's current feature table.
func matchesFullBuild(t *testing.T, when string, s *Server, category string, snap *rankSnapshot) {
	t.Helper()
	want, rowOf, err := s.featureMatrix(category)
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if !slices.Equal(snap.cranker.Places(), want.Places) {
		t.Fatalf("%s: places %v, full build %v", when, snap.cranker.Places(), want.Places)
	}
	for i, row := range want.Values {
		got := snap.cranker.Row(i)
		for j, v := range row {
			if math.Float64bits(got[j]) != math.Float64bits(v) {
				t.Fatalf("%s: H[%s][%d] = %v, full build %v", when, want.Places[i], j, got[j], v)
			}
		}
	}
	if len(snap.rowOf) > len(rowOf) {
		t.Fatalf("%s: row index covers %d table rows, the table has %d", when, len(snap.rowOf), len(rowOf))
	}
	for r, i := range rowOf {
		got := int32(-1)
		if r < len(snap.rowOf) {
			got = snap.rowOf[r]
		}
		if got != i {
			t.Fatalf("%s: row index sends table row %d to row %d, full build to %d", when, r, got, i)
		}
	}
	scratch, err := ranking.NewColumnarRanker(want)
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	for j := range want.Features {
		gotIdx, gotVal := snap.cranker.Column(j)
		wantIdx, wantVal := scratch.Column(j)
		if !slices.Equal(gotIdx, wantIdx) || !slices.Equal(gotVal, wantVal) {
			t.Fatalf("%s: column %d\n got %v %v\nwant %v %v", when, j, gotIdx, gotVal, wantIdx, wantVal)
		}
	}
	profiles := []ranking.Profile{
		{Name: "warm and quiet", Prefs: map[string]ranking.Preference{
			"temperature": {Kind: ranking.PrefValue, Value: 3, Weight: 3},
			"noise":       {Kind: ranking.PrefMin, Weight: 2},
		}},
		{Name: "bright and connected", Prefs: map[string]ranking.Preference{
			"brightness":  {Kind: ranking.PrefMax, Weight: 4},
			"wifi":        {Kind: ranking.PrefMax, Weight: 1},
			"temperature": {Kind: ranking.PrefDefault, Weight: 1},
		}},
	}
	for _, prof := range profiles {
		for _, k := range []int{0, 3} {
			got, err := snap.cranker.RankTopK(prof, k, nil)
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			ref, err := scratch.RankTopK(prof, k, nil)
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			if !slices.Equal(got.OrderIdx, ref.OrderIdx) || !slices.Equal(got.Order, ref.Order) {
				t.Fatalf("%s: %s top-%d %v, full build %v", when, prof.Name, k, got.Order, ref.Order)
			}
		}
	}
}
