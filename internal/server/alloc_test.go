package server

// Allocation gate for the rank hot path (the re-plan gate, with its work
// bound, is TestReplanAllocsAndWork, the join gate
// TestJoinCostIndependentOfDeparted, the upload→rank cycle gate
// TestFreshCycleAllocs, the late-sample gate
// TestLateSampleCostIndependentOfHistory, the per-upload recovery gate
// TestRecoveryAllocsPerUpload and the ping gate
// TestPingCostIndependentOfApps, further down; the count gates skip their
// count under the race detector, see race_on_test.go). A cached-hit rank query must
// cost a small constant number of allocations — the profile map, the
// canonical key string, and the wire response — independent of category
// size. The scratch that used to dominate (order/tie slices in the
// ranker, the profileKey buffer) is pooled; a regression that
// reintroduces per-place allocation on the hit path fails this gate
// loudly rather than showing up as a latency drift in a benchmark
// nobody reruns.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"sor/internal/feature"
	"sor/internal/obs"
	"sor/internal/schedule"
	"sor/internal/store"
	"sor/internal/wire"
	"sor/internal/world"
)

// rankCachedHitAllocBudget is the gate. The measured cost today is ~5
// allocations (request profile map, key string, response struct, ranked
// slice); the budget leaves headroom for innocuous churn while still
// catching any O(places) regression.
const rankCachedHitAllocBudget = 16

func TestRankCachedHitAllocs(t *testing.T) {
	s, clock := newTestServer(t)
	for i := 0; i < 4; i++ {
		if err := s.CreateApp(concApp(i)); err != nil {
			t.Fatal(err)
		}
		task := concJoin(t, s, i, "alloc-user")
		up := reportWithReadings(task, concApp(i).ID, "alloc-user", clock.Now(), float64(10+i))
		if _, err := s.Handler()(nil, up); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()
	req := &wire.RankRequest{
		UserID: "alloc-user", Category: world.CategoryCoffee, TopK: 2,
		Prefs: []wire.PrefEntry{
			{Feature: "temperature", Kind: 1, Value: 11, Weight: 3},
			{Feature: "noise", Kind: 2, Weight: 2},
		},
	}
	// Prime the snapshot and the profile cache.
	if _, err := h(nil, req); err != nil {
		t.Fatal(err)
	}
	_ = clock // virtual clock frozen: the snapshot stays fresh throughout

	avg := testing.AllocsPerRun(200, func() {
		resp, err := h(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := resp.(*wire.RankResponse); !ok || len(r.Ranked) != 2 {
			t.Fatalf("unexpected response %+v", resp)
		}
	})
	if avg > rankCachedHitAllocBudget && !raceEnabled {
		t.Fatalf("cached-hit rank query costs %.1f allocs, budget %d", avg, rankCachedHitAllocBudget)
	}
	t.Logf("cached-hit rank query: %.1f allocs (budget %d)", avg, rankCachedHitAllocBudget)
}

// TestRankTopKBoundsResponse pins the wire-visible contract of the TopK
// knob: the response is truncated to k places, and k larger than the
// category degrades to the full ranking.
func TestRankTopKBoundsResponse(t *testing.T) {
	s, clock := newTestServer(t)
	for i := 0; i < 5; i++ {
		if err := s.CreateApp(concApp(i)); err != nil {
			t.Fatal(err)
		}
		task := concJoin(t, s, i, "topk-user")
		up := reportWithReadings(task, concApp(i).ID, "topk-user", clock.Now().Add(time.Duration(i)*time.Second), float64(50-i))
		if _, err := s.Handler()(nil, up); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()
	full, err := h(nil, &wire.RankRequest{UserID: "topk-user", Category: world.CategoryCoffee,
		Prefs: []wire.PrefEntry{{Feature: "temperature", Kind: 2, Weight: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	fullResp := full.(*wire.RankResponse)
	if len(fullResp.Ranked) != 5 {
		t.Fatalf("full rank returned %d places, want 5", len(fullResp.Ranked))
	}
	for _, k := range []int{1, 3, 9} {
		resp, err := h(nil, &wire.RankRequest{UserID: "topk-user", Category: world.CategoryCoffee, TopK: k,
			Prefs: []wire.PrefEntry{{Feature: "temperature", Kind: 2, Weight: 3}}})
		if err != nil {
			t.Fatal(err)
		}
		r := resp.(*wire.RankResponse)
		want := k
		if want > 5 {
			want = 5
		}
		if len(r.Ranked) != want {
			t.Fatalf("TopK=%d returned %d places, want %d", k, len(r.Ranked), want)
		}
		// The bounded prefix must agree with the full ranking.
		for i := range r.Ranked {
			if r.Ranked[i].Place != fullResp.Ranked[i].Place {
				t.Fatalf("TopK=%d rank %d: %s != full %s", k, i, r.Ranked[i].Place, fullResp.Ranked[i].Place)
			}
		}
	}
}

// replanAllocBudget is the gate on one re-plan. Measured today: 10 — the
// sorted member list, the accumulator and its miss products, the plan, its
// map, and the two arrays the assignments are carved from. The tournament
// tree, the member bitsets, the stale flags and the per-member windows are
// pooled scratch, so neither the 30 members nor the 1 081 instants show up
// here.
const replanAllocBudget = 16

// TestReplanAllocsAndWork gates a re-plan at the size a busy place
// reaches: 30 members on the default 3-hour period. Allocations must not
// grow with members or instants, and the lazy greedy must stay inside its
// work bounds — one gain per live instant up front, then per selection at
// most the 4·radius+1 instants an Add can stale — and its tournament tree
// inside the bounds derived below.
func TestReplanAllocsAndWork(t *testing.T) {
	s, clock := newTestServer(t)
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	const members = 30
	for i := 0; i < members; i++ {
		clock.Set(t0.Add(time.Duration(i) * 4 * time.Minute))
		user := fmt.Sprintf("member-%02d", i)
		participate(t, s, user, "tok-"+user, 3+i%15)
	}
	st := s.states.get("app-sb")
	if n := st.timeline.N(); n != 1081 {
		t.Fatalf("timeline has %d instants, want 1081", n)
	}
	now := clock.Now()
	var plan *schedule.Plan
	avg := testing.AllocsPerRun(50, func() {
		var err error
		if plan, err = st.online.Replan(now); err != nil {
			t.Fatal(err)
		}
	})
	if avg > replanAllocBudget && !raceEnabled {
		t.Fatalf("a %d-member re-plan costs %.1f allocs, budget %d", members, avg, replanAllocBudget)
	}
	writes0, replays0 := schedule.LazyWork()
	if _, err := st.online.Replan(now); err != nil {
		t.Fatal(err)
	}
	writes1, replays1 := schedule.LazyWork()
	leafWrites, replays := int(writes1-writes0), int(replays1-replays0)

	selections, spent := 0, 0
	for i := 0; i < members; i++ {
		n := len(plan.Assignments[fmt.Sprintf("member-%02d", i)].Instants)
		selections += n
		if n == 3+i%15 {
			spent++
		}
	}
	if len(plan.Assignments) != members || selections < 100 {
		t.Fatalf("re-plan scheduled %d members, %d measurements", len(plan.Assignments), selections)
	}
	radius := int(math.Ceil(s.kernel.Support() / st.timeline.Step().Seconds()))
	if bound := st.timeline.N() + (4*radius+1)*selections; plan.OracleCalls > bound {
		t.Fatalf("re-plan made %d gain evaluations for %d selections, bound %d", plan.OracleCalls, selections, bound)
	}
	// Every member's window is [now, period end]: the tree is built over
	// those live instants with one gain each. After the build, a path is
	// replayed only when the root's key changes: its gain was recomputed
	// (one evaluation each), or a selection took the instant's last member
	// (at most one per selection). A candidate that moves because a member
	// spent their budget, and an instant nobody can take any more, are
	// re-keyed in that member's range pass instead — one leaf write per
	// instant of their window at most — and never surface: a member scan
	// per visit or dead instants popped one by one would replay a path for
	// each of them.
	live := st.timeline.N() - st.timeline.Index(now)
	if bound := plan.OracleCalls - live + selections; replays > bound {
		t.Fatalf("re-plan replayed %d tree paths, bound %d (%d gain evaluations, %d live instants, %d selections)",
			replays, bound, plan.OracleCalls, live, selections)
	}
	if bound := replays + spent*live; leafWrites > bound {
		t.Fatalf("re-plan wrote %d tree leaves, bound %d (%d replays, %d members spent over %d live instants)",
			leafWrites, bound, replays, spent, live)
	}
	t.Logf("%d-member re-plan: %.1f allocs (budget %d), %d gain evaluations for %d selections, %d path replays, %d leaf writes",
		members, avg, replanAllocBudget, plan.OracleCalls, selections, replays, leafWrites)
}

// walSchedTag is the first byte of the store's PutSchedule WAL records
// (schedTag in internal/store/codec.go).
const walSchedTag = 6

// TestJoinCostIndependentOfDeparted gates what one join costs at a place
// with 30 members present: after 2 000 members came and went it allocates
// what it does on a fresh period — within 10 %, in count and in bytes —
// and it logs one schedule record per row the replan changed, none for a
// row it left alone. The join's replan walks the present members only,
// and its distributor reads only the rows it plans.
func TestJoinCostIndependentOfDeparted(t *testing.T) {
	const members, departed, probes = 30, 2000, 7
	type cost struct{ allocs, bytes []float64 }
	measure := func(departed int) cost {
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
		if err := s.CreateApp(starbucksApp()); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		for i := 0; i < departed; i++ {
			user := fmt.Sprintf("gone-%04d", i)
			participate(t, s, user, "tok-"+user, 3)
			if resp, err := h(nil, &wire.Leave{UserID: user, AppID: "app-sb"}); err != nil || !resp.(*wire.Ack).OK {
				t.Fatalf("leave %s: %+v, %v", user, resp, err)
			}
		}
		for i := 0; i < members; i++ {
			clock.Set(t0.Add(time.Duration(i) * 4 * time.Minute))
			user := fmt.Sprintf("member-%02d", i)
			participate(t, s, user, "tok-"+user, 3+i%15)
		}
		st := s.states.get("app-sb")
		var c cost
		var before, after runtime.MemStats
		for p := 0; p < probes; p++ {
			clock.Set(t0.Add(time.Duration(members+p) * 4 * time.Minute))
			rows := make(map[string][]int64)
			for _, u := range st.online.Present() {
				taskID, _, _ := st.member(u)
				row, _ := s.DB().Schedule(taskID)
				rows[u] = row.AtUnix
			}
			lsn := backend.WAL().LastLSN()
			user := fmt.Sprintf("probe-%d", p)
			runtime.ReadMemStats(&before)
			participate(t, s, user, "tok-"+user, 5)
			runtime.ReadMemStats(&after)
			c.allocs = append(c.allocs, float64(after.Mallocs-before.Mallocs))
			c.bytes = append(c.bytes, float64(after.TotalAlloc-before.TotalAlloc))

			changed := 0
			for _, u := range st.online.Present() {
				taskID, _, _ := st.member(u)
				row, _ := s.DB().Schedule(taskID)
				if prev, ok := rows[u]; !ok || !slices.Equal(prev, row.AtUnix) {
					changed++
				}
			}
			records, err := backend.WAL().ReadAfter(lsn, 1<<20, 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			logged := 0
			for _, rec := range records {
				if rec[0] == walSchedTag {
					logged++
				}
			}
			if logged != changed || changed == 0 {
				t.Fatalf("%d departed, probe %d: the join changed %d rows and logged %d schedule records",
					departed, p, changed, logged)
			}
		}
		return c
	}
	fresh, crowded := measure(0), measure(departed)
	median := func(xs []float64) float64 { slices.Sort(xs); return xs[len(xs)/2] }
	for _, m := range []struct {
		what      string
		got, want float64
	}{
		{"allocations", median(crowded.allocs), median(fresh.allocs)},
		{"bytes", median(crowded.bytes), median(fresh.bytes)},
	} {
		if math.Abs(m.got-m.want) > 0.1*m.want && !raceEnabled {
			t.Fatalf("a join after %d departed members costs %.0f %s, on a fresh period %.0f", departed, m.got, m.what, m.want)
		}
		t.Logf("a join at %d present members: %.0f %s after %d departed, %.0f on a fresh period",
			members, m.got, m.what, departed, m.want)
	}
}

// freshCycleByteBudget is the gate on one upload→rank cycle at 2 000
// places. Measured today: ≈ 41 KB — the patched epoch's overlay (its
// slab, sorted runs and 2 000-bit mask), the decoded batch and its WAL
// records. The costs it guards against put 5.65 MB here: a matrix rebuilt
// from the feature table, a per-refresh copy of the folded history (which
// grows without bound), and a 512-row (45 KB) chunk per drained shard;
// and 184 KB: a patch that copied every row pointer and rewrote every
// changed column.
const freshCycleByteBudget = 128 << 10

// TestFreshCycleAllocs gates what one fresh cycle — an 8-report batch,
// then a rank that must reflect it — costs on a durable store with 2 000
// ranked places: its allocation stays inside the budget however much
// history has been folded, and after the category's first epoch every
// rebuild is a patched one.
func TestFreshCycleAllocs(t *testing.T) {
	const places, live, batch, cycles = 2000, 64, 8, 40
	clock := &virtualClock{now: t0}
	s, err := New(Config{
		Storage:  store.NewDurableBackend(t.TempDir()),
		Now:      clock.Now,
		Catalog:  DefaultCatalog(),
		Observer: obs.NewObserver(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	h := s.Handler()
	app := func(i int) store.Application {
		a := concApp(i)
		a.Lat = 43 + float64(i)*1e-3
		return a
	}
	tasks := make([]string, live)
	for i := 0; i < places; i++ {
		if err := s.CreateApp(app(i)); err != nil {
			t.Fatal(err)
		}
		if i < live {
			user := fmt.Sprintf("fresh-user-%d", i)
			resp, err := h(nil, &wire.Participate{UserID: user, Token: "tok-" + user, AppID: app(i).ID,
				Loc: wire.Location{Lat: app(i).Lat, Lon: app(i).Lon}, Budget: 1000})
			if err != nil {
				t.Fatal(err)
			}
			inner, err := wire.Decode(resp.(*wire.Ack).Payload)
			if err != nil {
				t.Fatal(err)
			}
			tasks[i] = inner.(*wire.Schedule).TaskID
			continue
		}
		for j, f := range DefaultCatalog()[world.CategoryCoffee] {
			if err := s.DB().UpsertFeature(store.FeatureRow{Category: world.CategoryCoffee, Place: app(i).Place,
				Feature: f.Name, Value: float64(i%97) + float64(j), Samples: 3, Updated: t0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var lastEpoch int64
	cycle := func(c int, rank bool) {
		b := &wire.DataUploadBatch{Uploads: make([]wire.DataUpload, batch)}
		for k := range b.Uploads {
			p := (c*batch + k) % live
			up := reportWithReadings(tasks[p], app(p).ID, fmt.Sprintf("fresh-user-%d", p),
				t0.Add(time.Duration(c)*10*time.Second), float64(c%17))
			up.ReportID = fmt.Sprintf("fresh-%d-%d", c, k)
			b.Uploads[k] = *up
		}
		resp, err := h(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		if ack, ok := resp.(*wire.Ack); !ok || ack.Code != 200 {
			t.Fatalf("cycle %d: batch answered %+v", c, resp)
		}
		if !rank {
			return
		}
		resp, err = h(nil, &wire.RankRequest{UserID: "fresh-ranker", Category: world.CategoryCoffee, TopK: 10})
		if err != nil {
			t.Fatal(err)
		}
		ranked, ok := resp.(*wire.RankResponse)
		if !ok || ranked.Epoch <= lastEpoch {
			t.Fatalf("cycle %d: rank answered %+v after epoch %d", c, resp, lastEpoch)
		}
		lastEpoch = ranked.Epoch
	}
	// Every live place reports once before the first rank, so the first
	// epoch already ranks all of them; a few more cycles warm the pools.
	const warm = live/batch + 4
	for c := 0; c < warm; c++ {
		cycle(c, c >= live/batch-1)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for c := 0; c < cycles; c++ {
		cycle(warm+c, true)
	}
	runtime.ReadMemStats(&after)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles
	rebuilds, patched := s.met.snapshotRebuilds.Value(), s.met.snapshotDeltaRebuilds.Value()
	if patched != rebuilds-1 {
		t.Fatalf("%d of %d rebuilds were patched; only the first epoch may build in full", patched, rebuilds)
	}
	if perCycle > freshCycleByteBudget {
		t.Fatalf("a fresh cycle allocates %d B, budget %d", perCycle, freshCycleByteBudget)
	}
	t.Logf("fresh cycle at %d places: %d B allocated (budget %d), %d of %d rebuilds patched",
		places, perCycle, freshCycleByteBudget, patched, rebuilds)
}

// countingFold counts the samples its Fold steps.
type countingFold struct {
	feature.Fold
	steps *int
}

func (f countingFold) Step(a *feature.Acc, window time.Duration, readings []float64) error {
	*f.steps++
	return f.Fold.Step(a, window, readings)
}

// TestLateSampleCostIndependentOfHistory gates what a late sample costs:
// one sample at a random earlier instant, behind 100 stored samples as
// behind 10 000, is stepped once when it is folded, the refresh steps no
// stored sample, and fold plus refresh allocate the same at both sizes.
// The value is still the extractor's over the whole history.
func TestLateSampleCostIndependentOfHistory(t *testing.T) {
	const appID = "history-app"
	r := rand.New(rand.NewSource(5))
	allocs := make(map[int]float64)
	for _, history := range []int{100, 10_000} {
		db := store.New()
		if err := db.PutApp(store.Application{ID: appID, Category: world.CategoryCoffee, Place: "history-place"}); err != nil {
			t.Fatal(err)
		}
		d := NewDataProcessor(db, false)
		steps := 0
		d.pipelines = map[string]feature.Fold{"temperature": countingFold{featurePipelines["temperature"], &steps}}
		ad := d.appData(appID)
		var all []feature.Sample
		upload := func(i int) *wire.DataUpload {
			smp := wire.SensorSample{AtUnixMilli: t0.UnixMilli() + int64(i)*1000, WindowMilli: 1000,
				Readings: []float64{float64(i%13) + 0.1, float64(i % 7)}}
			all = append(all, feature.Sample{At: time.UnixMilli(smp.AtUnixMilli).UTC(), Window: time.Second, Readings: smp.Readings})
			return &wire.DataUpload{AppID: appID, UserID: "history-user", Series: []wire.SensorSeries{{Sensor: "temperature", Samples: []wire.SensorSample{smp}}}}
		}
		for i := 0; i < history; i++ {
			d.foldDecoded(ad, upload(i))
		}
		if err := d.refreshApp(appID); err != nil {
			t.Fatal(err)
		}
		late := upload(r.Intn(history))
		steps = 0
		d.foldDecoded(ad, late)
		folded := steps
		if err := d.refreshApp(appID); err != nil {
			t.Fatal(err)
		}
		if folded != 1 || steps != 1 {
			t.Fatalf("a late sample behind %d: the fold stepped %d samples and the refresh %d more", history, folded, steps-folded)
		}
		row, err := db.Feature(world.CategoryCoffee, "history-place", "temperature")
		want, werr := featurePipelines["temperature"].Extract(all)
		if err != nil || werr != nil || math.Float64bits(row.Value) != math.Float64bits(want) || row.Samples != history+1 {
			t.Fatalf("after %d+1 samples: row %+v (%v), from scratch %v (%v)", history, row, err, want, werr)
		}
		allocs[history] = testing.AllocsPerRun(100, func() {
			d.foldDecoded(ad, late)
			if err := d.refreshApp(appID); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[100] != allocs[10_000] {
		t.Fatalf("fold + refresh of a late sample allocates %v behind 100 samples, %v behind 10 000", allocs[100], allocs[10_000])
	}
	t.Logf("fold + refresh of a late sample: %v allocations at either history", allocs[100])
}

// TestPlainRunMemoryIndependentOfHistory: a plain processor keeps no
// samples, so folding 10 000 more of them into one (app, sensor) leaves
// the live heap where it was, give or take a few partials.
func TestPlainRunMemoryIndependentOfHistory(t *testing.T) {
	const appID, more = "memory-app", 10_000
	db := store.New()
	if err := db.PutApp(store.Application{ID: appID, Category: world.CategoryCoffee, Place: "memory-place"}); err != nil {
		t.Fatal(err)
	}
	d := NewDataProcessor(db, false)
	ad := d.appData(appID)
	up := &wire.DataUpload{AppID: appID, UserID: "memory-user", Series: []wire.SensorSeries{{Sensor: "temperature",
		Samples: []wire.SensorSample{{AtUnixMilli: t0.UnixMilli(), WindowMilli: 1000, Readings: make([]float64, 4)}}}}}
	fold := func(n int) {
		for i := 0; i < n; i++ {
			smp := &up.Series[0].Samples[0]
			smp.AtUnixMilli += 1000
			for k := range smp.Readings {
				smp.Readings[k] = 20 + float64((i*7+k)%11)/3
			}
			d.foldDecoded(ad, up)
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	fold(100)
	before := heap()
	fold(more)
	after := heap()
	runtime.KeepAlive(d)
	// Keeping the samples would take at least their readings: 320 KB.
	if grown := int64(after) - int64(before); grown > 16<<10 {
		t.Fatalf("folding %d more samples grew the live heap by %d B", more, grown)
	}
	if _, values, err := d.extractApp(appID); err != nil || len(values) != 1 || values[0].samples != 100+more {
		t.Fatalf("after %d samples: %+v (%v)", 100+more, values, err)
	}
	t.Logf("folding %d more samples grew the live heap by %d B", more, int64(after)-int64(before))
}

// recoverAllocBudget is the gate on what recovery allocates per stored
// upload. Measured: 1.3, of which 1.0 is the ReportID string. Each worker
// decodes every upload into one reused message (wire.DecodeUpload), so a
// decode allocates only the report's ReportID — unique per report — while
// its other IDs and sensor names repeat and are kept, and its slices are
// reused; the fold steps the readings into accumulators of a few floats,
// the charge reuses the worker's instants buffer, and the history drain
// hands each app's rows over without a copy per job, their bodies
// aliasing the store's slabs. A fresh message per decode puts 19.7 here,
// and a second decode per body, an allocation per folded sample or a map
// per upload to find its instants more still.
const recoverAllocBudget = 2

// TestRecoveryAllocsPerUpload gates recovery's cost per stored upload: a
// server restarted over a store holding 1 024 uploads across 4 apps must
// decode each one once and fold it without a per-upload copy.
func TestRecoveryAllocsPerUpload(t *testing.T) {
	const apps, perApp = 4, 256
	s, clock := newTestServer(t)
	h := s.Handler()
	tasks := make([]string, apps)
	user := func(i int) string { return fmt.Sprintf("recover-user-%d", i) }
	for i := range tasks {
		if err := s.CreateApp(concApp(i)); err != nil {
			t.Fatal(err)
		}
		tasks[i] = concJoin(t, s, i, user(i))
	}
	for k := 0; k < perApp; k++ {
		b := &wire.DataUploadBatch{}
		for i := range tasks {
			up := concReport(tasks[i], concApp(i).ID, user(i), t0.Add(time.Duration(k)*10*time.Second))
			up.ReportID = fmt.Sprintf("recover-%d-%d", i, k)
			b.Uploads = append(b.Uploads, *up)
		}
		resp, err := h(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		if ack, ok := resp.(*wire.Ack); !ok || ack.Code != 200 {
			t.Fatalf("batch %d answered %+v", k, resp)
		}
	}
	// A second server over the same store is a restart that found every
	// upload still pending.
	restarted, err := New(Config{DB: s.DB(), Now: clock.Now, Catalog: DefaultCatalog()})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := restarted.recoverState(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if processed, decodeErrors := restarted.Processor().Stats(); processed != apps*perApp || decodeErrors != 0 {
		t.Fatalf("recovery folded %d uploads (%d decode errors), stored %d", processed, decodeErrors, apps*perApp)
	}
	for i := range tasks {
		if got := restarted.BudgetLedger(concApp(i).ID)[user(i)].Consumed; got != perApp {
			t.Fatalf("app %d: recovery charged %d instants, want %d", i, got, perApp)
		}
	}
	perUpload := float64(after.Mallocs-before.Mallocs) / (apps * perApp)
	if perUpload > recoverAllocBudget && !raceEnabled {
		t.Fatalf("recovery allocates %.1f times per stored upload, budget %d", perUpload, recoverAllocBudget)
	}
	t.Logf("recovery: %.1f allocations per stored upload (budget %d)", perUpload, recoverAllocBudget)
}

// TestPingCostIndependentOfApps gates the ping: it finds the caller's
// active task through the store's per-user index, so the bytes one ping
// allocates at 10 000 applications are at most twice those at 10 (a ping
// that sorted and probed every application allocated a copy of the whole
// table). The answer is the lowest application ID the user is active on.
func TestPingCostIndependentOfApps(t *testing.T) {
	perPing := func(apps int) float64 {
		s, _ := newTestServer(t)
		for i := 1; i < apps; i++ {
			if err := s.DB().PutApp(store.Application{ID: fmt.Sprintf("ping-filler-%05d", i),
				Category: world.CategoryCoffee, Place: fmt.Sprintf("ping-place-%05d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			if err := s.CreateApp(concApp(i)); err != nil {
				t.Fatal(err)
			}
		}
		want := concJoin(t, s, 1, "pinger")
		h := s.Handler()
		ping := &wire.Ping{Token: "tok-pinger"}
		pinged := func() string {
			resp, err := h(nil, ping)
			if err != nil {
				t.Fatal(err)
			}
			ack := resp.(*wire.Ack)
			if ack.Code == 204 {
				return ""
			}
			inner, err := wire.Decode(ack.Payload)
			if err != nil {
				t.Fatal(err)
			}
			return inner.(*wire.Schedule).TaskID
		}
		if got := pinged(); got != want {
			t.Fatalf("ping answered task %q, want %q", got, want)
		}
		const n = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			pinged()
		}
		runtime.ReadMemStats(&after)
		// A task on a lower app ID takes precedence; leaving it falls back.
		lower := concJoin(t, s, 0, "pinger")
		if got := pinged(); got != lower {
			t.Fatalf("ping answered task %q, want the lower app's %q", got, lower)
		}
		for i, next := range []string{want, ""} {
			resp, err := h(nil, &wire.Leave{UserID: "pinger", AppID: concApp(i).ID})
			if err != nil {
				t.Fatal(err)
			}
			if ack := resp.(*wire.Ack); !ack.OK {
				t.Fatalf("leave %s refused: %s", concApp(i).ID, ack.Message)
			}
			if got := pinged(); got != next {
				t.Fatalf("after leaving %s ping answered %q, want %q", concApp(i).ID, got, next)
			}
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	small, large := perPing(10), perPing(10000)
	if large > 2*small && !raceEnabled {
		t.Fatalf("a ping allocates %.0f B at 10 000 apps, %.0f B at 10 (budget 2×)", large, small)
	}
	t.Logf("ping: %.0f B at 10 apps, %.0f B at 10 000", small, large)
}

// TestPingCostIndependentOfUsers gates the ping's token lookup: the store
// finds the caller through its token index, so a ping at 20 000 users
// takes at most three times what it takes at 10 (a walk over every user
// took twelve). A token another user shares answers for the lower ID.
func TestPingCostIndependentOfUsers(t *testing.T) {
	perPing := func(users int) time.Duration {
		s, _ := newTestServer(t)
		for i := 1; i < users; i++ {
			if err := s.DB().PutUser(store.User{ID: fmt.Sprintf("ping-filler-%05d", i), Token: fmt.Sprintf("tok-filler-%05d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.DB().PutUser(store.User{ID: "zz-shares-the-token", Token: "tok-pinger"}); err != nil {
			t.Fatal(err)
		}
		if err := s.CreateApp(concApp(0)); err != nil {
			t.Fatal(err)
		}
		want := concJoin(t, s, 0, "pinger")
		h := s.Handler()
		ping := &wire.Ping{Token: "tok-pinger"}
		pinged := func() string {
			resp, err := h(nil, ping)
			if err != nil {
				t.Fatal(err)
			}
			inner, err := wire.Decode(resp.(*wire.Ack).Payload)
			if err != nil {
				t.Fatal(err)
			}
			return inner.(*wire.Schedule).TaskID
		}
		if got := pinged(); got != want {
			t.Fatalf("ping answered task %q, want the lower user ID's %q", got, want)
		}
		// The fastest of five rounds: what the lookup costs, not the noise.
		const rounds, n = 5, 200
		best := time.Duration(math.MaxInt64)
		for range rounds {
			start := time.Now()
			for range n {
				pinged()
			}
			best = min(best, time.Since(start)/n)
		}
		return best
	}
	small, large := perPing(10), perPing(20000)
	if large > 3*small && !raceEnabled {
		t.Fatalf("a ping takes %v at 20 000 users, %v at 10 (budget 3×)", large, small)
	}
	t.Logf("ping: %v at 10 users, %v at 20 000", small, large)
}
