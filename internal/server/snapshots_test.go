package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sor/internal/ranking"
	"sor/internal/store"
	"sor/internal/wire"
	"sor/internal/world"
)

// reportWithReadings builds a report whose four coffee-shop sensors all
// read the same value, so the resulting feature means are predictable.
func reportWithReadings(taskID, appID, userID string, at time.Time, reading float64) *wire.DataUpload {
	ms := at.UnixMilli()
	series := make([]wire.SensorSeries, 0, 4)
	for _, sensor := range []string{"temperature", "light", "microphone", "wifi"} {
		series = append(series, wire.SensorSeries{
			Sensor: sensor,
			Samples: []wire.SensorSample{
				{AtUnixMilli: ms, WindowMilli: 5000, Readings: []float64{reading, reading, reading}},
			},
		})
	}
	return &wire.DataUpload{TaskID: taskID, AppID: appID, UserID: userID, Series: series}
}

// rankCoffee issues a default-profile rank request and returns the typed
// response (fatals on a refusal).
func rankCoffee(t *testing.T, s *Server) *wire.RankResponse {
	t.Helper()
	resp, err := s.Handler()(nil, &wire.RankRequest{UserID: "probe", Category: world.CategoryCoffee})
	if err != nil {
		t.Fatal(err)
	}
	ranked, ok := resp.(*wire.RankResponse)
	if !ok {
		t.Fatalf("rank refused: %+v", resp)
	}
	return ranked
}

// temperatureOf pulls the temperature column value for the response's
// single place.
func temperatureOf(t *testing.T, resp *wire.RankResponse) float64 {
	t.Helper()
	for j, f := range resp.Features {
		if f == "temperature" {
			return resp.Ranked[0].FeatureValues[j]
		}
	}
	t.Fatalf("no temperature feature in %v", resp.Features)
	return 0
}

// TestRankCoherentByDefault pins the RankRefresh == 0 contract: a rank
// issued after ingest observes that ingest, exactly like the legacy path
// that ran the processor on every query — and each observed change
// advances the epoch.
func TestRankCoherentByDefault(t *testing.T) {
	s, clock := newTestServer(t)
	if err := s.CreateApp(concApp(0)); err != nil {
		t.Fatal(err)
	}
	task := concJoin(t, s, 0, "coh-user")
	h := s.Handler()
	if _, err := h(nil, reportWithReadings(task, "conc-app-0", "coh-user", clock.Now(), 10)); err != nil {
		t.Fatal(err)
	}
	first := rankCoffee(t, s)
	if got := temperatureOf(t, first); got != 10 {
		t.Fatalf("temperature %v after first ingest, want 10", got)
	}
	if first.Epoch < 1 {
		t.Fatalf("epoch %d, want >= 1", first.Epoch)
	}

	// Re-rank without ingest: same snapshot, same epoch.
	if again := rankCoffee(t, s); again.Epoch != first.Epoch {
		t.Fatalf("epoch moved %d -> %d without ingest", first.Epoch, again.Epoch)
	}

	// New data must be visible on the very next rank (no clock advance).
	if _, err := h(nil, reportWithReadings(task, "conc-app-0", "coh-user", clock.Now().Add(10*time.Second), 50)); err != nil {
		t.Fatal(err)
	}
	second := rankCoffee(t, s)
	if got := temperatureOf(t, second); got != 30 { // mean of 3×10 and 3×50
		t.Fatalf("temperature %v after second ingest, want 30", got)
	}
	if second.Epoch <= first.Epoch {
		t.Fatalf("epoch %d after rebuild, want > %d", second.Epoch, first.Epoch)
	}
}

// TestRankStalenessBound is the cache-coherence regression test for
// RankRefresh > 0: ranks within the bound may serve the stale snapshot,
// but a rank past the refresh bound must reflect the new data.
func TestRankStalenessBound(t *testing.T) {
	clock := &virtualClock{now: t0}
	s, err := New(Config{
		DB:          store.New(),
		Now:         clock.Now,
		Catalog:     DefaultCatalog(),
		RankRefresh: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateApp(concApp(0)); err != nil {
		t.Fatal(err)
	}
	task := concJoin(t, s, 0, "stale-user")
	h := s.Handler()
	if _, err := h(nil, reportWithReadings(task, "conc-app-0", "stale-user", clock.Now(), 10)); err != nil {
		t.Fatal(err)
	}
	first := rankCoffee(t, s)
	if got := temperatureOf(t, first); got != 10 {
		t.Fatalf("temperature %v, want 10", got)
	}

	// Ingest new data; within the bound the stale snapshot keeps serving.
	if _, err := h(nil, reportWithReadings(task, "conc-app-0", "stale-user", clock.Now().Add(10*time.Second), 50)); err != nil {
		t.Fatal(err)
	}
	within := rankCoffee(t, s)
	if got := temperatureOf(t, within); got != 10 {
		t.Fatalf("temperature %v inside the staleness bound, want stale 10", got)
	}
	if within.Epoch != first.Epoch {
		t.Fatalf("epoch moved %d -> %d inside the staleness bound", first.Epoch, within.Epoch)
	}

	// Past the bound the next rank must rebuild and see the ingest.
	clock.Set(clock.Now().Add(2 * time.Minute))
	after := rankCoffee(t, s)
	if got := temperatureOf(t, after); got != 30 {
		t.Fatalf("temperature %v past the staleness bound, want 30", got)
	}
	if after.Epoch <= first.Epoch {
		t.Fatalf("epoch %d past the bound, want > %d", after.Epoch, first.Epoch)
	}

	// And with no further ingest, the refreshed snapshot is not rebuilt
	// again even long after the bound.
	clock.Set(clock.Now().Add(time.Hour))
	if idle := rankCoffee(t, s); idle.Epoch != after.Epoch {
		t.Fatalf("epoch moved %d -> %d with no ingest", after.Epoch, idle.Epoch)
	}
}

// TestProfileCacheSingleFlight checks that concurrent misses on one
// profile share one fill, hits don't refill, epoch advances clear the
// cache, and fills for superseded epochs are not cached.
func TestProfileCacheSingleFlight(t *testing.T) {
	var c profileCache
	c.init(4)
	var fills atomic.Int64
	res := &ranking.Result{}
	fill := func() (*ranking.Result, error) {
		fills.Add(1)
		return res, nil
	}
	// The concurrent phase needs the first fill to stay in flight until
	// every other goroutine has reached getOrCompute — a condition, not a
	// timed sleep: the fill parks on release, and the main goroutine only
	// releases it after all callers have announced themselves.
	var arrived atomic.Int64
	release := make(chan struct{})
	concFill := func() (*ranking.Result, error) {
		fills.Add(1)
		<-release
		return res, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived.Add(1)
			got, err := c.getOrCompute(1, "profile-a", concFill)
			if err != nil || got != res {
				t.Errorf("got (%v, %v), want (%p, nil)", got, err, res)
			}
		}()
	}
	for arrived.Load() < 8 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("%d fills for one profile, want 1 (single-flight)", n)
	}
	if _, err := c.getOrCompute(1, "profile-a", fill); err != nil {
		t.Fatal(err)
	}
	if n := fills.Load(); n != 1 {
		t.Fatalf("cache hit refilled (fills = %d)", n)
	}
	// Epoch advance clears: same key misses again.
	if _, err := c.getOrCompute(2, "profile-a", fill); err != nil {
		t.Fatal(err)
	}
	if n := fills.Load(); n != 2 {
		t.Fatalf("epoch advance did not clear the cache (fills = %d)", n)
	}
	// A stale-epoch fill computes but must not disturb the current epoch.
	if _, err := c.getOrCompute(1, "profile-b", fill); err != nil {
		t.Fatal(err)
	}
	if _, err := c.getOrCompute(2, "profile-a", fill); err != nil {
		t.Fatal(err)
	}
	if n := fills.Load(); n != 3 {
		t.Fatalf("stale-epoch fill disturbed the cache (fills = %d)", n)
	}
}

// TestProfileCacheEpochAdvanceAllocatesNoMap: an epoch advance empties
// the cache in place. The first query of a new epoch allocates what a miss
// within an epoch does (its entry), not a new 256-entry map — on a store
// under writes every rank advances the epoch.
func TestProfileCacheEpochAdvanceAllocatesNoMap(t *testing.T) {
	var c profileCache
	c.init(256)
	res := &ranking.Result{}
	fill := func() (*ranking.Result, error) { return res, nil }
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("profile-%d", i)
	}
	epoch, next := int64(1), 0
	query := func() {
		if _, err := c.getOrCompute(epoch, keys[next%len(keys)], fill); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range 256 {
		query()
	}
	miss := testing.AllocsPerRun(100, query) // each key evicted 768 queries before it returns
	advance := testing.AllocsPerRun(100, func() { epoch++; query() })
	if advance > miss {
		t.Fatalf("a query at a new epoch allocates %.1f times, a miss within one %.1f", advance, miss)
	}
	t.Logf("%.1f allocations for a query at a new epoch, %.1f for a miss within one", advance, miss)
}

// TestProfileCacheEviction checks the LRU bound holds and evicts the least
// recently used profile.
func TestProfileCacheEviction(t *testing.T) {
	var c profileCache
	c.init(2)
	fills := map[string]int{}
	get := func(key string) {
		t.Helper()
		if _, err := c.getOrCompute(1, key, func() (*ranking.Result, error) {
			fills[key]++
			return &ranking.Result{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // refresh a; b is now LRU
	get("c") // evicts b
	get("a")
	get("b")
	if fills["a"] != 1 {
		t.Fatalf("a filled %d times, want 1 (never evicted)", fills["a"])
	}
	if fills["b"] != 2 {
		t.Fatalf("b filled %d times, want 2 (evicted once)", fills["b"])
	}
}

// TestRankAnswerIndependentOfHistory: a rank answer is a function of the
// epoch's matrix, the profile and k. Server A answers profile p at epoch
// N, ingests, and answers p at epoch N+1; server B, holding the same
// rows, answers p only at epoch N+1. The two responses must be equal.
// The four places tie: at epoch N+1 both [2 0 1 3] (A's epoch-N answer)
// and [0 1 2 3] are footrule optima for p, so a server that reused its
// epoch-N answer would serve a different order than one that never saw
// it. The pooled run answers other profiles on both servers around every
// query, so no pooled solver or prefix scratch carries history either.
func TestRankAnswerIndependentOfHistory(t *testing.T) {
	epochs := [][][]float64{
		{{0, 0, 1, 0}, {1, 1, 1, 1}, {0, 1, 0, 1}, {0, 1, 2, 0}},
		{{0, 0, 1, 0}, {0, 1, 1, 1}, {0, 1, 0, 1}, {0, 1, 2, 0}},
	}
	pref := func(feature string, kind ranking.PrefKind, value float64, weight int) wire.PrefEntry {
		return wire.PrefEntry{Feature: feature, Kind: int(kind), Value: value, Weight: weight}
	}
	p := &wire.RankRequest{Category: world.CategoryCoffee, UserID: "p", TopK: 4, Prefs: []wire.PrefEntry{
		pref("temperature", ranking.PrefValue, 0, 2), pref("brightness", ranking.PrefMin, 0, 1),
		pref("noise", ranking.PrefMin, 0, 3), pref("wifi", ranking.PrefValue, 2, 1),
	}}
	others := []*wire.RankRequest{
		{Category: world.CategoryCoffee, UserID: "defaults"},
		{Category: world.CategoryCoffee, UserID: "bright", TopK: 2, Prefs: []wire.PrefEntry{
			pref("brightness", ranking.PrefMax, 0, 5), pref("temperature", ranking.PrefValue, 2, 1),
		}},
	}
	for _, pooled := range []bool{false, true} {
		t.Run(fmt.Sprintf("pooled=%v", pooled), func(t *testing.T) {
			rank := func(s *Server, req *wire.RankRequest) *wire.RankResponse {
				t.Helper()
				reqs := []*wire.RankRequest{req}
				if pooled {
					reqs = append(slices.Clip(others), req)
				}
				var ranked *wire.RankResponse
				for _, r := range reqs {
					resp, err := s.Handler()(nil, r)
					var ok bool
					if ranked, ok = resp.(*wire.RankResponse); err != nil || !ok {
						t.Fatalf("%s: rank refused: %+v, %v", r.UserID, resp, err)
					}
				}
				return ranked
			}
			var srv [2]*Server
			var got [2]*wire.RankResponse
			for x := range srv {
				s, err := New(Config{DB: store.New(), Now: (&virtualClock{now: t0}).Now, Catalog: DefaultCatalog()})
				if err != nil {
					t.Fatal(err)
				}
				srv[x] = s
				for i := range epochs[0] {
					if err := s.CreateApp(concApp(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for e, rows := range epochs {
				for _, s := range srv {
					for i, row := range rows {
						for j, f := range DefaultCatalog()[world.CategoryCoffee] {
							if err := s.DB().UpsertFeature(store.FeatureRow{Category: world.CategoryCoffee,
								Place: concApp(i).Place, Feature: f.Name, Value: row[j], Samples: 1, Updated: t0}); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				got[0] = rank(srv[0], p) // A answers p at every epoch
				if e == 0 {
					rank(srv[1], others[0]) // B builds epoch N without answering p
				}
			}
			got[1] = rank(srv[1], p)
			if got[0].Epoch != 2 || !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("A, which answered p at epoch 1, serves\n%+v\nB, which did not, serves\n%+v", got[0], got[1])
			}
		})
	}
}

// decodeProfileKey inverts rankSnapshot.profileKey; used by the fuzz test
// to prove injectivity by round-trip. Returns the preferences and the
// trailing top-k bound.
func decodeProfileKey(t *testing.T, features []string, key string) (map[string]ranking.Preference, int) {
	t.Helper()
	prefs := map[string]ranking.Preference{}
	b := []byte(key)
	for _, name := range features {
		if len(b) < 1 {
			t.Fatalf("key truncated at feature %q", name)
		}
		if b[0] == 0 {
			b = b[1:]
			continue
		}
		if len(b) < 25 {
			t.Fatalf("key truncated inside feature %q", name)
		}
		prefs[name] = ranking.Preference{
			Kind:   ranking.PrefKind(binary.BigEndian.Uint64(b[1:9])),
			Value:  math.Float64frombits(binary.BigEndian.Uint64(b[9:17])),
			Weight: int(binary.BigEndian.Uint64(b[17:25])),
		}
		b = b[25:]
	}
	if len(b) != 8 {
		t.Fatalf("%d trailing key bytes, want the 8-byte top-k suffix", len(b))
	}
	return prefs, int(binary.BigEndian.Uint64(b))
}

// FuzzProfileKey proves the canonical profile key is injective: the key
// decodes back to exactly the preferences that produced it (restricted to
// catalog features), so two distinct canonical profiles can never share a
// key. Seeds cover absent prefs, every kind, negative/NaN values, and
// out-of-range kinds/weights, plus the top-k suffix.
func FuzzProfileKey(f *testing.F) {
	features := []string{"temperature", "brightness", "noise", "wifi"}
	f.Add([]byte{})
	f.Add([]byte{1, 1, 64, 82, 64, 0, 0, 0, 0, 0, 3})
	f.Add([]byte{1, 4, 0, 0, 0, 0, 0, 0, 0, 0, 200, 0, 2, 127, 248, 0, 0, 0, 0, 0, 1, 5, 25})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap := &rankSnapshot{features: features}
		prefs := map[string]ranking.Preference{}
		for _, name := range features {
			if len(data) == 0 || data[0] == 0 {
				if len(data) > 0 {
					data = data[1:]
				}
				continue // absent preference
			}
			if len(data) < 11 {
				break
			}
			prefs[name] = ranking.Preference{
				Kind:   ranking.PrefKind(int(int8(data[1]))), // incl. invalid/negative kinds
				Value:  math.Float64frombits(binary.BigEndian.Uint64(data[2:10])),
				Weight: int(int8(data[10])), // incl. invalid/negative weights
			}
			data = data[11:]
		}
		topK := 0
		if len(data) > 0 {
			topK = int(data[0]) // incl. 0 (unbounded)
		}
		key := snap.profileKey(prefs, topK)
		decoded, decodedK := decodeProfileKey(t, features, key)
		if decodedK != topK {
			t.Fatalf("decoded top-k %d, want %d", decodedK, topK)
		}
		if len(decoded) != len(prefs) {
			t.Fatalf("decoded %d prefs, want %d", len(decoded), len(prefs))
		}
		for name, want := range prefs {
			got, ok := decoded[name]
			if !ok {
				t.Fatalf("feature %q lost in key", name)
			}
			if got.Kind != want.Kind || got.Weight != want.Weight ||
				math.Float64bits(got.Value) != math.Float64bits(want.Value) {
				t.Fatalf("feature %q: decoded %+v, want %+v", name, got, want)
			}
		}
		// A pref on a non-catalog feature must not change the key.
		prefs["off-catalog"] = ranking.Preference{Kind: ranking.PrefValue, Value: 1, Weight: 1}
		if snap.profileKey(prefs, topK) != key {
			t.Fatal("off-catalog preference changed the key")
		}
	})
}

// TestProfileKeyDistinguishes spot-checks key separation on the axes the
// cache must never conflate.
func TestProfileKeyDistinguishes(t *testing.T) {
	snap := &rankSnapshot{features: []string{"temperature", "noise"}}
	base := map[string]ranking.Preference{
		"temperature": {Kind: ranking.PrefValue, Value: 73, Weight: 3},
	}
	variants := []map[string]ranking.Preference{
		{},
		{"temperature": {Kind: ranking.PrefMax, Value: 73, Weight: 3}},
		{"temperature": {Kind: ranking.PrefValue, Value: 72, Weight: 3}},
		{"temperature": {Kind: ranking.PrefValue, Value: 73, Weight: 4}},
		{"noise": {Kind: ranking.PrefValue, Value: 73, Weight: 3}},
		{"temperature": {Kind: ranking.PrefKind(256 + int(ranking.PrefValue)), Value: 73, Weight: 3}},
	}
	baseKey := snap.profileKey(base, 0)
	for i, v := range variants {
		if snap.profileKey(v, 0) == baseKey {
			t.Fatalf("variant %d collides with base profile", i)
		}
	}
	// A bounded request must not share a key with the unbounded one: a
	// top-k result only determines the leading ranks.
	if snap.profileKey(base, 5) == baseKey {
		t.Fatal("top-k bound did not change the key")
	}
	// Same canonical profile (plus an ignored unknown feature) → same key.
	same := map[string]ranking.Preference{
		"temperature": base["temperature"],
		"unknown":     {Kind: ranking.PrefMin, Weight: 5},
	}
	if snap.profileKey(same, 0) != baseKey {
		t.Fatal("equivalent canonical profiles produced different keys")
	}
}

var _ = fmt.Sprintf // keep fmt imported if assertions above change

// TestSnapshotRearmOnForeignIngest: UploadSeq is store-global, so ingest
// into one category marks every category's snapshot stale. A category
// whose own features and membership did not move must re-arm — keep its
// epoch (and warm profile cache) without reassembling the matrix — while
// a write to its own features must still advance the epoch.
func TestSnapshotRearmOnForeignIngest(t *testing.T) {
	clock := &virtualClock{now: t0}
	db := store.New()
	s, err := New(Config{
		DB: db, Now: clock.Now, Catalog: DefaultCatalog(),
		RankRefresh: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	trailFeatures := []string{"temperature", "humidity", "roughness", "curvature", "altitude change"}
	for i := 0; i < 3; i++ {
		place := fmt.Sprintf("trail-%d", i)
		if err := s.CreateApp(store.Application{
			ID: fmt.Sprintf("trail-app-%d", i), Creator: "c", Category: world.CategoryTrail,
			Place: place, Lat: 43, Lon: -76, RadiusM: 100, Script: "return 1", PeriodSec: 3600,
		}); err != nil {
			t.Fatal(err)
		}
		for j, f := range trailFeatures {
			if err := db.UpsertFeature(store.FeatureRow{
				Category: world.CategoryTrail, Place: place, Feature: f,
				Value: float64(10*i + j), Samples: 1, Updated: clock.Now(),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.CreateApp(concApp(0)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	rank := func() *wire.RankResponse {
		t.Helper()
		resp, err := h(nil, &wire.RankRequest{
			UserID: "rearm-user", Category: world.CategoryTrail,
			Prefs: []wire.PrefEntry{{Feature: "temperature", Kind: 2, Weight: 3}},
		})
		if err != nil {
			t.Fatal(err)
		}
		r, ok := resp.(*wire.RankResponse)
		if !ok {
			t.Fatalf("rank refused: %+v", resp)
		}
		return r
	}
	first := rank()

	// Foreign ingest: a coffee report moves the global upload sequence but
	// touches nothing in the trail category.
	task := concJoin(t, s, 0, "rearm-user")
	up := reportWithReadings(task, concApp(0).ID, "rearm-user", clock.Now(), 42)
	if _, err := h(nil, up); err != nil {
		t.Fatal(err)
	}
	clock.Set(clock.Now().Add(2 * time.Minute)) // past the refresh bound
	second := rank()
	if second.Epoch != first.Epoch {
		t.Fatalf("foreign ingest advanced the trail epoch %d → %d; want a re-arm", first.Epoch, second.Epoch)
	}
	for i := range first.Ranked {
		if second.Ranked[i].Place != first.Ranked[i].Place {
			t.Fatalf("re-armed snapshot changed the ranking at %d", i)
		}
	}

	// A write to the trail category's own features must advance the epoch.
	if err := db.UpsertFeature(store.FeatureRow{
		Category: world.CategoryTrail, Place: "trail-1", Feature: "temperature",
		Value: 99, Samples: 2, Updated: clock.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	clock.Set(clock.Now().Add(2 * time.Minute))
	third := rank()
	if third.Epoch <= second.Epoch {
		t.Fatalf("trail feature write did not advance the epoch (%d → %d)", second.Epoch, third.Epoch)
	}
}
