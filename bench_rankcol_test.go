// Columnar rank-core benchmarks: ns per rank query at 200 / 2 000 /
// 10 000 places through the server's serving layer (snapshot + columnar
// top-k), plus the monolithic-aggregation baseline the pre-columnar read
// path paid per uncached solve. These back BENCH_rankcol.json and the
// "Columnar rank core" section of DESIGN.md.
//
// The category is seeded from a latent-quality model — each place has an
// underlying quality and every feature observes it with small noise, the
// regime the SOR paper's sensed features live in (a genuinely good coffee
// shop is quiet AND warm AND bright). Correlated columns are what make
// clean cuts dense, so bounded queries solve a handful of small blocks;
// adversarially uncorrelated columns degrade to the full solve, which the
// full-uncached variants measure.
//
//	go test -bench=RankColumnar -benchtime=2s .
package sor_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"sor/internal/rankagg"
	"sor/internal/ranking"
	"sor/internal/server"
	"sor/internal/store"
	"sor/internal/wire"
)

const colBenchCategory = "colbench"

// colBenchScales are the place counts of the scaling table. The
// monolithic baseline only runs through 2 000: at 10 000 places its n×n
// cost matrix alone is ~800 MB — which is the point of the columnar core.
var colBenchScales = []int{200, 2000, 10000}

const colBenchMonolithicMax = 2000

// colBenchEnv is an in-process server with a fully sensed n-place
// category generated from the latent-quality model.
type colBenchEnv struct {
	srv    *server.Server
	db     *store.Store
	handle func(wire.Message) (wire.Message, error)
	n      int
	start  time.Time
}

// colBenchValues returns the four feature values a place with latent
// quality u (0 = best) out of n reports. The noise term displaces a
// place by a couple of ranks regardless of scale, so the per-feature
// rankings agree on coarse order but not fine order — the clean cuts the
// block decomposition feeds on stay dense (every few ranks) while blocks
// stay non-trivial. Wider noise shrinks cut density: at ±25 ranks with
// four independent features, cuts all but vanish and every solve
// degrades to the monolithic fallback (the regime
// BenchmarkRankMonolithicBaseline prices).
func colBenchValues(rng *rand.Rand, u float64, n int) [4]float64 {
	// jitterRanks controls how many ranks a single feature observation is
	// displaced by sensing noise.
	const jitterRanks = 2.0
	noise := func(spread float64) float64 {
		return (rng.Float64()*2 - 1) * jitterRanks * spread / float64(n)
	}
	return [4]float64{
		73 + u*20 + noise(20),     // temperature: default prefers 73 exactly
		1000 - u*500 + noise(500), // brightness: PrefMax
		30 + u*40 + noise(40),     // noise: PrefMin
		-40 - u*30 + noise(30),    // wifi: PrefMax
	}
}

func newColBenchEnv(b *testing.B, n int) *colBenchEnv {
	b.Helper()
	catalog := map[string][]ranking.Feature{
		colBenchCategory: {
			{Name: "temperature", Unit: "°F",
				Default: ranking.Preference{Kind: ranking.PrefValue, Value: 73, Weight: 3}},
			{Name: "brightness", Unit: "lux",
				Default: ranking.Preference{Kind: ranking.PrefMax, Weight: 2}},
			{Name: "noise", Unit: "",
				Default: ranking.Preference{Kind: ranking.PrefMin, Weight: 4}},
			{Name: "wifi", Unit: "dBm",
				Default: ranking.Preference{Kind: ranking.PrefMax, Weight: 1}},
		},
	}
	db := store.New()
	srv, err := server.New(server.Config{
		DB:          db,
		Catalog:     catalog,
		RankRefresh: time.Second,
		Observer:    benchObserver(),
	})
	if err != nil {
		b.Fatal(err)
	}
	env := &colBenchEnv{srv: srv, db: db, n: n, start: time.Now().UTC()}
	h := srv.Handler()
	env.handle = func(m wire.Message) (wire.Message, error) { return h(nil, m) }
	rng := rand.New(rand.NewSource(int64(n)))
	features := catalog[colBenchCategory]
	for p := 0; p < n; p++ {
		place := fmt.Sprintf("col-place-%05d", p)
		if err := srv.CreateApp(store.Application{
			ID: fmt.Sprintf("col-app-%05d", p), Creator: "bench", Category: colBenchCategory,
			Place: place, Lat: 43.0 + float64(p)*1e-4, Lon: -76.0,
			RadiusM: 500, Script: "return 1", PeriodSec: benchPeriodSec,
		}); err != nil {
			b.Fatal(err)
		}
		vals := colBenchValues(rng, float64(p)/float64(n), n)
		for j, f := range features {
			if err := db.UpsertFeature(store.FeatureRow{
				Category: colBenchCategory, Place: place, Feature: f.Name,
				Value: vals[j], Samples: 3, Updated: env.start,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return env
}

// colBenchPrefs perturbs the preferred temperature per sequence number:
// the ranking is essentially unchanged but every query is a distinct
// cache key, so "uncached" variants measure real solves, not map hits.
func colBenchPrefs(seq int) []wire.PrefEntry {
	return []wire.PrefEntry{
		{Feature: "temperature", Kind: int(ranking.PrefValue),
			Value: 73 + float64(seq%100000)*1e-9, Weight: 3},
		{Feature: "noise", Kind: int(ranking.PrefMin), Weight: 4},
	}
}

// query issues one rank request and sanity-checks the response shape.
func (e *colBenchEnv) query(seq, topK, wantRanked int) error {
	resp, err := e.handle(&wire.RankRequest{
		UserID: "col-bench", Category: colBenchCategory, TopK: topK,
		Prefs: colBenchPrefs(seq),
	})
	if err != nil {
		return err
	}
	ranked, ok := resp.(*wire.RankResponse)
	if !ok {
		return fmt.Errorf("rank refused: %+v", resp)
	}
	if len(ranked.Ranked) != wantRanked {
		return fmt.Errorf("ranked %d places, want %d", len(ranked.Ranked), wantRanked)
	}
	return nil
}

// colBenchEnvs memoizes one settled env per scale so filtered bench runs
// never pay setup for scales they skip, and the three variants of one
// scale share a snapshot.
var colBenchEnvs = map[int]*colBenchEnv{}

func colEnv(b *testing.B, n int) *colBenchEnv {
	b.Helper()
	if env, ok := colBenchEnvs[n]; ok {
		return env
	}
	env := newColBenchEnv(b, n)
	if err := env.query(0, 0, n); err != nil { // settle the snapshot
		b.Fatal(err)
	}
	colBenchEnvs[n] = env
	return env
}

// BenchmarkRankColumnar is the scaling table: per-query cost of the
// columnar serving path at each scale, bounded (top-10) and full,
// uncached (distinct profile every query — the per-epoch solve cost) and
// cached (the steady-state hit). ns/op counts one query.
func BenchmarkRankColumnar(b *testing.B) {
	for _, n := range colBenchScales {
		n := n
		b.Run(fmt.Sprintf("places=%d/topk10-uncached", n), func(b *testing.B) {
			env := colEnv(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.query(i+1, 10, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("places=%d/full-uncached", n), func(b *testing.B) {
			env := colEnv(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.query(i+1, 0, n); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("places=%d/topk10-cached", n), func(b *testing.B) {
			env := colEnv(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.query(0, 10, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRankMonolithicBaseline is the pre-columnar uncached solve: one
// monolithic n×n footrule aggregation over the same individual rankings
// the columnar path block-decomposes. Deliberately conservative — it
// times only the aggregation, not the per-query matrix assembly the old
// path also paid. Capped at 2 000 places (see colBenchMonolithicMax).
func BenchmarkRankMonolithicBaseline(b *testing.B) {
	for _, n := range colBenchScales {
		if n > colBenchMonolithicMax {
			continue
		}
		n := n
		b.Run(fmt.Sprintf("places=%d/monolithic-uncached", n), func(b *testing.B) {
			env := colEnv(b, n)
			matrix, err := env.srv.FeatureMatrix(colBenchCategory)
			if err != nil {
				b.Fatal(err)
			}
			ranker, err := ranking.NewRanker(matrix)
			if err != nil {
				b.Fatal(err)
			}
			prof := ranking.Profile{Name: "bench", Prefs: map[string]ranking.Preference{}}
			for _, p := range colBenchPrefs(0) {
				prof.Prefs[p.Feature] = ranking.Preference{
					Kind: ranking.PrefKind(p.Kind), Value: p.Value, Weight: p.Weight,
				}
			}
			res, err := ranker.Rank(prof)
			if err != nil {
				b.Fatal(err)
			}
			coll := rankagg.Collection{}
			for _, f := range matrix.Features {
				coll.Rankings = append(coll.Rankings, rankagg.Ranking(res.Individual[f.Name]))
				coll.Weights = append(coll.Weights, float64(res.Weights[f.Name]))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := rankagg.FootruleAggregate(coll); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRankColumnarLiveIngest measures the 10k-place bounded query
// path while a writer keeps touching a small rotating set of places —
// every staleness-bound expiry forces an epoch rebuild, which the serving
// layer satisfies with an incremental column merge (membership is
// stable). ns/op counts one query; rebuild cost lands on the unlucky
// queries that trigger it, exactly as in production.
// This benchmark is defined last in the file so its store mutations
// cannot disturb the shared envs of the scaling-table benchmarks above.
func BenchmarkRankColumnarLiveIngest(b *testing.B) {
	const n = 10000
	env := colEnv(b, n)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(99))
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		var seq int
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			// Touch ~8 places per tick: re-derived features move slightly,
			// the store records them changed, the next rebuild delta-merges.
			for i := 0; i < 8; i++ {
				p := rng.Intn(n)
				vals := colBenchValues(rng, float64(p)/float64(n), n)
				if err := env.db.UpsertFeature(store.FeatureRow{
					Category: colBenchCategory, Place: fmt.Sprintf("col-place-%05d", p),
					Feature: "temperature", Value: vals[0], Samples: 3,
					Updated: env.start.Add(time.Duration(seq) * time.Second),
				}); err != nil {
					b.Error(err)
					return
				}
				seq++
			}
		}
	}()
	b.ResetTimer()
	var next atomic.Int64
	const workers = 8
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for {
				seq := int(next.Add(1)) - 1
				if seq >= b.N {
					errCh <- nil
					return
				}
				if err := env.query(seq, 10, 10); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}
