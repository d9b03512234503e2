package main

import (
	"context"
	"fmt"
	"time"

	"sor"
	"sor/internal/store"
	"sor/internal/wire"
)

// rankWorkload: two HTTP clients → router → one durable shard leader. The
// op is one top-10 RankRequest answered. 80 % of queries draw from a
// 64-profile hot pool (it fits the server's 256-entry cache) and 20 % are
// never-repeated profiles, so one workload shows two regimes: p50_ms is a
// cached hit (two HTTP hops, the router, the cache) and p90_ms and
// ops_per_s are the uncached prefix walk and mcmf block solves. Ingest,
// the WAL and the scheduler do nothing here: there are no writes.
type rankWorkload struct {
	cfg     *config
	leader  *node
	router  *node
	clients [nClients]sender
	seq     [nClients]int
	epoch   int64 // the one epoch every measured answer must carry
}

// firstSolveLimit aborts a mis-sized category before it hangs in the
// noise cliff (see targetNoise).
const firstSolveLimit = 50 * time.Millisecond

func (w *rankWorkload) leaders() []*node { return []*node{w.leader} }

// seedCategory registers n places and writes their feature rows straight
// into the store (set-up only; WAL-logged like any other mutation).
func seedCategory(seed int64, srv *sor.Server, category string, from, to, n int, noise float64) error {
	now := time.Now().UTC()
	for p := from; p < to; p++ {
		if err := srv.CreateApp(benchApp(category, p)); err != nil {
			return err
		}
		vals := placeValues(seed, category, p, n, noise)
		for j, f := range benchFeatures {
			if err := srv.DB().UpsertFeature(store.FeatureRow{Category: category, Place: placeName(category, p),
				Feature: f.name, Value: vals[j], Samples: 3, Updated: now}); err != nil {
				return err
			}
		}
	}
	return nil
}

// startRouted starts shards durable leaders, records the routing aliases
// (app → category) and pins (category → shard) in the cluster map, and
// puts a router in front.
func startRouted(b *bed, shards int, pins map[string]int, apps map[string]string) (leaders []*node, router *node, err error) {
	for i := 0; i < shards; i++ {
		shard := shardName(i)
		n, err := b.startMember(memberSpec{name: shard + "-leader", role: sor.RoleLeader, shard: shard,
			http: true, parent: spanForward, catalog: benchCatalog()})
		if err != nil {
			return nil, nil, err
		}
		leaders = append(leaders, n)
	}
	byName := make(map[string]string, len(pins))
	for cat, i := range pins {
		byName[cat] = shardName(i)
	}
	if err := b.pinCluster(apps, byName); err != nil {
		return nil, nil, err
	}
	router, err = b.startRouter("router")
	return leaders, router, err
}

func shardName(i int) string { return fmt.Sprintf("shard-%d", i) }

func (w *rankWorkload) build(cfg *config, b *bed) error {
	w.cfg = cfg
	leaders, router, err := startRouted(b, 1, map[string]int{catA: 0, catShadow: 0}, nil)
	if err != nil {
		return err
	}
	w.leader, w.router = leaders[0], router
	srv, n := w.leader.server(), cfg.sz.rankPlaces
	if err := seedCategory(cfg.seed, srv, catA, 0, n/2, n, targetNoise); err != nil {
		return err
	}
	if err := w.leader.running().Checkpoint(); err != nil {
		return err
	}
	if err := seedCategory(cfg.seed, srv, catA, n/2, n, n, targetNoise); err != nil {
		return err
	}
	if err := seedCategory(cfg.seed, srv, catShadow, 0, cfg.sz.rankShadow, cfg.sz.rankShadow, targetNoise); err != nil {
		return err
	}
	for c := 0; c < nClients; c++ {
		if w.clients[c], err = b.httpClient(w.router); err != nil {
			return err
		}
	}
	// The first query builds the epoch; the next five are uncached solves
	// on it, which size the category.
	ctx := context.Background()
	var solves []float64
	for id := 0; id < 6; id++ {
		t0 := time.Now()
		if _, err := w.query(plainOp(ctx), 0, targetPrefs(cfg.seed, id)); err != nil {
			return err
		}
		if id > 0 {
			solves = append(solves, time.Since(t0).Seconds())
		}
	}
	if d := time.Duration(median(solves) * float64(time.Second)); d > firstSolveLimit {
		return fmt.Errorf("an uncached solve over %d places takes %v (limit %v): the category is past "+
			"the noise cliff; lower targetNoise or the place count", n, d, firstSolveLimit)
	}
	return nil
}

// query sends one top-10 query on the ranked category through client c.
func (w *rankWorkload) query(o *opCtx, c int, prefs []wire.PrefEntry) (*wire.RankResponse, error) {
	return rankTop10(o, w.clients[c], catA, prefs)
}

// rankTop10 sends one top-10 query and checks the answer's shape.
func rankTop10(o *opCtx, s sender, category string, prefs []wire.PrefEntry) (*wire.RankResponse, error) {
	resp, err := o.send(s, &wire.RankRequest{Category: category, UserID: "ranker", TopK: 10, Prefs: prefs})
	if err != nil {
		return nil, err
	}
	rr, ok := resp.(*wire.RankResponse)
	if !ok {
		if ack, isAck := resp.(*wire.Ack); isAck {
			return nil, fmt.Errorf("%w: %d %s", errRefused, ack.Code, ack.Message)
		}
		return nil, fmt.Errorf("%w: answered %s", errRefused, resp.Type())
	}
	if rr.Category != category || len(rr.Ranked) != 10 {
		return nil, fmt.Errorf("rank answer has %d places of %q, want 10 of %q", len(rr.Ranked), rr.Category, category)
	}
	return rr, nil
}

func (w *rankWorkload) first(o *opCtx) error {
	rr, err := w.query(o, 0, targetPrefs(w.cfg.seed, 0))
	if err == nil {
		w.epoch = rr.Epoch
	}
	return err
}

// survived: the recovered leader must rank every seeded place.
func (w *rankWorkload) survived() error {
	m, err := w.leader.server().FeatureMatrix(catA)
	if err != nil {
		return err
	}
	if len(m.Places) != w.cfg.sz.rankPlaces {
		return fmt.Errorf("recovered category has %d places, seeded %d", len(m.Places), w.cfg.sz.rankPlaces)
	}
	return nil
}

// warm loads the hot pool into the result cache, then runs discarded
// queries of the measured mix.
func (w *rankWorkload) warm(ctx context.Context) error {
	for id := 0; id < hotProfiles; id++ {
		if _, err := w.query(plainOp(ctx), id%nClients, targetPrefs(w.cfg.seed, id)); err != nil {
			return err
		}
	}
	return drive(ctx, w, w.cfg.sz.rankWarm)
}

func (w *rankWorkload) op(o *opCtx, c int) error {
	i := w.seq[c]
	w.seq[c]++
	rr, err := w.query(o, c, rankQuery(w.cfg.seed, catA, c, i).Prefs)
	if err != nil {
		return err
	}
	if rr.Epoch != w.epoch {
		return fmt.Errorf("rank answer from epoch %d, want %d: nothing wrote", rr.Epoch, w.epoch)
	}
	return nil
}

// verify serves the shadow category through the router and compares each
// top-10 with the prefix of the row-oriented oracle, sor.RankPlaces over
// Server.FeatureMatrix.
func (w *rankWorkload) verify(ctx context.Context) error {
	m, err := w.leader.server().FeatureMatrix(catShadow)
	if err != nil {
		return err
	}
	for id := 0; id < 8; id++ {
		prefs := targetPrefs(w.cfg.seed, id)
		rr, err := rankTop10(plainOp(ctx), w.clients[0], catShadow, prefs)
		if err != nil {
			return fmt.Errorf("shadow query %d: %w", id, err)
		}
		want, err := sor.RankPlaces(m, profileOf("oracle", prefs))
		if err != nil {
			return fmt.Errorf("oracle %d: %w", id, err)
		}
		for k, rp := range rr.Ranked {
			if rp.Place != want.Order[k] {
				return fmt.Errorf("shadow profile %d rank %d: served %s, oracle %s", id, k+1, rp.Place, want.Order[k])
			}
		}
	}
	return nil
}

func (w *rankWorkload) digest() (string, error) {
	var msgs []wire.Message
	for c := 0; c < nClients; c++ {
		for i := 0; i < digestOps; i++ {
			msgs = append(msgs, rankQuery(w.cfg.seed, catA, c, i))
		}
	}
	return digestOf(msgs)
}

func (w *rankWorkload) layers(e *probeEnv, lv *layerValues) error {
	return e.rankProbes(lv, w.leader, catA, targetPrefs, 8)
}
