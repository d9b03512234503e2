package server

import (
	"container/list"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sor/internal/obs"
	"sor/internal/ranking"
	"sor/internal/wire"
)

// This file is the rank-serving read path (see DESIGN.md, "Read path &
// caching"). Each category serves queries from an immutable epoch-versioned
// snapshot of its feature matrix held behind an atomic pointer; ingest only
// bumps counters, and the snapshot rebuilds lazily when a rank request
// observes staleness. Rank results are cached per (epoch, canonical
// profile), so the common repeated-profile query is a map hit that never
// touches the store, the processor, or the mcmf solver.

// rankCacheSize bounds each category's profile-keyed result cache. Results
// for a 200-place category are a few KB each, so 256 distinct profiles per
// category is cheap and far beyond what real query mixes need.
const rankCacheSize = 256

// errNoRankData distinguishes "category has no servable data" (a 404 to
// the client) from internal failures.
var errNoRankData = errors.New("server: no rank data")

// rankSnapshot is one immutable epoch of a category's rank-serving state.
// Everything in it is read-only after construction, so concurrent rankers
// share it without copying or locking, and so does the next epoch: a
// patched epoch (see patchEpoch) shares the previous one's features
// header and rowOf index, and — through the columnar ranker — its places,
// base columns and base value rows (see ranking.ColumnSet). Superseded
// epochs stay fully readable until the last query drops them; the garbage
// collector is the row and arena lifecycle, so a torn or freed row or
// column is unrepresentable.
type rankSnapshot struct {
	epoch    int64
	cranker  *ranking.ColumnarRanker
	features []string // response header, aligned with the ranker's columns
	// rowOf maps a row of the category's feature table to the epoch's
	// row, -1 for a place the epoch does not list (Store.FeatureValues).
	// Built once per full build and carried unchanged by every epoch
	// patched from it.
	rowOf []int32

	// Staleness signals captured at build time; the snapshot is stale once
	// any of them moves (see snapStale).
	builtDirty     int64 // this server's ingest counter for the category
	builtFeatVer   int64 // store-level feature version (cross-server writes)
	builtUploadSeq int64 // store-level raw-upload sequence (pending blobs)
	builtAt        time.Time
}

// categoryServing is one category's serving state: the current snapshot,
// the ingest dirty counter, and the profile-keyed result cache.
type categoryServing struct {
	snap  atomic.Pointer[rankSnapshot]
	dirty atomic.Int64
	// rebuildMu serializes snapshot rebuilds. Rankers that lose the
	// TryLock race serve the previous snapshot instead of blocking.
	rebuildMu sync.Mutex
	cache     profileCache
}

// serving returns (creating on first use) a category's serving state.
func (s *Server) serving(category string) *categoryServing {
	if v, ok := s.servingByCat.Load(category); ok {
		return v.(*categoryServing)
	}
	cs := &categoryServing{}
	cs.cache.init(rankCacheSize)
	// The hit/miss handles are shared across categories: the ratio is a
	// server-level serving-health signal.
	cs.cache.hits = s.met.rankCacheHits
	cs.cache.misses = s.met.rankCacheMisses
	v, _ := s.servingByCat.LoadOrStore(category, cs)
	return v.(*categoryServing)
}

// markDirty records that ingest touched an application, bumping its
// category's dirty counter. The appID→category mapping is cached so the
// ingest hot path pays one sync.Map hit, not a store lookup.
func (s *Server) markDirty(appID string) {
	cat, ok := s.appCats.Load(appID)
	if !ok {
		app, err := s.db.App(appID)
		if err != nil {
			return // unknown app: nothing to invalidate
		}
		cat, _ = s.appCats.LoadOrStore(appID, app.Category)
	}
	if c := cat.(string); c != "" {
		s.serving(c).dirty.Add(1)
	}
}

// snapStale reports whether the snapshot no longer reflects the data. With
// RankRefresh == 0 (the default) any movement of the ingest counters makes
// it stale — rank-after-ingest coherence identical to the legacy path that
// re-processed per query. With RankRefresh > 0 a stale-data snapshot keeps
// serving until it is older than the refresh bound, so a query burst under
// live ingest rebuilds at most once per bound.
func (s *Server) snapStale(cs *categoryServing, category string, snap *rankSnapshot) bool {
	moved := cs.dirty.Load() != snap.builtDirty ||
		s.db.FeatureVersion(category) != snap.builtFeatVer ||
		s.db.UploadSeq() != snap.builtUploadSeq
	if !moved {
		return false
	}
	if s.rankRefresh <= 0 {
		return true
	}
	return s.now().Sub(snap.builtAt) >= s.rankRefresh
}

// freshSnapshot returns a servable snapshot for the category, rebuilding
// if the current one is stale. The fast path is one atomic load plus three
// counter comparisons.
func (s *Server) freshSnapshot(category string) (*rankSnapshot, error) {
	cs := s.serving(category)
	snap := cs.snap.Load()
	if snap != nil && !s.snapStale(cs, category, snap) {
		return snap, nil
	}
	return s.rebuildSnapshot(cs, category, snap)
}

// rebuildSnapshot folds pending uploads and builds the next epoch. Only
// one goroutine rebuilds at a time; concurrent rankers that already have a
// snapshot serve it stale rather than block (first build must wait — there
// is nothing to serve yet).
func (s *Server) rebuildSnapshot(cs *categoryServing, category string, prev *rankSnapshot) (*rankSnapshot, error) {
	if !cs.rebuildMu.TryLock() {
		if prev != nil {
			return prev, nil
		}
		cs.rebuildMu.Lock()
	}
	defer cs.rebuildMu.Unlock()
	// The rebuild this goroutine raced may have done the work already.
	if snap := cs.snap.Load(); snap != nil && !s.snapStale(cs, category, snap) {
		return snap, nil
	}
	// Merge against the snapshot actually installed, not the caller's
	// (possibly superseded) view.
	prev = cs.snap.Load()
	// Capture the ingest signals before folding: anything arriving during
	// the rebuild re-marks the next query stale (conservative, never lost).
	// Rebuild duration is measured on the wall clock — s.now may be a
	// frozen virtual clock in tests and simulations.
	t0 := time.Now()
	dirty := cs.dirty.Load()
	uploadSeq := s.db.UploadSeq()
	// A replica never folds uploads itself: feature rows arrive through
	// the replicated WAL (the leader's processor wrote them), and running
	// the processor here would write this node's log, diverging it from
	// the leader's byte-for-byte copy.
	if !s.replica.Load() {
		s.processor.Process()
	}
	featVer := s.db.FeatureVersion(category)

	// Re-arm fast path: UploadSeq is store-global, so traffic to OTHER
	// categories re-marks this snapshot stale. If folding moved nothing in
	// this category — PutApp and every feature write bump its version, so
	// an unchanged version means identical matrix rows — keep the epoch
	// (and with it the profile cache) and only refresh the captured
	// signals, skipping the O(places×features) matrix reassembly.
	if prev != nil && featVer == prev.builtFeatVer {
		snap := *prev
		snap.builtDirty = dirty
		snap.builtUploadSeq = uploadSeq
		snap.builtAt = s.now()
		cs.snap.Store(&snap)
		s.met.snapshotRearms.Inc()
		return &snap, nil
	}

	// Patched epoch: re-read only the rows the store reports changed. Any
	// case patchEpoch declines — first epoch, membership change, a missing
	// cell — is a full build from the feature table.
	snap := s.patchEpoch(category, prev)
	if snap != nil {
		s.met.snapshotDeltaRebuilds.Inc()
	} else {
		var err error
		if snap, err = s.fullEpoch(category); err != nil {
			return nil, err
		}
	}
	snap.epoch = 1
	if prev != nil {
		snap.epoch = prev.epoch + 1
	}
	snap.builtDirty = dirty
	snap.builtFeatVer = featVer
	snap.builtUploadSeq = uploadSeq
	snap.builtAt = s.now()
	cs.snap.Store(snap)
	s.met.snapshotRebuilds.Inc()
	s.met.snapshotRebuildMs.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	// A new epoch invalidates every ranking devices cached for this
	// category. Stream-connected phones hear about it immediately; the
	// rest find out on their next query (the re-arm fast path above keeps
	// the epoch and stays silent).
	if s.push != nil {
		s.push.Broadcast(&wire.EpochInvalidate{Category: category, Epoch: snap.epoch})
	}
	return snap, nil
}

// fullEpoch builds an epoch's columnar ranker and row index from the
// feature table; the caller stamps the epoch number and signals.
func (s *Server) fullEpoch(category string) (*rankSnapshot, error) {
	matrix, rowOf, err := s.featureMatrix(category)
	if err != nil {
		return nil, errors.Join(errNoRankData, err)
	}
	cranker, err := ranking.NewColumnarRanker(matrix)
	if err != nil {
		return nil, err
	}
	features := make([]string, len(matrix.Features))
	for j, f := range matrix.Features {
		features[j] = f.Name
	}
	return &rankSnapshot{cranker: cranker, features: features, rowOf: rowOf}, nil
}

// patchEpoch derives the next epoch from prev at the cost of the changed
// rows: it reads the catalog cells of just the table rows the store
// reports changed since prev was built, under one read lock, and the
// columnar ranker is prev's patched with those rows. It returns nil — and
// the caller builds in full — when there is no previous epoch, an
// application joined the category since, a changed place is not a row of
// prev (it just completed its catalog, so membership is about to change),
// one of its cells is missing, or Patch refuses. The caller captured the
// feature version before this reads ChangedPlaces and then the cells, so
// an upsert racing the reads carries a later version and is re-read next
// epoch. Works unchanged on a replica: ApplyReplicated stamps the same
// versions.
func (s *Server) patchEpoch(category string, prev *rankSnapshot) *rankSnapshot {
	if prev == nil {
		return nil
	}
	changed, appJoined := s.db.ChangedPlaces(category, prev.builtFeatVer)
	if appJoined {
		return nil
	}
	dirty := make([]int, len(changed))
	for k, r := range changed {
		if int(r) >= len(prev.rowOf) || prev.rowOf[r] < 0 {
			return nil
		}
		dirty[k] = int(prev.rowOf[r])
	}
	rows, ok := s.db.RowValues(category, changed, prev.features)
	if !ok {
		return nil
	}
	cranker, err := prev.cranker.Patch(dirty, rows)
	if err != nil {
		return nil
	}
	return &rankSnapshot{cranker: cranker, features: prev.features, rowOf: prev.rowOf}
}

// profileKeyBufPool recycles the append buffer profileKey builds into;
// only the final string escapes, so a cached-hit query pays exactly one
// key allocation.
var profileKeyBufPool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 256)
	return &b
}}

// profileKey canonicalizes a preference profile against the snapshot's
// feature order into an injective cache key: per feature, one presence
// byte, then — if present — the kind, the value's IEEE-754 bits, and the
// weight, each fixed width and full precision (no truncation, so even
// out-of-range kinds/weights — which Rank will reject — cannot collide
// with a valid cached profile); then the requested top-k as a fixed
// trailing 8 bytes, since a bounded result must not serve a broader
// query. Two (profile, k) pairs with the same preference per catalog
// feature and the same k produce the same key; any difference produces a
// different one (FuzzProfileKey). The requesting user's ID is
// deliberately excluded: rank results do not depend on it. Preferences
// for features outside the catalog are ignored, exactly as resolve
// ignores them.
func (snap *rankSnapshot) profileKey(prefs map[string]ranking.Preference, topK int) string {
	bp := profileKeyBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	var scratch [25]byte
	for _, name := range snap.features {
		p, ok := prefs[name]
		if !ok {
			buf = append(buf, 0)
			continue
		}
		scratch[0] = 1
		binary.BigEndian.PutUint64(scratch[1:], uint64(p.Kind))
		binary.BigEndian.PutUint64(scratch[9:], math.Float64bits(p.Value))
		binary.BigEndian.PutUint64(scratch[17:], uint64(p.Weight))
		buf = append(buf, scratch[:]...)
	}
	binary.BigEndian.PutUint64(scratch[:8], uint64(topK))
	buf = append(buf, scratch[:8]...)
	key := string(buf)
	*bp = buf
	profileKeyBufPool.Put(bp)
	return key
}

// cacheEntry is one cached (or in-flight) rank result. done closes when
// res/err are final, giving duplicate concurrent queries for the same
// profile a single mcmf solve to wait on instead of one each.
type cacheEntry struct {
	key  string
	done chan struct{}
	res  *ranking.Result
	err  error
}

// profileCache is a bounded LRU of rank results for one category and one
// epoch. An epoch advance clears it wholesale — every cached ranking was
// computed from the superseded matrix.
type profileCache struct {
	mu    sync.Mutex
	max   int
	epoch int64
	items map[string]*list.Element
	lru   *list.List // front = most recent; values are *cacheEntry

	// hits/misses are nil-safe metric handles (nil without an observer).
	// Stale-epoch fills count as misses: they run the solver.
	hits   *obs.Counter
	misses *obs.Counter
}

func (c *profileCache) init(max int) {
	c.max = max
	c.items = make(map[string]*list.Element, max)
	c.lru = list.New()
}

// getOrCompute returns the cached result for (epoch, key), computing and
// caching it via fill on a miss. Concurrent misses on one key share a
// single fill. A fill for a superseded epoch runs uncached — its result is
// still correct for the snapshot the caller is serving, but must not
// poison the newer epoch's cache.
func (c *profileCache) getOrCompute(epoch int64, key string, fill func() (*ranking.Result, error)) (*ranking.Result, error) {
	c.mu.Lock()
	if epoch > c.epoch {
		c.epoch = epoch
		clear(c.items)
		c.lru.Init()
	} else if epoch < c.epoch {
		c.mu.Unlock()
		c.misses.Inc()
		return fill()
	}
	if el, ok := c.items[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		c.hits.Inc()
		<-e.done
		return e.res, e.err
	}
	c.misses.Inc()
	e := &cacheEntry{key: key, done: make(chan struct{})}
	el := c.lru.PushFront(e)
	c.items[key] = el
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		delete(c.items, back.Value.(*cacheEntry).key)
		c.lru.Remove(back)
	}
	c.mu.Unlock()

	e.res, e.err = fill()
	close(e.done)
	if e.err != nil {
		// Failed fills are evicted so the profile can be retried.
		c.mu.Lock()
		if cur, ok := c.items[key]; ok && cur == el {
			delete(c.items, key)
			c.lru.Remove(el)
		}
		c.mu.Unlock()
	}
	return e.res, e.err
}

// buildRankResponse assembles the wire response from a snapshot and a
// (possibly cached) result, truncated to limit places when limit > 0. The
// features header and each row's feature values alias the immutable
// snapshot — no per-request copies.
func buildRankResponse(category string, snap *rankSnapshot, res *ranking.Result, limit int) *wire.RankResponse {
	order := res.OrderIdx
	if limit > 0 && limit < len(order) {
		order = order[:limit]
	}
	resp := &wire.RankResponse{
		Category: category,
		Epoch:    snap.epoch,
		Features: snap.features,
		Ranked:   make([]wire.RankedPlace, len(order)),
	}
	places := snap.cranker.Places()
	for k, idx := range order {
		resp.Ranked[k] = wire.RankedPlace{
			Place:         places[idx],
			FeatureValues: snap.cranker.Row(idx),
		}
	}
	return resp
}
