package main

import (
	"context"
	"fmt"
	"math"

	"sor/internal/wire"
)

// freshWorkload: two HTTP clients → router → two durable shard leaders,
// one category pinned per shard, each client owning one. The op is one
// cycle: a DataUploadBatch for rotating live places, then a top-10
// RankRequest; its latency runs from the batch send to the rank answer
// that reflects it (the ack→rankable freshness that time-sensitive
// sensing treats as value decay, arXiv 1503.06007). Every rank pays
// processor fold → feature upsert (WAL-logged) → epoch delta-merge →
// cache invalidation → cold solve, plus the router's batch split; result
// caching buys nothing here.
type freshWorkload struct {
	cfg     *config
	shards  []*node
	router  *node
	clients [nClients]sender
	cats    [nClients]string
	tasks   [nClients][]string // task id per live place
	seq     [nClients]int      // next cycle
	epoch   [nClients]int64    // last epoch seen per category
	// sum and n are the harness's own running mean of the readings it sent
	// per live place and feature (acked batches only).
	sum   [nClients][][4]float64
	n     [nClients][]int
	live  [nClients]map[string]int // place name → live place index
	acked [nClients]int            // reports acked per category
}

func freshUser(c, p int) string { return fmt.Sprintf("f%d-%d", c, p) }

func (w *freshWorkload) leaders() []*node { return w.shards }

func (w *freshWorkload) build(cfg *config, b *bed) error {
	w.cfg = cfg
	w.cats = [nClients]string{catA, catB}
	sz := cfg.sz
	apps := make(map[string]string)
	for c, cat := range w.cats {
		w.live[c] = make(map[string]int, sz.freshLive)
		for p := 0; p < sz.freshLive; p++ {
			apps[appID(cat, p)] = cat
			w.live[c][placeName(cat, p)] = p
		}
		w.sum[c] = make([][4]float64, sz.freshLive)
		w.n[c] = make([]int, sz.freshLive)
		w.tasks[c] = make([]string, sz.freshLive)
	}
	var err error
	if w.shards, w.router, err = startRouted(b, nClients, map[string]int{catA: 0, catB: 1}, apps); err != nil {
		return err
	}
	ctx := context.Background()
	for c, cat := range w.cats {
		srv := w.shards[c].server()
		// The live places are the best by latent quality, so they fill the
		// served top-10 and every answer carries feature values to check.
		// They get their features from reports; the rest are seeded.
		for p := 0; p < sz.freshLive; p++ {
			if err := srv.CreateApp(benchApp(cat, p)); err != nil {
				return err
			}
		}
		if err := seedCategory(cfg.seed, srv, cat, sz.freshLive, sz.freshPlaces, sz.freshPlaces, topNoise); err != nil {
			return err
		}
		if w.clients[c], err = b.httpClient(w.router); err != nil {
			return err
		}
		for p := 0; p < sz.freshLive; p++ {
			user := freshUser(c, p)
			if w.tasks[c][p], err = participate(ctx, w.clients[c], &wire.Participate{UserID: user,
				Token: "tok-" + user, AppID: appID(cat, p), Loc: appLoc(p), Budget: joinBudget}); err != nil {
				return err
			}
		}
	}
	if err := drive(ctx, w, sz.freshPrefill/2); err != nil {
		return err
	}
	for _, n := range w.shards {
		if err := n.running().Checkpoint(); err != nil {
			return err
		}
	}
	return drive(ctx, w, sz.freshPrefill-sz.freshPrefill/2)
}

// batch builds cycle i of client c: one report for each of the next
// freshBatch live places in rotation.
func (w *freshWorkload) batch(c, i int) *wire.DataUploadBatch {
	sz := w.cfg.sz
	b := &wire.DataUploadBatch{Uploads: make([]wire.DataUpload, sz.freshBatch)}
	r := at(w.cfg.seed, "fresh", c<<40|i)
	for k := range b.Uploads {
		p := (i*sz.freshBatch + k) % sz.freshLive
		b.Uploads[k] = report(r, w.tasks[c][p], w.cats[c], freshUser(c, p), fmt.Sprintf("f%d-%d-%d", c, i, k),
			p, sz.freshPlaces, benchFeatures[:], 2, benchEpoch+int64(i%1000)*10_000)
	}
	return b
}

func (w *freshWorkload) op(o *opCtx, c int) error {
	i := w.seq[c]
	w.seq[c]++
	b := w.batch(c, i)
	ack, err := expectAck(o.send(w.clients[c], b))
	if err != nil {
		return err
	}
	if ack.Code != 200 {
		return fmt.Errorf("batch partly refused: %d %s", ack.Code, ack.Message)
	}
	for k := range b.Uploads {
		p := (i*w.cfg.sz.freshBatch + k) % w.cfg.sz.freshLive
		for j, s := range b.Uploads[k].Series {
			for _, v := range s.Samples[0].Readings {
				w.sum[c][p][j] += v
			}
		}
		w.n[c][p] += len(b.Uploads[k].Series[0].Samples[0].Readings)
	}
	w.acked[c] += len(b.Uploads)
	rr, err := rankTop10(o, w.clients[c], w.cats[c], topPrefs(w.cfg.seed, i%w.cfg.sz.freshProfiles))
	if err != nil {
		return err
	}
	if rr.Epoch <= w.epoch[c] {
		return fmt.Errorf("%s: epoch %d after a batch, last answer had %d", w.cats[c], rr.Epoch, w.epoch[c])
	}
	w.epoch[c] = rr.Epoch
	for _, rp := range rr.Ranked {
		if p, ok := w.live[c][rp.Place]; ok {
			if err := w.checkValues(c, p, rp.FeatureValues); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkValues compares served feature values of a live place with the
// harness's own mean of the readings it sent (1e-9 relative).
func (w *freshWorkload) checkValues(c, p int, served []float64) error {
	if w.n[c][p] == 0 {
		return fmt.Errorf("%s ranked with no reports sent", placeName(w.cats[c], p))
	}
	for j := range benchFeatures {
		want := w.sum[c][p][j] / float64(w.n[c][p])
		if j >= len(served) || math.Abs(served[j]-want) > 1e-9*math.Abs(want) {
			return fmt.Errorf("%s %s: served %v, mean of sent readings %.12g",
				placeName(w.cats[c], p), benchFeatures[j].name, served, want)
		}
	}
	return nil
}

func (w *freshWorkload) first(o *opCtx) error {
	rr, err := rankTop10(o, w.clients[0], w.cats[0], topPrefs(w.cfg.seed, 0))
	if err == nil {
		w.epoch[0] = rr.Epoch // a reopened server counts epochs from 1 again
	}
	return err
}

func (w *freshWorkload) survived() error { return w.holds(0) }

// holds checks shard c stores every acked report and serves, for every
// live place, the mean of what was sent.
func (w *freshWorkload) holds(c int) error {
	db := w.shards[c].server().DB()
	if got := db.UploadCount(); got != w.acked[c] {
		return fmt.Errorf("%s holds %d reports, %d were acked", w.shards[c].spec.Name, got, w.acked[c])
	}
	for p := 0; p < w.cfg.sz.freshLive; p++ {
		if w.n[c][p] == 0 {
			continue
		}
		var served [4]float64
		for j, f := range benchFeatures {
			row, err := db.Feature(w.cats[c], placeName(w.cats[c], p), f.name)
			if err != nil {
				return err
			}
			served[j] = row.Value
		}
		if err := w.checkValues(c, p, served[:]); err != nil {
			return err
		}
	}
	return nil
}

func (w *freshWorkload) warm(ctx context.Context) error { return drive(ctx, w, w.cfg.sz.freshWarm) }

func (w *freshWorkload) verify(ctx context.Context) error {
	for c := range w.cats {
		if err := w.holds(c); err != nil {
			return err
		}
	}
	w.shards[0].crash()
	if err := w.shards[0].reopen(); err != nil {
		return err
	}
	return w.holds(0)
}

func (w *freshWorkload) digest() (string, error) {
	var msgs []wire.Message
	for c := 0; c < nClients; c++ {
		for i := 0; i < digestOps; i++ {
			msgs = append(msgs, w.batch(c, i),
				&wire.RankRequest{Category: w.cats[c], UserID: "ranker", TopK: 10,
					Prefs: topPrefs(w.cfg.seed, i%w.cfg.sz.freshProfiles)})
		}
	}
	return digestOf(msgs)
}

func (w *freshWorkload) layers(e *probeEnv, lv *layerValues) error {
	if err := e.rankProbes(lv, w.shards[0], w.cats[0], topPrefs, w.cfg.sz.freshBatch); err != nil {
		return err
	}
	var readings []float64
	for _, n := range w.n[0] {
		readings = append(readings, float64(n))
	}
	return e.featureProbe(lv, int(median(readings))/2) // two readings per sample
}
