package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sor"
	"sor/internal/feature"
	"sor/internal/mcmf"
	"sor/internal/ranking"
	"sor/internal/wal"
	"sor/internal/wire"
)

// Probes replay inputs captured from the workload, single-threaded, into
// one layer's public function on the end state. They stand in for spans
// inside the program (ROADMAP item 4), which will replace them.

// probeInputs is how many replays a probe aims for; config.probeBudget
// caps the time it may take over them.
const probeInputs = 2000

// timeEach calls fn until probeInputs calls or the probe budget,
// whichever comes first, and returns the median call time in µs and the
// count.
func (e *probeEnv) timeEach(fn func(i int) error) (us float64, n int, err error) {
	var d []float64
	deadline := time.Now().Add(e.cfg.probeBudget)
	for n = 0; n < probeInputs && (n < 3 || time.Now().Before(deadline)); n++ {
		t0 := time.Now()
		if err := fn(n); err != nil {
			return 0, n, err
		}
		d = append(d, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(d), n, nil
}

func calls(n int) string { return fmt.Sprintf("median of %d calls", n) }

// codecProbes covers the layers every workload crosses: the wire codec,
// one loopback round trip of each transport with workload-sized frames
// and an echo handler, and a WAL append of the workload's record size.
func (e *probeEnv) codecProbes(lv *layerValues) error {
	msgs := e.keep
	if len(msgs) == 0 {
		return nil
	}
	// Encode and decode are far below the clock's resolution: time the
	// whole pass and divide.
	encoded := make([][]byte, len(msgs))
	var bytes int
	t0 := time.Now()
	for i, m := range msgs {
		b, err := wire.Encode(m)
		if err != nil {
			return err
		}
		encoded[i] = b
		bytes += len(b)
	}
	enc := time.Since(t0)
	t0 = time.Now()
	for _, b := range encoded {
		if _, err := wire.Decode(b); err != nil {
			return err
		}
	}
	dec := time.Since(t0)
	n := fmt.Sprintf("mean over %d captured requests", len(msgs))
	lv.set("wire.encode_us", float64(enc)/float64(time.Microsecond)/float64(len(msgs)), n)
	lv.set("wire.decode_us", float64(dec)/float64(time.Microsecond)/float64(len(msgs)), n)
	lv.set("wire.bytes_per_msg", float64(bytes)/float64(len(msgs)), n)

	echo := func(context.Context, wire.Message) (wire.Message, error) {
		return &wire.Ack{OK: true, Code: 200}, nil
	}
	ctx := context.Background()
	replay := func(s sender) (float64, int, error) {
		return e.timeEach(func(i int) error {
			_, err := s.Send(ctx, msgs[i%len(msgs)])
			return err
		})
	}

	ss, err := sor.NewStreamServer(echo, sor.NewSessionRegistry())
	if err != nil {
		return err
	}
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() { defer close(served); _ = ss.Serve(sln) }()
	sc, err := sor.DialStream(sln.Addr().String(), "probe")
	if err == nil {
		var us float64
		var k int
		if us, k, err = replay(sc); err == nil {
			lv.set("session.rtt_us", us, calls(k)+", echo handler, loopback")
		}
		_ = sc.Close()
	}
	_ = ss.Close()
	<-served
	if err != nil {
		return fmt.Errorf("session round-trip probe: %w", err)
	}

	hh, err := sor.NewHTTPHandler(echo)
	if err != nil {
		return err
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: hh}
	hserved := make(chan struct{})
	go func() { defer close(hserved); _ = hs.Serve(hln) }()
	tp := &http.Transport{}
	hc, err := sor.NewClient("http://"+hln.Addr().String(), sor.WithClientHTTP(&http.Client{Transport: tp}))
	if err == nil {
		var us float64
		var k int
		if us, k, err = replay(hc); err == nil {
			lv.set("http.rtt_us", us, calls(k)+", echo handler, keep-alive, loopback")
		}
	}
	tp.CloseIdleConnections()
	_ = hs.Close()
	<-hserved
	if err != nil {
		return fmt.Errorf("http round-trip probe: %w", err)
	}

	size := int(lv.v["wal.bytes_per_op"])
	if size == 0 {
		return nil // the workload logged nothing
	}
	dir := filepath.Join(e.bed.dir, "wal-probe")
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncOS})
	if err != nil {
		return err
	}
	payload := make([]byte, size)
	us, k, err := e.timeEach(func(int) error {
		_, err := log.Append(payload)
		return err
	})
	log.Kill()
	_ = os.RemoveAll(dir)
	if err != nil {
		return fmt.Errorf("wal append probe: %w", err)
	}
	lv.set("wal.append_us", us, fmt.Sprintf("%s of %d B, sync policy os", calls(k), size))
	return nil
}

// rankProbes splits leader.handle for a rank-serving workload: the
// handler in-process, cached and uncached, and below it the store scans,
// the matrix assembly, the columnar build and merge, one cold top-k and
// one 64 × 64 assignment block cut from the category.
func (e *probeEnv) rankProbes(lv *layerValues, n *node, category string, prefs func(seed int64, id int) []wire.PrefEntry, dirtyRows int) error {
	srv, h := n.server(), n.running().Handler()
	ctx := context.Background()
	ask := func(id int) error {
		resp, err := h(ctx, &wire.RankRequest{Category: category, UserID: "probe", TopK: 10, Prefs: prefs(e.cfg.seed, id)})
		if err != nil {
			return err
		}
		if _, ok := resp.(*wire.RankResponse); !ok {
			return fmt.Errorf("rank probe answered %s", resp.Type())
		}
		return nil
	}
	if err := ask(0); err != nil {
		return err
	}
	us, k, err := e.timeEach(func(int) error { return ask(0) })
	if err != nil {
		return err
	}
	lv.set("server.rank_cached_us", us, calls(k)+", handler in-process")
	const never = 1 << 30 // profile ids no client reaches
	if us, k, err = e.timeEach(func(i int) error { return ask(never + i) }); err != nil {
		return err
	}
	lv.set("server.rank_uncached_us", us, calls(k)+", handler in-process")

	ms := func(us float64) float64 { return us / 1000 }
	if us, k, err = e.timeEach(func(int) error { srv.DB().FeaturesByCategory(category); return nil }); err != nil {
		return err
	}
	lv.set("store.features_scan_ms", ms(us), calls(k))
	if us, k, err = e.timeEach(func(int) error { srv.DB().AppsByCategory(category); return nil }); err != nil {
		return err
	}
	lv.set("store.apps_scan_ms", ms(us), calls(k))
	var m *ranking.Matrix
	if us, k, err = e.timeEach(func(int) (err error) { m, err = srv.FeatureMatrix(category); return err }); err != nil {
		return err
	}
	lv.set("server.matrix_ms", ms(us), fmt.Sprintf("%s, %d places", calls(k), len(m.Places)))

	var cr *ranking.ColumnarRanker
	if us, k, err = e.timeEach(func(int) (err error) { cr, err = ranking.NewColumnarRanker(m); return err }); err != nil {
		return err
	}
	lv.set("ranking.build_ms", ms(us), calls(k))
	// Merge needs a matrix whose dirty rows moved: nudge them by a rank.
	dirty := make([]int, dirtyRows)
	next := &ranking.Matrix{Features: m.Features, Places: m.Places, Values: append([][]float64(nil), m.Values...)}
	for i := range dirty {
		dirty[i] = i * len(m.Places) / dirtyRows
		row := append([]float64(nil), m.Values[dirty[i]]...)
		for j, f := range benchFeatures {
			row[j] += f.slope / float64(len(m.Places))
		}
		next.Values[dirty[i]] = row
	}
	if us, k, err = e.timeEach(func(int) error { _, err := cr.Merge(next, dirty); return err }); err != nil {
		return err
	}
	lv.set("ranking.merge_ms", ms(us), fmt.Sprintf("%s, %d dirty rows", calls(k), dirtyRows))
	if us, k, err = e.timeEach(func(i int) error {
		_, err := cr.RankTopK(profileOf("probe", prefs(e.cfg.seed, never+i)), 10, nil)
		return err
	}); err != nil {
		return err
	}
	lv.set("ranking.topk_us", us, calls(k)+", cold profile, k = 10")

	cost := footruleBlock(m, 64)
	if us, k, err = e.timeEach(func(int) error { _, _, err := mcmf.Assign(cost); return err }); err != nil {
		return err
	}
	lv.set("mcmf.assign_n64_us", us, fmt.Sprintf("%s, %d × %d block", calls(k), len(cost), len(cost)))
	return nil
}

// footruleBlock cuts the weighted-footrule cost matrix of the category's
// first n places: cost[i][p] = Σ_f w_f · |rank_f(i) − p| under the
// catalog's default preferences.
func footruleBlock(m *ranking.Matrix, n int) [][]float64 {
	if n > len(m.Places) {
		n = len(m.Places)
	}
	rank := make([][]int, len(m.Features))
	for j, f := range m.Features {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		dist := func(i int) float64 {
			switch f.Default.Kind {
			case ranking.PrefMax:
				return -m.Values[i][j]
			case ranking.PrefMin:
				return m.Values[i][j]
			}
			return math.Abs(m.Values[i][j] - f.Default.Value)
		}
		sort.SliceStable(idx, func(a, b int) bool { return dist(idx[a]) < dist(idx[b]) })
		rank[j] = make([]int, n)
		for pos, i := range idx {
			rank[j][i] = pos
		}
	}
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for p := range cost[i] {
			for j, f := range m.Features {
				cost[i][p] += float64(f.Default.Weight) * math.Abs(float64(rank[j][i]-p))
			}
		}
	}
	return cost
}

// scheduleProbes times one online replan and one offline greedy solve at
// the given membership: what every join op pays in the scheduler.
func (e *probeEnv) scheduleProbes(lv *layerValues, members int) error {
	if members < 1 {
		return nil
	}
	start := time.Now().UTC().Truncate(10 * time.Second)
	r := at(e.cfg.seed, "schedule-probe", members)
	parts := make([]sor.Participant, members)
	left := newStrata(r, members)
	for i := range parts {
		stay := math.Max(10, residualAt(left.next()))
		parts[i] = sor.Participant{UserID: fmt.Sprintf("p%d", i), Arrive: start,
			Leave: start.Add(time.Duration(stay) * time.Second), Budget: joinBudget}
	}
	// Each repetition rebuilds the membership below the probed join; only
	// the last join, the replan at full membership, is timed.
	var replan []float64
	for rep := 0; rep < 5; rep++ {
		online, _, err := sor.NewOnlineScheduler(start, 3*time.Hour, 10*time.Second, nil)
		if err != nil {
			return err
		}
		for _, p := range parts[:members-1] {
			if _, err := online.Join(start, p); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if _, err := online.Join(start, parts[members-1]); err != nil {
			return err
		}
		replan = append(replan, float64(time.Since(t0))/float64(time.Millisecond))
	}
	lv.set("schedule.replan_ms", median(replan), fmt.Sprintf("median of %d Online.Join calls as member %d", len(replan), members))
	us, k, err := e.timeEach(func(int) error {
		_, err := sor.ScheduleSensing(sor.SensingRequest{Start: start, Period: 3 * time.Hour,
			Step: 10 * time.Second, Participants: parts, Lazy: true})
		return err
	})
	if err != nil {
		return err
	}
	lv.set("schedule.greedy_ms", us/1000, fmt.Sprintf("%s, %d participants", calls(k), members))
	return nil
}

// featureProbe times the mean extractor at the sample count a live place
// has accumulated by the end of the run.
func (e *probeEnv) featureProbe(lv *layerValues, samples int) error {
	if samples < 1 {
		return nil
	}
	r := at(e.cfg.seed, "feature-probe", samples)
	in := make([]feature.Sample, samples)
	for i := range in {
		in[i] = feature.Sample{At: time.UnixMilli(benchEpoch), Window: 5 * time.Second,
			Readings: []float64{reading(r, benchFeatures[0], 0, 1), reading(r, benchFeatures[0], 0, 1)}}
	}
	ex := feature.MeanExtractor{Feature: "temperature"}
	us, k, err := e.timeEach(func(int) error { _, err := ex.Extract(in); return err })
	if err != nil {
		return err
	}
	lv.set("feature.extract_us", us, fmt.Sprintf("%s, %d samples", calls(k), samples))
	return nil
}
