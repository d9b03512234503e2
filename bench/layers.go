package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"sor/internal/wire"
)

// layerMetric declares one per-layer metric. Source says where the number
// comes from: span = a harness shim in the traced run; reg = the delta of
// an existing sor_* series over the measured phase; probe = inputs of this
// workload replayed single-threaded into the layer's public function on
// the end state; poll = the harness polling a public accessor.
type layerMetric struct{ name, unit, source string }

// layerMetrics is every per-layer metric, in report order. A traced run
// reports all of them for every workload; a layer the workload does not
// exercise reads 0. BENCHMARK.json's per_layer list is this table.
var layerMetrics = []layerMetric{
	{"client.p99_ms", "ms", "span"},
	{"client.p999_ms", "ms", "span"},
	{"client.max_ms", "ms", "span"},
	{"client.upload_p50_ms", "ms", "span"},
	{"client.rank_p50_ms", "ms", "span"},

	{"session.rtt_us", "us", "probe"},
	{"session.self_us", "us", "span"},
	{"session.requests", "count", "reg"},

	{"http.rtt_us", "us", "probe"},
	{"http.hop1_self_us", "us", "span"},
	{"http.hop2_self_us", "us", "span"},

	{"wire.encode_us", "us", "probe"},
	{"wire.decode_us", "us", "probe"},
	{"wire.bytes_per_msg", "B", "probe"},

	{"cluster.router_self_us", "us", "span"},
	{"cluster.batch_split_us", "us", "span"},
	{"cluster.routed", "count", "reg"},
	{"cluster.route_retries", "count", "reg"},
	{"cluster.failovers", "count", "reg"},

	{"server.handle_upload_p50_us", "us", "span"},
	{"server.handle_upload_p90_us", "us", "span"},
	{"server.handle_rank_p50_us", "us", "span"},
	{"server.handle_rank_p90_us", "us", "span"},
	{"server.handle_participate_p50_ms", "ms", "span"},
	{"server.handle_participate_p90_ms", "ms", "span"},
	{"server.rank_cached_us", "us", "probe"},
	{"server.rank_uncached_us", "us", "probe"},
	{"server.cache_hit_ratio", "ratio", "reg"},
	{"server.snapshot_rebuilds", "count", "reg"},
	{"server.snapshot_delta_rebuilds", "count", "reg"},
	{"server.snapshot_rearms", "count", "reg"},
	{"server.snapshot_rebuild_ms", "ms", "reg"},
	{"server.fold_ms", "ms", "reg"},
	{"server.folded_uploads", "count", "reg"},
	{"server.matrix_ms", "ms", "probe"},

	{"store.features_scan_ms", "ms", "probe"},
	{"store.apps_scan_ms", "ms", "probe"},
	{"store.ckpt_ms", "ms", "span"},
	{"store.ckpt_stall_ms", "ms", "span"},
	{"store.post_ckpt_rate_share", "ratio", "span"},
	{"store.snapshot_bytes", "B", "stat"},
	{"store.duplicates", "count", "reg"},
	{"store.recovered_records", "count", "reg"},
	{"store.reopen_ms", "ms", "span"},

	{"wal.appends", "count", "reg"},
	{"wal.bytes_per_op", "B", "reg"},
	{"wal.fsyncs", "count", "reg"},
	{"wal.segment_seals", "count", "reg"},
	{"wal.append_us", "us", "probe"},

	{"replica.lag_records_p50", "count", "poll"},
	{"replica.lag_records_max", "count", "poll"},
	{"replica.catchup_ms", "ms", "poll"},
	{"replica.pulls", "count", "reg"},
	{"replica.records_per_pull", "count", "reg"},

	{"ranking.build_ms", "ms", "probe"},
	{"ranking.merge_ms", "ms", "probe"},
	{"ranking.topk_us", "us", "probe"},
	{"mcmf.assign_n64_us", "us", "probe"},
	{"rankagg.warm_blocks", "count", "reg"},

	{"schedule.replans", "count", "reg"},
	{"schedule.replan_ms", "ms", "probe"},
	{"schedule.greedy_ms", "ms", "probe"},

	{"feature.extract_us", "us", "probe"},

	{"proc.cpu_us_per_op", "us", "getrusage"},
	{"proc.allocs_per_op", "count", "memstats"},
	{"proc.alloc_bytes_per_op", "B", "memstats"},
	{"proc.gc_cycles", "count", "memstats"},
	{"proc.rss_peak_mb", "MB", "getrusage"},
	{"trace.ops_per_s", "1/s", "span"},
	{"trace.p50_ms", "ms", "span"},
	{"trace.overhead_share", "ratio", "span"},
	{"trace.spans", "count", "span"},
	{"trace.stage_sum_ratio", "ratio", "span"},
}

// layerValues collects a traced run's per-layer numbers by name.
type layerValues struct {
	v    map[string]float64
	note map[string]string
}

func (l *layerValues) set(name string, value float64, note string) {
	l.v[name] = value
	if note != "" {
		l.note[name] = note
	}
}

// counters is the counter and histogram state of a set of nodes.
type counters struct {
	sum  map[string]int64   // counter value summed over series of the name and over nodes
	hsum map[string]float64 // histogram sum (mean × count)
	hn   map[string]int
}

func readCounters(nodes []*node) counters {
	c := counters{sum: map[string]int64{}, hsum: map[string]float64{}, hn: map[string]int{}}
	for _, n := range nodes {
		snap := n.obsv.Metrics().Snapshot()
		for key, v := range snap.Counters {
			c.sum[seriesName(key)] += v
		}
		for key, h := range snap.Histograms {
			c.hsum[seriesName(key)] += h.Mean * float64(h.Count)
			c.hn[seriesName(key)] += h.Count
		}
	}
	return c
}

// seriesName strips the label set off a series key.
func seriesName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// delta is what a counter gained between two reads.
func (c counters) delta(before counters, name string) float64 {
	return float64(c.sum[name] - before.sum[name])
}

// meanDelta is the mean of the histogram observations made between two
// reads.
func (c counters) meanDelta(before counters, name string) float64 {
	n := c.hn[name] - before.hn[name]
	if n <= 0 {
		return 0
	}
	return (c.hsum[name] - before.hsum[name]) / float64(n)
}

// procStats is whole-process resource use, harness included.
type procStats struct {
	cpu    time.Duration
	rssKB  int64
	allocs uint64
	bytes  uint64
	gcs    uint32
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		rssKB:  ru.Maxrss,
		allocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC,
	}
}

// timerGuard flags an ingest run unresolved when the node's hard-coded
// 30 s processor timer folded uploads inside the measured phase: that run
// paid for work the others did not.
func (r *result) timerGuard(cfg *config, before, after counters) {
	if folded := after.delta(before, "sor_processor_uploads_total"); cfg.workload == "ingest" && folded != 0 {
		r.notes = append(r.notes, fmt.Sprintf("the node's 30 s processor timer folded %.0f uploads inside the measured phase", folded))
	}
}

// sampler is a workload that wants polling during the measured phase.
type sampler interface{ sample() }

// probeEnv is what the per-layer code of a traced run works from.
type probeEnv struct {
	cfg    *config
	bed    *bed
	phase  *phase
	spans  *breakdown
	before counters // every node, at the start of the measured phase
	after  counters
	lead0  counters // leaders only
	lead1  counters
	keep   []wire.Message // requests captured from this workload
}

// runTraced is the second run of a seed: the same topology with the
// harness's own listeners and timing shims around every public seam. It
// reports the per-layer metrics, and the tracing overhead against a
// short untraced reference phase run first.
func runTraced(cfg *config) (*result, error) {
	ref, err := prepare(cfg, nil)
	if err != nil {
		return nil, err
	}
	refRate, _ := measure(cfg, ref.w, nil, cfg.seconds/2).windowed()
	ref.bed.close()
	refOps := median(refRate)

	tr := newTracer()
	pr, err := prepare(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer pr.bed.close()
	res := &result{workload: cfg.workload}
	if res.digest, err = pr.w.digest(); err != nil {
		return nil, err
	}
	tr.reset()
	env := &probeEnv{cfg: cfg, bed: pr.bed}
	env.before, env.lead0 = readCounters(pr.bed.nodes), readCounters(pr.w.leaders())
	proc0 := readProc()

	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		s, ok := pr.w.(sampler)
		if !ok {
			return
		}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	p := measure(cfg, pr.w, tr, cfg.seconds)
	close(stop)
	<-polled

	proc1 := readProc()
	env.after, env.lead1 = readCounters(pr.bed.nodes), readCounters(pr.w.leaders())
	lv := &layerValues{v: map[string]float64{}, note: map[string]string{}}
	// The gate runs straight after the last ack (it starts by timing the
	// replica's catch-up). Its kill→reopen doubles as a measurement of
	// reopening the end state (ungated: it grows with whatever the run
	// ingested), and the probes below then run on that reopened state.
	t0 := time.Now()
	res.finish(pr.w, p)
	lv.set("store.reopen_ms", float64(time.Since(t0))/float64(time.Millisecond), "correctness gate incl. kill→reopen of the end state")
	if st, err := os.Stat(filepath.Join(pr.w.leaders()[0].spec.Data, "snapshot.json")); err == nil {
		lv.set("store.snapshot_bytes", float64(st.Size()), "first leader's mid-run checkpoint")
	}

	spans := tr.spans()
	env.phase, env.spans = p, analyse(spans)
	for c := range p.clients {
		env.keep = append(env.keep, p.clients[c].keep...)
	}
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, spans); err != nil {
			return nil, err
		}
	}

	lat := p.latenciesMs()
	ops := float64(len(lat))
	rate, _ := p.windowed()
	tracedOps := median(rate)
	lv.set("trace.ops_per_s", tracedOps, fmt.Sprintf("median of %d windows, n=%d", windows, len(lat)))
	lv.set("trace.p50_ms", quantile(lat, 0.5), "all ops pooled")
	lv.set("trace.overhead_share", 1-tracedOps/refOps, fmt.Sprintf("untraced reference %.6g ops/s over %.3g s", refOps, cfg.seconds/2))
	lv.set("trace.spans", float64(len(spans)), "")
	rows, sumUs := env.spans.whereTimeGoes()
	lv.set("trace.stage_sum_ratio", sumUs/(quantile(lat, 0.5)*1000), "stage self times of the median op ÷ traced p50")
	res.table = formatTimeTable(rows, sumUs, quantile(lat, 0.5))

	if ops > 0 {
		lv.set("proc.cpu_us_per_op", float64(proc1.cpu-proc0.cpu)/float64(time.Microsecond)/ops, "whole process, harness included")
		lv.set("proc.allocs_per_op", float64(proc1.allocs-proc0.allocs)/ops, "")
		lv.set("proc.alloc_bytes_per_op", float64(proc1.bytes-proc0.bytes)/ops, "")
	}
	lv.set("proc.gc_cycles", float64(proc1.gcs-proc0.gcs), "")
	lv.set("proc.rss_peak_mb", float64(proc1.rssKB)/1024, "")

	env.phaseLayers(lv)
	env.spanLayers(lv)
	env.regLayers(lv, ops)
	if err := env.codecProbes(lv); err != nil {
		return nil, err
	}
	if err := pr.w.layers(env, lv); err != nil {
		return nil, err
	}

	res.timerGuard(cfg, env.lead0, env.lead1)
	if r := lv.v["trace.stage_sum_ratio"]; r < 0.9 || r > 1.1 {
		res.notes = append(res.notes, fmt.Sprintf("stage self times sum to %.3f of the traced p50 (want within 10 %%)", r))
	}
	for _, lm := range layerMetrics {
		note := lv.note[lm.name]
		if note == "" {
			note = "[" + lm.source + "]"
		} else {
			note = "[" + lm.source + "] " + note
		}
		res.metrics.add(lm.name, lm.unit, lv.v[lm.name], note)
	}
	return res, nil
}

// phaseLayers reads the measured phase itself: the diagnostic view of
// p50_ms / p90_ms (the tail, and the two halves of a two-request op) and
// what the checkpoint did to the clients.
func (e *probeEnv) phaseLayers(lv *layerValues) {
	lat := e.phase.latenciesMs()
	n := fmt.Sprintf("n=%d", len(lat))
	lv.set("client.p99_ms", quantile(lat, 0.99), n)
	lv.set("client.p999_ms", quantile(lat, 0.999), n)
	lv.set("client.max_ms", quantile(lat, 1), n)
	if second := e.phase.partMs(1); len(second) > 0 {
		lv.set("client.upload_p50_ms", quantile(e.phase.partMs(0), 0.5), "")
		lv.set("client.rank_p50_ms", quantile(second, 0.5), "")
	}
	lv.set("store.ckpt_ms", float64(e.phase.ckptTook)/float64(time.Millisecond), "")
	lv.set("store.ckpt_stall_ms", float64(e.phase.stall())/float64(time.Millisecond), "longest op overlapping the checkpoint")
	rate, _ := e.phase.windowed()
	var after []float64
	for w := range rate {
		if time.Duration(w)*(e.phase.elapsed/windows+1) >= e.phase.ckptAt+e.phase.ckptTook {
			after = append(after, rate[w])
		}
	}
	if med := median(rate); len(after) > 0 && med > 0 {
		lv.set("store.post_ckpt_rate_share", mean(after)/med, fmt.Sprintf("ops/s of the %d windows after the checkpoint ÷ median window", len(after)))
	}
}

func isUpload(msg string) bool {
	return msg == wire.TypeDataUpload.String() || msg == wire.TypeDataUploadBatch.String()
}
func isBatch(msg string) bool { return msg == wire.TypeDataUploadBatch.String() }
func isRank(msg string) bool  { return msg == wire.TypeRankRequest.String() }
func isJoin(msg string) bool  { return msg == wire.TypeParticipate.String() }
func anyMsg(string) bool      { return true }

// spanLayers reads the per-hop self times off the shims' spans.
func (e *probeEnv) spanLayers(lv *layerValues) {
	b := e.spans
	if b.has(spanRouter) {
		lv.set("http.hop1_self_us", b.selfMedian(spanClient, anyMsg), "client send − router handle")
		lv.set("http.hop2_self_us", b.selfMedian(spanForward, anyMsg), "router forward − leader handle")
		lv.set("cluster.router_self_us", b.selfMedian(spanRouter, func(m string) bool { return !isBatch(m) }), "router handle − forwarded sends")
		lv.set("cluster.batch_split_us", b.selfMedian(spanRouter, isBatch), "same, on upload batches")
	} else {
		lv.set("session.self_us", b.selfMedian(spanClient, anyMsg), "client send − leader handle")
	}
	handle := func(keep func(string) bool) []float64 {
		var all []float64
		for msg, v := range b.handle {
			if keep(msg) {
				all = append(all, v...)
			}
		}
		return sortedCopy(all)
	}
	up, rk, jn := handle(isUpload), handle(isRank), handle(isJoin)
	lv.set("server.handle_upload_p50_us", quantile(up, 0.5), fmt.Sprintf("n=%d", len(up)))
	lv.set("server.handle_upload_p90_us", quantile(up, 0.9), "")
	lv.set("server.handle_rank_p50_us", quantile(rk, 0.5), fmt.Sprintf("n=%d", len(rk)))
	lv.set("server.handle_rank_p90_us", quantile(rk, 0.9), "")
	lv.set("server.handle_participate_p50_ms", quantile(jn, 0.5)/1000, fmt.Sprintf("n=%d", len(jn)))
	lv.set("server.handle_participate_p90_ms", quantile(jn, 0.9)/1000, "")
}

// regLayers reads counts off the nodes' own sor_* series.
func (e *probeEnv) regLayers(lv *layerValues, ops float64) {
	all := func(name string) float64 { return e.after.delta(e.before, name) }
	lead := func(name string) float64 { return e.lead1.delta(e.lead0, name) }
	lv.set("session.requests", all("sor_session_requests_total"), "")
	lv.set("cluster.routed", all("sor_cluster_routed_total"), "")
	lv.set("cluster.route_retries", all("sor_cluster_route_retries_total"), "")
	lv.set("cluster.failovers", all("sor_cluster_failovers_total"), "")
	hits, misses := lead("sor_rank_cache_hits_total"), lead("sor_rank_cache_misses_total")
	if hits+misses > 0 {
		lv.set("server.cache_hit_ratio", hits/(hits+misses), fmt.Sprintf("%.0f hits, %.0f misses", hits, misses))
	}
	lv.set("server.snapshot_rebuilds", lead("sor_snapshot_rebuilds_total"), "")
	lv.set("server.snapshot_delta_rebuilds", lead("sor_snapshot_delta_rebuilds_total"), "")
	lv.set("server.snapshot_rearms", lead("sor_snapshot_rearms_total"), "")
	lv.set("server.snapshot_rebuild_ms", e.lead1.meanDelta(e.lead0, "sor_snapshot_rebuild_ms"), "mean")
	lv.set("server.fold_ms", e.lead1.meanDelta(e.lead0, "sor_processor_process_ms"), "mean")
	lv.set("server.folded_uploads", lead("sor_processor_uploads_total"), "")
	lv.set("store.duplicates", lead("sor_ingest_duplicate_total"), "expect 0")
	lv.set("store.recovered_records", float64(e.lead1.sum["sor_wal_recovered_records_total"]), "replayed by the set-up's reopen")
	lv.set("wal.appends", lead("sor_wal_appends_total"), "")
	if ops > 0 {
		lv.set("wal.bytes_per_op", lead("sor_wal_append_bytes_total")/ops, "")
	}
	lv.set("wal.fsyncs", lead("sor_wal_fsyncs_total"), "")
	lv.set("wal.segment_seals", lead("sor_wal_segment_seals_total"), "")
	pulls := lead("sor_replica_pulls_total")
	lv.set("replica.pulls", pulls, "")
	if pulls > 0 {
		lv.set("replica.records_per_pull", lead("sor_replica_shipped_records_total")/pulls, "")
	}
	lv.set("rankagg.warm_blocks", lead("sor_rank_warm_blocks_total"), "")
	lv.set("schedule.replans", lead("sor_sched_replans_total"), "")
}
