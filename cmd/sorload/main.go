// Command sorload is a load generator for a running SOR sensing server
// (cmd/sord): it launches N simulated phones against one application,
// walks each through the full participation → schedule → sense → upload
// loop, and reports latency and throughput statistics.
//
// With -concurrency > 0 it then runs a burst-ingest phase: that many
// workers hammer the server with coalesced DataUploadBatch messages on
// behalf of the joined phones, and each worker prints its own latency
// histogram — the client-side view of the server's sharded ingest path.
//
// With -rankers > 0 the burst phase becomes a mixed read/write phase:
// that many additional workers issue RankRequests for the app's category
// (rotating through distinct preference profiles) while the writers are
// hammering ingest, reporting rank latency and the span of snapshot
// epochs each worker observed — the client-side view of the server's
// epoch-versioned rank-serving path.
//
// Usage (with sord running on :8080):
//
//	sorload -server http://localhost:8080 -app coffee-shop-3 -phones 25 -budget 10
//	sorload -phones 8 -concurrency 4 -batch 32 -batches 50
//	sorload -phones 8 -concurrency 4 -rankers 4 -ranks 200
//	sorload -transport stream -stream-addr localhost:8081 -phones 25
//
// Every phase is written against the transport-neutral Conn interface:
// -transport picks one-shot HTTP (default) or the persistent stream
// session (sord -stream-addr), and the same load runs over either.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"sor"
	"sor/internal/ranking"
	"sor/internal/stats"
	"sor/internal/transport"
	"sor/internal/transport/session"
	"sor/internal/wire"
	"sor/internal/world"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("sorload: %v", err)
	}
}

func run() error {
	serverURL := flag.String("server", "http://localhost:8080", "sensing server base URL")
	transportKind := flag.String("transport", "http", "transport: http (one-shot) or stream (persistent session; per-request chaos flags apply to http only, -chaos-partition to both)")
	streamAddr := flag.String("stream-addr", "localhost:8081", "stream endpoint for -transport stream (see sord -stream-addr)")
	appID := flag.String("app", "coffee-shop-3", "application to load (as registered by sord)")
	phones := flag.Int("phones", 10, "number of simulated phones")
	budget := flag.Int("budget", 10, "per-phone sensing budget")
	seed := flag.Int64("seed", 1, "random seed")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall deadline")
	concurrency := flag.Int("concurrency", 0, "burst-phase workers sending batched uploads (0 disables the phase)")
	batchSize := flag.Int("batch", 32, "reports per coalesced upload batch in the burst phase")
	batches := flag.Int("batches", 25, "batches each burst worker sends")
	rankers := flag.Int("rankers", 0, "rank-query workers running alongside the burst phase (0 disables)")
	ranks := flag.Int("ranks", 100, "rank requests each ranker worker sends")
	chaosRequestLoss := flag.Float64("chaos-request-loss", 0, "probability a request is dropped before the server sees it")
	chaosAckLoss := flag.Float64("chaos-ack-loss", 0, "probability a request is processed but its ack is dropped")
	chaosSpike := flag.Duration("chaos-spike", 0, "injected latency per spike")
	chaosSpikeProb := flag.Float64("chaos-spike-prob", 0, "probability a surviving request pays -chaos-spike of latency")
	chaosPartition := flag.Duration("chaos-partition", 0, "cut the network for this long once every phone has joined")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the fault schedule")
	flag.Parse()

	w, err := world.Canonical()
	if err != nil {
		return err
	}
	// sord registers the canonical apps; map the app id to its place so
	// the simulated phones materialize inside the right geofence.
	place, err := placeForApp(w, *appID)
	if err != nil {
		return err
	}
	// With any chaos flag set, the client's RoundTripper goes through a
	// FaultInjector: the load run then doubles as an exactly-once soak
	// against a real server — lost requests and lost acks force the device
	// outboxes to retransmit, and the server's ReportID dedup keeps the
	// stored data identical to a clean run.
	var fi *transport.FaultInjector
	if *chaosRequestLoss > 0 || *chaosAckLoss > 0 || *chaosSpikeProb > 0 || *chaosPartition > 0 {
		fi = transport.NewFaultInjector(transport.FaultConfig{
			Seed:         *chaosSeed,
			RequestLoss:  *chaosRequestLoss,
			ResponseLoss: *chaosAckLoss,
			SpikeProb:    *chaosSpikeProb,
			Spike:        *chaosSpike,
		})
		// Joins run clean so every phone gets a schedule; the injector arms
		// once the fleet is in (see the barrier below).
		fi.SetEnabled(false)
	}
	// Every phase below talks through the transport-neutral Conn.
	var conn sor.Conn
	var httpClient *sor.Client
	var streamClient *sor.StreamClient
	switch *transportKind {
	case "http":
		clientOpts := []sor.ClientOption{}
		if fi != nil {
			clientOpts = append(clientOpts,
				sor.WithClientHTTP(&http.Client{
					Transport: fi.Transport(nil),
					Timeout:   10 * time.Second,
				}),
				sor.WithClientRetry(sor.Retry{Attempts: 5, Seed: *chaosSeed}))
		}
		httpClient, err = sor.NewClient(*serverURL, clientOpts...)
		if err != nil {
			return err
		}
		conn = httpClient
	case "stream":
		dial := sor.StreamDialer(func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", *streamAddr)
		})
		if fi != nil {
			// A partition refuses dials and severs the live stream, driving
			// the client through its reconnect/resume path mid-load.
			dial = session.FaultDialer(fi, dial)
		}
		streamClient, err = sor.NewStreamClient(dial, fmt.Sprintf("sorload-%d", *seed),
			sor.WithStreamRetry(sor.Retry{Attempts: 5, Seed: *chaosSeed}))
		if err != nil {
			return err
		}
		conn = streamClient
	default:
		return fmt.Errorf("unknown -transport %q (http|stream)", *transportKind)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// joinBarrier trips once every phone has joined (or failed to); the
	// chaos is armed only then, so participation is never chaotic.
	var joinBarrier sync.WaitGroup
	joinBarrier.Add(*phones)
	chaosArmed := make(chan struct{})
	go func() {
		joinBarrier.Wait()
		if fi != nil {
			fi.SetEnabled(true)
			if *chaosPartition > 0 {
				fi.PartitionFor(*chaosPartition)
			}
		}
		close(chaosArmed)
	}()

	type result struct {
		participateMs float64
		executeMs     float64
		measurements  int
		drainPasses   int
		delivered     int
		taskID        string
		userID        string
		err           error
	}
	results := make([]result, *phones)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *phones; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var joinOnce sync.Once
			markJoined := func() { joinOnce.Do(joinBarrier.Done) }
			defer markJoined()
			r := &results[i]
			now := time.Now().UTC()
			phone, err := sor.NewPhone(sor.PhoneConfig{
				ID:    fmt.Sprintf("load-phone-%d", i),
				Token: fmt.Sprintf("load-token-%d-%d", *seed, i),
				Traj:  sor.Trajectory{Place: place, Enter: now, Leave: now.Add(3 * time.Hour)},
				Seed:  *seed + int64(i),
			})
			if err != nil {
				r.err = err
				return
			}
			fe, err := sor.NewFrontend(phone, conn)
			if err != nil {
				r.err = err
				return
			}
			userID := fmt.Sprintf("load-user-%d-%d", *seed, i)
			t0 := time.Now()
			sched, err := fe.Participate(ctx, userID, *appID, *budget, 3*time.Hour)
			r.participateMs = float64(time.Since(t0)) / float64(time.Millisecond)
			if err != nil {
				r.err = err
				return
			}
			markJoined()
			<-chaosArmed
			t1 := time.Now()
			if _, err := fe.ExecuteSchedule(ctx, sched); err != nil {
				r.err = err
				return
			}
			// Under chaos the report may be parked in the outbox; flush
			// until the server has acked it so the run's numbers count
			// delivered work, not queued work.
			if err := fe.FlushOutbox(ctx); err != nil {
				r.err = err
				return
			}
			r.executeMs = float64(time.Since(t1)) / float64(time.Millisecond)
			r.measurements = len(sched.AtUnix)
			r.taskID = sched.TaskID
			r.userID = userID
			ob := fe.Outbox().Stats()
			r.drainPasses = ob.DrainPasses
			r.delivered = ob.Delivered
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var partLat, execLat []float64
	measurements, failures, drainPasses, delivered := 0, 0, 0, 0
	for _, r := range results {
		if r.err != nil {
			failures++
			log.Printf("phone failed: %v", r.err)
			continue
		}
		partLat = append(partLat, r.participateMs)
		execLat = append(execLat, r.executeMs)
		measurements += r.measurements
		drainPasses += r.drainPasses
		delivered += r.delivered
	}
	ok := *phones - failures
	fmt.Printf("sorload: %d/%d phones completed in %v (%d scheduled measurements)\n",
		ok, *phones, elapsed.Round(time.Millisecond), measurements)
	if ok > 0 {
		printLatency("participate (schedule computation)", partLat)
		printLatency("execute+upload+flush", execLat)
		fmt.Printf("  throughput: %.1f uploads/s\n", float64(ok)/elapsed.Seconds())
	}
	if fi != nil {
		fs := fi.Stats()
		var retries int64
		switch {
		case httpClient != nil:
			retries = httpClient.Stats().Retries
		case streamClient != nil:
			retries = streamClient.Stats().Retries
		}
		fmt.Printf("chaos: %d/%d requests lost, %d acks lost, %d refused by partition, %d severed, %d spikes; "+
			"client retried %d times; outbox: %d delivered in %d drain passes\n",
			fs.RequestsLost, fs.Requests, fs.ResponsesLost, fs.Partitioned, fs.SessionsSevered, fs.Spikes,
			retries, delivered, drainPasses)
	}
	if streamClient != nil {
		ss := streamClient.Stats()
		fmt.Printf("stream: %d sends, %d retries, %d reconnects, %d pushes received\n",
			ss.Sends, ss.Retries, ss.Reconnects, ss.PushesReceived)
	}
	if (*concurrency > 0 || *rankers > 0) && ok > 0 {
		var targets []burstTarget
		for _, r := range results {
			if r.err == nil {
				targets = append(targets, burstTarget{taskID: r.taskID, userID: r.userID})
			}
		}
		// With both writers and rankers, the two phases run concurrently:
		// the rankers read through the epoch-snapshot path while the
		// writers churn ingest underneath it.
		joinRankers := func() error { return nil }
		if *rankers > 0 {
			joinRankers = startRankPhase(ctx, conn, place.Category, *rankers, *ranks, *seed)
		}
		if *concurrency > 0 {
			if err := runBurstPhase(ctx, conn, *appID, targets, *concurrency, *batchSize, *batches); err != nil {
				return err
			}
		}
		if err := joinRankers(); err != nil {
			return err
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d phones failed", failures)
	}
	return nil
}

// burstTarget identifies a joined phone the burst phase uploads for.
type burstTarget struct {
	taskID, userID string
}

// burstReport builds one small report in the burst target's name. Every
// report carries a unique ReportID so a retried batch (chaos flags, flaky
// networks) is deduplicated by the server instead of stored twice.
func burstReport(appID string, tgt burstTarget, at time.Time, reportID string) wire.DataUpload {
	return wire.DataUpload{
		TaskID:   tgt.taskID,
		AppID:    appID,
		UserID:   tgt.userID,
		ReportID: reportID,
		Series: []wire.SensorSeries{
			{Sensor: "temperature", Samples: []wire.SensorSample{
				{AtUnixMilli: at.UnixMilli(), WindowMilli: 5000, Readings: []float64{70.2, 70.4, 70.3}},
			}},
		},
	}
}

// runBurstPhase hammers the batched ingest path with `workers` concurrent
// senders, each recording a per-worker latency histogram of SendBatch
// round-trips.
func runBurstPhase(ctx context.Context, conn sor.Conn, appID string,
	targets []burstTarget, workers, batchSize, batches int) error {
	if batchSize < 1 || batchSize > wire.MaxBatchReports {
		return fmt.Errorf("batch size %d out of [1,%d]", batchSize, wire.MaxBatchReports)
	}
	hists := make([]*stats.Histogram, workers)
	errs := make([]error, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		hists[w] = stats.NewLatencyHistogram()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < batches; n++ {
				ups := make([]*wire.DataUpload, batchSize)
				for i := range ups {
					tgt := targets[(w*batches+n+i)%len(targets)]
					reportID := fmt.Sprintf("burst/%s/%d-%d", tgt.userID, w, n*batchSize+i)
					up := burstReport(appID, tgt, start.Add(time.Duration(n*batchSize+i)*time.Second), reportID)
					ups[i] = &up
				}
				t0 := time.Now()
				ack, err := conn.SendBatch(ctx, ups)
				if err != nil {
					errs[w] = err
					return
				}
				hists[w].Add(float64(time.Since(t0)) / float64(time.Millisecond))
				if !ack.OK {
					errs[w] = fmt.Errorf("batch refused: %s", ack.Message)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	merged := stats.NewLatencyHistogram()
	sent := 0
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return fmt.Errorf("burst worker %d: %w", w, errs[w])
		}
		sent += hists[w].N() * batchSize
		fmt.Printf("burst worker %d: %d batches, mean %.1f ms\n%s\n",
			w, hists[w].N(), hists[w].Mean(), hists[w].Render(40, "ms"))
		if err := merged.Merge(hists[w]); err != nil {
			return err
		}
	}
	p50, err := merged.Quantile(0.5)
	if err != nil {
		return err
	}
	p99, err := merged.Quantile(0.99)
	if err != nil {
		return err
	}
	fmt.Printf("burst phase: %d workers, %d reports in %v (%.0f reports/s), batch p50 ≤%g ms p99 ≤%g ms\n",
		workers, sent, elapsed.Round(time.Millisecond),
		float64(sent)/elapsed.Seconds(), p50, p99)
	return nil
}

// rankPrefs builds the i-th preference profile of the rank-phase query
// mix: a rotating temperature target plus rotating weights, giving the
// server's profile cache a handful of distinct slots to serve.
func rankPrefs(i int) []wire.PrefEntry {
	i %= 16
	return []wire.PrefEntry{
		{Feature: "temperature", Kind: int(ranking.PrefValue),
			Value: 60 + float64(i), Weight: 1 + i%5},
	}
}

// startRankPhase launches `workers` rank-query goroutines, each sending
// `ranks` RankRequests for the category with a rotating profile mix. It
// returns a join function that waits for them and prints per-worker and
// merged latency plus the span of snapshot epochs observed — under
// concurrent ingest the epochs should advance, and within one worker
// they must never go backwards.
func startRankPhase(ctx context.Context, conn sor.Conn, category string,
	workers, ranks int, seed int64) func() error {
	type rankStats struct {
		hist     *stats.Histogram
		loEpoch  int64
		hiEpoch  int64
		nonMono  int
		refusals int
		err      error
	}
	res := make([]rankStats, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		res[w].hist = stats.NewLatencyHistogram()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &res[w]
			var lastEpoch int64
			for n := 0; n < ranks; n++ {
				req := &wire.RankRequest{
					Category: category,
					UserID:   fmt.Sprintf("rank-user-%d-%d", seed, w),
					Prefs:    rankPrefs(w*ranks + n),
				}
				t0 := time.Now()
				resp, err := conn.Send(ctx, req)
				if err != nil {
					r.err = err
					return
				}
				r.hist.Add(float64(time.Since(t0)) / float64(time.Millisecond))
				ranked, ok := resp.(*wire.RankResponse)
				if !ok {
					r.refusals++
					continue
				}
				if ranked.Epoch < lastEpoch {
					r.nonMono++
				}
				lastEpoch = ranked.Epoch
				if r.loEpoch == 0 || ranked.Epoch < r.loEpoch {
					r.loEpoch = ranked.Epoch
				}
				if ranked.Epoch > r.hiEpoch {
					r.hiEpoch = ranked.Epoch
				}
			}
		}(w)
	}
	return func() error {
		wg.Wait()
		elapsed := time.Since(start)
		merged := stats.NewLatencyHistogram()
		sent, refusals := 0, 0
		loEpoch, hiEpoch := int64(0), int64(0)
		for w := 0; w < workers; w++ {
			r := &res[w]
			if r.err != nil {
				return fmt.Errorf("rank worker %d: %w", w, r.err)
			}
			if r.nonMono > 0 {
				return fmt.Errorf("rank worker %d: epoch went backwards %d times", w, r.nonMono)
			}
			sent += r.hist.N()
			refusals += r.refusals
			fmt.Printf("rank worker %d: %d ranks, mean %.1f ms, epochs %d→%d\n",
				w, r.hist.N(), r.hist.Mean(), r.loEpoch, r.hiEpoch)
			if err := merged.Merge(r.hist); err != nil {
				return err
			}
			if loEpoch == 0 || (r.loEpoch > 0 && r.loEpoch < loEpoch) {
				loEpoch = r.loEpoch
			}
			if r.hiEpoch > hiEpoch {
				hiEpoch = r.hiEpoch
			}
		}
		p50, err := merged.Quantile(0.5)
		if err != nil {
			return err
		}
		p99, err := merged.Quantile(0.99)
		if err != nil {
			return err
		}
		fmt.Printf("rank phase: %d workers, %d ranks in %v (%.0f ranks/s, %d refused), p50 ≤%g ms p99 ≤%g ms, epochs %d→%d\n",
			workers, sent, elapsed.Round(time.Millisecond),
			float64(sent)/elapsed.Seconds(), refusals, p50, p99, loEpoch, hiEpoch)
		return nil
	}
}

func printLatency(label string, ms []float64) {
	if len(ms) == 0 {
		return
	}
	mean, _, err := stats.MeanStd(ms)
	if err != nil {
		return
	}
	p50, err := stats.Quantile(ms, 0.5)
	if err != nil {
		return
	}
	p99, err := stats.Quantile(ms, 0.99)
	if err != nil {
		return
	}
	fmt.Printf("  %-36s mean %7.1f ms   p50 %7.1f ms   p99 %7.1f ms\n", label, mean, p50, p99)
}

// placeForApp maps sord's canonical app ids to world places.
func placeForApp(w *world.World, appID string) (*world.Place, error) {
	byApp := map[string]string{
		"hiking-trail-1": world.GreenLakeTrail,
		"hiking-trail-2": world.LongTrail,
		"hiking-trail-3": world.CliffTrail,
		"coffee-shop-1":  world.TimHortons,
		"coffee-shop-2":  world.BNCafe,
		"coffee-shop-3":  world.Starbucks,
	}
	name, ok := byApp[appID]
	if !ok {
		known := make([]string, 0, len(byApp))
		for k := range byApp {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("unknown app %q (known: %v)", appID, known)
	}
	return w.Place(name)
}
