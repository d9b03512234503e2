package chaos

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"sor/internal/device"
	"sor/internal/frontend"
	"sor/internal/obs"
	"sor/internal/server"
	"sor/internal/store"
	"sor/internal/transport"
	"sor/internal/transport/session"
	"sor/internal/wire"
	"sor/internal/world"
)

// newSoakServer stands up the sensing server plus the one soak app both
// harnesses (HTTP and stream) drive, with push wired to the given fabric.
func newSoakServer(push transport.Notifier, obsv *obs.Observer) (*server.Server, error) {
	w, err := world.Canonical()
	if err != nil {
		return nil, err
	}
	place, err := w.Place(world.Starbucks)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		DB:       store.New(),
		Now:      func() time.Time { return soakEpoch },
		Catalog:  server.DefaultCatalog(),
		Push:     push,
		Observer: obsv,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.CreateApp(store.Application{
		ID:       soakAppID,
		Creator:  "chaos-harness",
		Category: world.CategoryCoffee,
		Place:    world.Starbucks,
		Lat:      place.Loc.Lat, Lon: place.Loc.Lon,
		RadiusM:   60,
		Script:    soakScript,
		PeriodSec: 10800,
	}); err != nil {
		return nil, err
	}
	return srv, nil
}

// SessionConfig parameterizes one stream-transport soak run. TCP gives the
// stream reliable delivery, so its chaos is connection-shaped: partitions
// that sever every live session and forced kills that cut streams with
// requests in flight. The zero value of the fault fields is the fault-free
// baseline.
type SessionConfig struct {
	// Phones is the fleet size (default 4).
	Phones int
	// Budget is each phone's sensing budget (default 4).
	Budget int
	// Seed drives the phones' sensor noise and all retry jitter.
	Seed int64
	// Partition cuts the network for this long as the fleet starts
	// uploading: dials are refused and every live session is severed.
	Partition time.Duration
	// Kills forcibly severs every live connection this many times while
	// the fleet drains (spread ~15 ms apart).
	Kills int
	// KillMidBatch severs every connection immediately after the server
	// processes an upload (single or batched) — but before the reply frame
	// is written — this many times. The client cannot tell delivery from
	// loss and must retransmit; only ReportID dedup keeps the store
	// exactly-once.
	KillMidBatch int
	// Timeout bounds the whole run (default 60 s).
	Timeout time.Duration
	// Observer instruments the run (shared registry across all layers).
	Observer *obs.Observer
}

// SessionResult is a stream soak's converged state plus stream telemetry.
type SessionResult struct {
	Result
	// WakesSent counts wake-up notifications the registry delivered.
	WakesSent int
	// Reconnects counts successful client re-dials after severed streams.
	Reconnects int64
	// PushesReceived counts server-initiated messages the fleet saw.
	PushesReceived int64
}

// RunSessionSoak drives one fleet through the stream transport: every
// phone holds a single multiplexed session, schedules arrive as
// server-initiated pushes, and the chaos is partition severs plus forced
// session kills (including mid-batch, after the server committed but
// before it acked). The converged state must be byte-identical to a
// fault-free run — exactly-once across connection death.
func RunSessionSoak(cfg SessionConfig) (*SessionResult, error) {
	if cfg.Phones <= 0 {
		cfg.Phones = 4
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 4
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}

	var regOpts []session.RegistryOption
	if cfg.Observer != nil {
		regOpts = append(regOpts, session.WithRegistryMetrics(cfg.Observer.Metrics()))
	}
	registry := session.NewRegistry(regOpts...)
	srv, err := newSoakServer(registry, cfg.Observer)
	if err != nil {
		return nil, err
	}

	fi := transport.NewFaultInjector(transport.FaultConfig{Seed: cfg.Seed})

	// Mid-batch kills wrap the dispatch path: the batch commits, then the
	// stream dies before the ack frame leaves the server.
	var killMu sync.Mutex
	killsLeft := cfg.KillMidBatch
	var ss *session.Server
	handler := srv.Handler()
	wrapped := func(ctx context.Context, m wire.Message) (wire.Message, error) {
		resp, err := handler(ctx, m)
		isUpload := false
		switch m.(type) {
		case *wire.DataUpload, *wire.DataUploadBatch:
			isUpload = true
		}
		if isUpload && err == nil {
			killMu.Lock()
			kill := killsLeft > 0
			if kill {
				killsLeft--
			}
			killMu.Unlock()
			if kill {
				ss.CloseConns()
			}
		}
		return resp, err
	}
	var ssOpts []session.ServerOption
	if cfg.Observer != nil {
		ssOpts = append(ssOpts, session.WithServerObserver(cfg.Observer))
	}
	ss, err = session.NewServer(wrapped, registry, ssOpts...)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = ss.Serve(ln) }()
	defer func() { _ = ss.Close() }()
	addr := ln.Addr().String()

	dial := session.FaultDialer(fi, func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	})

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()

	w, err := world.Canonical()
	if err != nil {
		return nil, err
	}
	place, err := w.Place(world.Starbucks)
	if err != nil {
		return nil, err
	}

	type soakPhone struct {
		fe    *frontend.Frontend
		conn  *session.Client
		sched *wire.Schedule
	}
	phones := make([]soakPhone, cfg.Phones)
	fi.SetEnabled(false)
	for i := range phones {
		phone, err := device.New(device.Config{
			ID:    fmt.Sprintf("chaos-phone-%d", i),
			Token: fmt.Sprintf("chaos-token-%d", i),
			Traj:  device.Trajectory{Place: place, Enter: soakEpoch, Leave: soakEpoch.Add(3 * time.Hour)},
			Seed:  cfg.Seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		connOpts := []session.ClientOption{
			session.WithClientRetry(transport.Retry{
				Attempts: 6, Base: time.Millisecond, Cap: 20 * time.Millisecond, Seed: jitterSeed(cfg.Seed, i),
			}),
		}
		if cfg.Observer != nil {
			connOpts = append(connOpts, session.WithClientObserver(cfg.Observer))
		}
		conn, err := session.NewClient(dial, fmt.Sprintf("chaos-token-%d", i), connOpts...)
		if err != nil {
			return nil, err
		}
		feOpts := []frontend.Option{
			frontend.WithOutboxRetry(transport.Retry{
				Base: time.Millisecond, Cap: 20 * time.Millisecond, Seed: jitterSeed(cfg.Seed, i),
			}),
		}
		if cfg.Observer != nil {
			feOpts = append(feOpts, frontend.WithObserver(cfg.Observer))
		}
		fe, err := frontend.New(phone, conn, feOpts...)
		if err != nil {
			return nil, err
		}
		// Reconnect resume drains the outbox: reports in flight when the
		// stream died are retransmitted and deduped server-side.
		conn.SetOnResume(func() { _ = fe.FlushOutbox(context.Background()) })
		sched, err := fe.Participate(ctx, fmt.Sprintf("chaos-user-%d", i), soakAppID, cfg.Budget, 3*time.Hour)
		if err != nil {
			return nil, fmt.Errorf("chaos: phone %d join: %w", i, err)
		}
		phones[i] = soakPhone{fe: fe, conn: conn, sched: sched}
	}
	defer func() {
		for _, p := range phones {
			if p.conn != nil {
				_ = p.conn.Close()
			}
		}
	}()

	// Chaos on: a partition drops on the fleet as it starts sensing
	// (severing every live stream), and forced kills keep cutting
	// connections while the drain runs.
	fi.SetEnabled(true)
	if cfg.Partition > 0 {
		heal := fi.PartitionFor(cfg.Partition)
		defer heal.Stop()
	}
	killCtx, stopKills := context.WithCancel(ctx)
	defer stopKills()
	var killWG sync.WaitGroup
	if cfg.Kills > 0 {
		killWG.Add(1)
		go func() {
			defer killWG.Done()
			for k := 0; k < cfg.Kills; k++ {
				select {
				case <-time.After(15 * time.Millisecond):
					ss.CloseConns()
				case <-killCtx.Done():
					return
				}
			}
		}()
	}

	execErrs := make([]error, cfg.Phones)
	var wg sync.WaitGroup
	for i := range phones {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, execErrs[i] = phones[i].fe.ExecuteSchedule(ctx, phones[i].sched)
		}(i)
	}
	wg.Wait()
	for i, err := range execErrs {
		if err != nil {
			return nil, fmt.Errorf("chaos: phone %d execute: %w", i, err)
		}
	}

	// Recovery: heal, stop killing, then flush until every outbox drains.
	fi.HealPartition()
	stopKills()
	killWG.Wait()
	flushErrs := make([]error, cfg.Phones)
	for i := range phones {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = phones[i].fe.HandlePing(ctx)
			flushErrs[i] = phones[i].fe.FlushOutbox(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range flushErrs {
		if err != nil {
			return nil, fmt.Errorf("chaos: phone %d flush: %w", i, err)
		}
	}

	srv.Processor().Process()
	stored, decodeErrs := srv.Processor().Stats()
	if decodeErrs > 0 {
		return nil, fmt.Errorf("chaos: %d uploads failed to decode", decodeErrs)
	}

	res := &SessionResult{}
	res.Executed = srv.ExecutedInstants(soakAppID)
	res.Ledger = srv.BudgetLedger(soakAppID)
	res.Stored = stored
	res.SeenReports = srv.DB().SeenReportIDs(soakAppID)
	res.UploadsStored = srv.DB().UploadCount()
	res.Fault = fi.Stats()
	for _, row := range srv.DB().FeaturesByCategory(world.CategoryCoffee) {
		row.Updated = time.Time{}
		res.Features = append(res.Features, row)
	}
	for _, p := range phones {
		ob := p.fe.Outbox()
		res.Pending += ob.Pending()
		s := ob.Stats()
		res.Outbox.Enqueued += s.Enqueued
		res.Outbox.Delivered += s.Delivered
		res.Outbox.DroppedOverflow += s.DroppedOverflow
		res.Outbox.DroppedRefused += s.DroppedRefused
		res.Outbox.DrainPasses += s.DrainPasses
		res.Outbox.BatchesSent += s.BatchesSent
		cs := p.conn.Stats()
		res.Client.Sends += cs.Sends
		res.Client.Retries += cs.Retries
		res.Reconnects += cs.Reconnects
		res.PushesReceived += cs.PushesReceived
	}
	res.WakesSent = registry.Sent()
	return res, nil
}

// SessionSummary renders the stream run's telemetry.
func (r *SessionResult) SessionSummary() string {
	return fmt.Sprintf(
		"stored %d reports (outbox: %d enqueued, %d delivered; "+
			"stream: %d sends, %d retries, %d reconnects, %d pushes received, %d sessions severed by partition)",
		r.Stored,
		r.Outbox.Enqueued, r.Outbox.Delivered,
		r.Client.Sends, r.Client.Retries, r.Reconnects, r.PushesReceived,
		r.Fault.SessionsSevered)
}
