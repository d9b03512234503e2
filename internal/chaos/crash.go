package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"sor/internal/device"
	"sor/internal/frontend"
	"sor/internal/server"
	"sor/internal/store"
	"sor/internal/transport"
	"sor/internal/wire"
	"sor/internal/world"
)

// CrashConfig parameterizes a crash-restart soak: the PR-3 fault schedule
// plus a durable backend and a number of process kills sprayed across the
// run. Kills == 0 is the never-crashed baseline the killed runs must
// match exactly.
type CrashConfig struct {
	Config
	// DataDir roots the durable backend (snapshot + WAL). Required.
	DataDir string
	// Kills is how many times the server process is killed and recovered
	// mid-run (default 3).
	Kills int
	// CheckpointInterval is the backend's snapshot cadence. Short (the
	// 75 ms default) so kills land before, during, and after checkpoints.
	CheckpointInterval time.Duration
	// WALSegmentBytes keeps segments small so kills also land across
	// segment rotations (default 4096).
	WALSegmentBytes int64
}

// hostSwitch is the phones' route to whichever server incarnation is
// currently alive: a RoundTripper rewriting every request onto the live
// httptest listener. An empty target (mid-restart) fails the request the
// way a dead server would; the outbox absorbs it like any other fault.
type hostSwitch struct {
	mu   sync.RWMutex
	host string

	counting atomic.Bool  // armed after the clean join phase
	requests atomic.Int64 // post-arm request count; kill points key on it
}

func (s *hostSwitch) set(host string) {
	s.mu.Lock()
	s.host = host
	s.mu.Unlock()
}

func (s *hostSwitch) RoundTrip(req *http.Request) (*http.Response, error) {
	if s.counting.Load() {
		s.requests.Add(1)
	}
	s.mu.RLock()
	host := s.host
	s.mu.RUnlock()
	if host == "" {
		return nil, errors.New("chaos: server is down")
	}
	clone := req.Clone(req.Context())
	clone.URL.Scheme = "http"
	clone.URL.Host = host
	clone.Host = host
	return http.DefaultTransport.RoundTrip(clone)
}

// crashHarness owns the restartable server side: the durable data dir,
// the live server incarnation, and the fault injector that survives
// every restart (so one seeded fault stream spans the whole run).
type crashHarness struct {
	cfg CrashConfig
	fi  *transport.FaultInjector
	sw  *hostSwitch

	mu       sync.Mutex
	srv      *server.Server
	ts       *httptest.Server
	restarts int
}

// start boots a server incarnation: recover the store from DataDir,
// rebuild scheduling state, and route the phones at the new listener.
func (h *crashHarness) start() error {
	backend := store.NewDurableBackend(h.cfg.DataDir,
		store.WithSnapshotInterval(h.cfg.CheckpointInterval),
		store.WithSegmentBytes(h.cfg.WALSegmentBytes),
	)
	srv, err := server.New(server.Config{
		Storage:  backend,
		Now:      func() time.Time { return soakEpoch },
		Catalog:  server.DefaultCatalog(),
		Observer: h.cfg.Observer,
	})
	if err != nil {
		return err
	}
	if err := srv.Open(); err != nil {
		return fmt.Errorf("chaos: recovering server: %w", err)
	}
	var handlerOpts []transport.HandlerOption
	if h.cfg.Observer != nil {
		handlerOpts = append(handlerOpts, transport.WithHandlerObserver(h.cfg.Observer))
	}
	httpHandler, err := transport.NewHTTPHandler(srv.Handler(), handlerOpts...)
	if err != nil {
		return err
	}
	h.srv = srv
	h.ts = httptest.NewServer(h.fi.Handler(httpHandler))
	h.sw.set(h.ts.Listener.Addr().String())
	return nil
}

// restart kills the live incarnation the way a crash would — no final
// checkpoint, no WAL flush, listener gone — then recovers a fresh one
// from whatever the dead process left on disk.
func (h *crashHarness) restart() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sw.set("")
	h.srv.Kill()
	h.ts.Close()
	h.restarts++
	return h.start()
}

// stop shuts the current incarnation down cleanly.
func (h *crashHarness) stop() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ts != nil {
		h.ts.Close()
	}
	if h.srv != nil {
		_ = h.srv.Close()
	}
}

// RunCrashSoak drives the PR-3 chaos fleet against a durable server that
// is killed and recovered cfg.Kills times mid-run, and returns the
// converged state. The exactly-once contract under test: every report the
// server acked survives every kill (ack-after-write), no report is stored
// or budget-charged twice across recoveries, and the converged state is
// bit-identical to a never-killed run of the same seed.
func RunCrashSoak(cfg CrashConfig) (*Result, error) {
	if cfg.Phones <= 0 {
		cfg.Phones = 4
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 4
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 120 * time.Second
	}
	if cfg.Kills < 0 {
		cfg.Kills = 0
	}
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = 75 * time.Millisecond
	}
	if cfg.WALSegmentBytes <= 0 {
		cfg.WALSegmentBytes = 4096
	}
	if cfg.DataDir == "" {
		return nil, errors.New("chaos: crash soak needs a data dir")
	}

	w, err := world.Canonical()
	if err != nil {
		return nil, err
	}
	place, err := w.Place(world.Starbucks)
	if err != nil {
		return nil, err
	}
	h := &crashHarness{
		cfg: cfg,
		sw:  &hostSwitch{},
		fi: transport.NewFaultInjector(transport.FaultConfig{
			Seed:         cfg.Seed,
			RequestLoss:  cfg.RequestLoss,
			ResponseLoss: cfg.AckLoss,
			SpikeProb:    cfg.SpikeProb,
			Spike:        cfg.Spike,
		}),
	}
	if err := h.start(); err != nil {
		return nil, err
	}
	defer h.stop()
	if err := h.srv.CreateApp(store.Application{
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

	clientOpts := []transport.ClientOption{
		transport.WithRetry(transport.Retry{
			Attempts: 3, Base: time.Millisecond, Cap: 20 * time.Millisecond, Seed: jitterSeed(cfg.Seed, 0),
		}),
		transport.WithHTTPClient(&http.Client{Transport: h.sw}),
	}
	if cfg.Observer != nil {
		clientOpts = append(clientOpts, transport.WithObserver(cfg.Observer))
	}
	// The base URL is a placeholder: hostSwitch reroutes every request to
	// the live incarnation.
	client, err := transport.NewClient("http://sor-crash.invalid", clientOpts...)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()

	// Clean join phase: faults off, kills unarmed, so every run computes
	// identical schedules (see RunSoak).
	h.fi.SetEnabled(false)
	type soakPhone struct {
		fe    *frontend.Frontend
		sched *wire.Schedule
	}
	phones := make([]soakPhone, cfg.Phones)
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
		feOpts := []frontend.Option{
			frontend.WithOutboxRetry(transport.Retry{
				Base: time.Millisecond, Cap: 20 * time.Millisecond, Seed: jitterSeed(cfg.Seed, i),
			}),
		}
		if cfg.Observer != nil {
			feOpts = append(feOpts, frontend.WithObserver(cfg.Observer))
		}
		fe, err := frontend.New(phone, client, feOpts...)
		if err != nil {
			return nil, err
		}
		sched, err := fe.Participate(ctx, fmt.Sprintf("chaos-user-%d", i), soakAppID, cfg.Budget, 3*time.Hour)
		if err != nil {
			return nil, fmt.Errorf("chaos: phone %d join: %w", i, err)
		}
		phones[i] = soakPhone{fe: fe, sched: sched}
	}

	// Chaos on: network faults and the kill controller together. Kill
	// points are request-count thresholds drawn from the seed, with a time
	// fallback so a quiet network cannot stall the controller; where kills
	// land does not need to be reproducible — the contract is that the
	// converged state is identical NO MATTER where they land.
	h.fi.SetEnabled(true)
	h.sw.counting.Store(true)
	if cfg.Partition > 0 {
		heal := h.fi.PartitionFor(cfg.Partition)
		defer heal.Stop()
	}
	killErr := make(chan error, 1)
	killsDone := make(chan struct{})
	go func() {
		defer close(killsDone)
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5deece66d))
		for k := 0; k < cfg.Kills; k++ {
			target := h.sw.requests.Load() + 2 + rng.Int63n(16)
			deadline := time.Now().Add(400 * time.Millisecond)
			for h.sw.requests.Load() < target && time.Now().Before(deadline) && ctx.Err() == nil {
				time.Sleep(2 * time.Millisecond)
			}
			if ctx.Err() != nil {
				return
			}
			if err := h.restart(); err != nil {
				killErr <- err
				return
			}
		}
	}()

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

	h.fi.HealPartition()
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
	// Wait for any kill still pending its threshold, then flush again:
	// the last kill may have severed acks for reports the flush above
	// already counted delivered-or-parked.
	select {
	case err := <-killErr:
		return nil, err
	case <-killsDone:
	}
	for i := range phones {
		if phones[i].fe.Outbox().Pending() > 0 {
			if err := phones[i].fe.FlushOutbox(ctx); err != nil {
				return nil, fmt.Errorf("chaos: phone %d final flush: %w", i, err)
			}
		}
	}

	h.mu.Lock()
	srv := h.srv
	restarts := h.restarts
	h.mu.Unlock()
	if restarts != cfg.Kills {
		return nil, fmt.Errorf("chaos: %d kills requested, %d performed", cfg.Kills, restarts)
	}

	srv.Processor().Process()
	stored, decodeErrs := srv.Processor().Stats()
	if decodeErrs > 0 {
		return nil, fmt.Errorf("chaos: %d uploads failed to decode", decodeErrs)
	}
	res := &Result{
		Executed:      srv.ExecutedInstants(soakAppID),
		Ledger:        srv.BudgetLedger(soakAppID),
		Stored:        stored,
		SeenReports:   srv.DB().SeenReportIDs(soakAppID),
		UploadsStored: srv.DB().UploadCount(),
		Fault:         h.fi.Stats(),
		Client:        client.Stats(),
	}
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
	}
	return res, nil
}
