// Package chaos is the end-to-end harness proving SOR's exactly-once
// ingest under a faulty network. It stands up a real sensing server behind
// a transport.FaultInjector, drives a fleet of simulated phones through
// participation → sensing → upload while requests and acks are being
// dropped and the network partitions, and then demands that the converged
// server state — feature matrix, coverage timeline, per-user budget
// ledger — is byte-identical to a fault-free run of the same fleet.
//
// The harness is a plain package (not _test) so both the race-enabled
// soak suite and `sorsim -sweep chaos` can run the same experiment.
package chaos

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"time"

	"sor/internal/device"
	"sor/internal/frontend"
	"sor/internal/obs"
	"sor/internal/schedule"
	"sor/internal/store"
	"sor/internal/transport"
	"sor/internal/wire"
	"sor/internal/world"
)

// soakEpoch anchors the virtual experiment clock. It is fixed — not
// time.Now() — so schedules, sample timestamps, and therefore the whole
// converged state are reproducible across runs.
var soakEpoch = time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC)

// soakScript is the sensing task: three scalar sensors per instant, enough
// to light up three feature rows without needing GPS bursts.
const soakScript = `
	local t = get_temperature_readings(2, 5000)
	local w = get_wifi_rssi(2, 5000)
	local n = get_noise_readings(2, 5000)
	return #t + #w + #n
`

// soakAppID names the one application the soak fleet joins.
const soakAppID = "app-chaos"

// Config parameterizes one soak run. The zero value of the fault fields is
// a fault-free run — the baseline the chaotic run must converge to.
type Config struct {
	// Phones is the fleet size (default 4).
	Phones int
	// Budget is each phone's sensing budget (default 4).
	Budget int
	// Seed drives every random stream in the run: the fault schedule, the
	// phones' sensor noise, and the retry jitter.
	Seed int64
	// RequestLoss is the probability an upload (or any request) is dropped
	// before the server sees it.
	RequestLoss float64
	// AckLoss is the probability a request is fully processed but its ack
	// never returns — the case that forces retransmission of already-stored
	// reports.
	AckLoss float64
	// SpikeProb/Spike inject latency spikes on surviving requests.
	SpikeProb float64
	Spike     time.Duration
	// Partition cuts the network for this long just as the fleet starts
	// uploading; zero skips the partition.
	Partition time.Duration
	// Timeout bounds the whole run (default 60 s).
	Timeout time.Duration
	// Observer, when set, instruments the whole run — server, client, and
	// every phone's outbox share it, so its registry aggregates the fleet
	// and its tracer sees one request's spans across all hops.
	Observer *obs.Observer
}

// Result is one soak run's converged state plus its delivery telemetry.
type Result struct {
	// Features is the category's feature matrix with the wall-clock Updated
	// stamp zeroed — everything else must match the fault-free run bit for
	// bit.
	Features []store.FeatureRow
	// Executed is the app's coverage timeline (sorted executed instants).
	Executed []int
	// Ledger is the per-user budget accounting.
	Ledger map[string]schedule.UserLedger
	// Stored counts uploads the processor decoded — with exactly-once
	// ingest this equals the fleet size no matter how many retransmissions
	// the chaos forced.
	Stored int
	// Pending counts reports still stranded in device outboxes (0 on a
	// converged run).
	Pending int
	// SeenReports is the app's dedup window (sorted ReportIDs): two runs
	// that stored the same reports must have marked the same IDs.
	SeenReports []string
	// UploadsStored counts raw uploads the store holds (pending plus
	// archived) — the store-level exactly-once check, immune to the
	// processor re-counting refolds after a crash recovery.
	UploadsStored int
	// Fault, Client, Outbox are the run's delivery counters.
	Fault  transport.FaultStats
	Client transport.ClientStats
	Outbox frontend.OutboxStats
}

// jitterSeed is the transport.Retry seed of the run's i-th retrying
// component (the shared client is 0, phone i is i): seed + i, as the
// drivers always derived it, except that a sum landing on 0 — which Retry
// reads as "not seeded, use the wall clock" and would make the run
// unreplayable — becomes seed-1, a value no other i can produce.
func jitterSeed(seed int64, i int) int64 {
	if s := seed + int64(i); s != 0 {
		return s
	}
	return seed - 1
}

// RunSoak drives one fleet through the faulty network and returns the
// converged state. The sequence is: clean join (faults off, so every run
// computes identical schedules), chaos on, a partition dropping on the
// fleet as it uploads, concurrent task execution parking reports in device
// outboxes, heal, push-style ping wake-ups, and flush-until-drained while
// request and ack loss continue — then one processing pass and a state
// snapshot.
func RunSoak(cfg Config) (*Result, error) {
	if cfg.Phones <= 0 {
		cfg.Phones = 4
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 4
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}

	w, err := world.Canonical()
	if err != nil {
		return nil, err
	}
	place, err := w.Place(world.Starbucks)
	if err != nil {
		return nil, err
	}
	srv, err := newSoakServer(nil, cfg.Observer)
	if err != nil {
		return nil, err
	}
	var handlerOpts []transport.HandlerOption
	if cfg.Observer != nil {
		handlerOpts = append(handlerOpts, transport.WithHandlerObserver(cfg.Observer))
	}
	httpHandler, err := transport.NewHTTPHandler(srv.Handler(), handlerOpts...)
	if err != nil {
		return nil, err
	}
	fi := transport.NewFaultInjector(transport.FaultConfig{
		Seed:         cfg.Seed,
		RequestLoss:  cfg.RequestLoss,
		ResponseLoss: cfg.AckLoss,
		SpikeProb:    cfg.SpikeProb,
		Spike:        cfg.Spike,
	})
	ts := httptest.NewServer(fi.Handler(httpHandler))
	defer ts.Close()

	// Tight client retry budget: the soak wants the *outbox* to absorb the
	// faults, so individual sends give up fast and park the report.
	clientOpts := []transport.ClientOption{
		transport.WithRetry(transport.Retry{
			Attempts: 3, Base: time.Millisecond, Cap: 20 * time.Millisecond, Seed: jitterSeed(cfg.Seed, 0),
		}),
	}
	if cfg.Observer != nil {
		clientOpts = append(clientOpts, transport.WithObserver(cfg.Observer))
	}
	client, err := transport.NewClient(ts.URL, clientOpts...)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()

	// Join phase, faults off: every run — chaotic or clean — must hand the
	// fleet identical schedules, or "byte-identical convergence" would be
	// comparing different experiments.
	fi.SetEnabled(false)
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

	// Chaos on. The partition drops on the fleet right as it starts
	// sensing, so first upload attempts fail and reports park in outboxes.
	fi.SetEnabled(true)
	if cfg.Partition > 0 {
		heal := fi.PartitionFor(cfg.Partition)
		defer heal.Stop()
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
		// Transport failures park the report and return success; an error
		// here means the server *refused* a report, which chaos never
		// excuses.
		if err != nil {
			return nil, fmt.Errorf("chaos: phone %d execute: %w", i, err)
		}
	}

	// Recovery: heal (idempotent if the timer already fired), deliver the
	// push-channel wake-up, and flush until every outbox drains — with
	// request/ack loss still active, so the drain itself is chaotic.
	fi.HealPartition()
	flushErrs := make([]error, cfg.Phones)
	for i := range phones {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Best-effort ping: it both announces the phone and triggers an
			// opportunistic drain; the flush below retries regardless.
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

	res := &Result{
		Executed:      srv.ExecutedInstants(soakAppID),
		Ledger:        srv.BudgetLedger(soakAppID),
		Stored:        stored,
		SeenReports:   srv.DB().SeenReportIDs(soakAppID),
		UploadsStored: srv.DB().UploadCount(),
		Fault:         fi.Stats(),
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

// DiffState compares two runs' converged server state and returns a
// description of the first difference, or "" when they are byte-identical.
// Feature values are compared by their IEEE-754 bit patterns: "close
// enough" floats would hide an ingest path that feeds extractors in
// arrival order or stores a retransmission twice.
func DiffState(a, b *Result) string {
	if len(a.Features) != len(b.Features) {
		return fmt.Sprintf("feature rows: %d vs %d", len(a.Features), len(b.Features))
	}
	for i := range a.Features {
		fa, fb := a.Features[i], b.Features[i]
		if fa.Category != fb.Category || fa.Place != fb.Place || fa.Feature != fb.Feature {
			return fmt.Sprintf("feature[%d] identity: %s/%s/%s vs %s/%s/%s",
				i, fa.Category, fa.Place, fa.Feature, fb.Category, fb.Place, fb.Feature)
		}
		if math.Float64bits(fa.Value) != math.Float64bits(fb.Value) {
			return fmt.Sprintf("feature %s/%s value bits: %x (%v) vs %x (%v)",
				fa.Place, fa.Feature, math.Float64bits(fa.Value), fa.Value,
				math.Float64bits(fb.Value), fb.Value)
		}
		if fa.Samples != fb.Samples {
			return fmt.Sprintf("feature %s/%s samples: %d vs %d",
				fa.Place, fa.Feature, fa.Samples, fb.Samples)
		}
	}
	if len(a.Executed) != len(b.Executed) {
		return fmt.Sprintf("executed instants: %d vs %d", len(a.Executed), len(b.Executed))
	}
	for i := range a.Executed {
		if a.Executed[i] != b.Executed[i] {
			return fmt.Sprintf("executed[%d]: %d vs %d", i, a.Executed[i], b.Executed[i])
		}
	}
	if len(a.Ledger) != len(b.Ledger) {
		return fmt.Sprintf("ledger users: %d vs %d", len(a.Ledger), len(b.Ledger))
	}
	for user, la := range a.Ledger {
		lb, ok := b.Ledger[user]
		if !ok {
			return fmt.Sprintf("ledger user %s missing in second run", user)
		}
		if la != lb {
			return fmt.Sprintf("ledger %s: %+v vs %+v", user, la, lb)
		}
	}
	if len(a.SeenReports) != len(b.SeenReports) {
		return fmt.Sprintf("dedup window: %d vs %d report ids", len(a.SeenReports), len(b.SeenReports))
	}
	for i := range a.SeenReports {
		if a.SeenReports[i] != b.SeenReports[i] {
			return fmt.Sprintf("dedup window[%d]: %s vs %s", i, a.SeenReports[i], b.SeenReports[i])
		}
	}
	if a.UploadsStored != b.UploadsStored {
		return fmt.Sprintf("stored uploads: %d vs %d", a.UploadsStored, b.UploadsStored)
	}
	return ""
}

// Summary renders the run's delivery telemetry for human eyes (sorsim's
// chaos sweep and verbose soak logs).
func (r *Result) Summary() string {
	return fmt.Sprintf(
		"stored %d reports (outbox: %d enqueued, %d delivered, %d drain passes; "+
			"faults: %d/%d requests lost, %d acks lost, %d refused by partition; "+
			"client: %d sends, %d retries)",
		r.Stored,
		r.Outbox.Enqueued, r.Outbox.Delivered, r.Outbox.DrainPasses,
		r.Fault.RequestsLost, r.Fault.Requests, r.Fault.ResponsesLost, r.Fault.Partitioned,
		r.Client.Sends, r.Client.Retries)
}
