// Package chaos holds SOR's soaks: end-to-end experiments that drive real
// servers through scheduled faults and demand that the converged state is
// byte-identical to a fault-free run of the same workload. A soak is data
// — a row of the scenario table in scenarios.go — executed by one of two
// engines:
//
//   - the fleet engine (fleet.go, wall clock): simulated phones join,
//     sense and upload over one-shot HTTP or a stream session, against a
//     memory or durable server, while requests and acks are lost, the
//     network partitions, connections are cut and the server is killed -9
//     and recovered;
//   - the cluster engine (cluster.go, virtual time, single-threaded, a
//     pure function of its seed): shards of replicated durable nodes,
//     optionally behind a router, walk an ordered list of per-tick rules —
//     kills, partitions, checkpoints, planned failovers, a snapshot-ship
//     resync — and every node must match a never-crashed baseline.
//
// Both stand on this file's fixture (epoch, script, app definitions, the
// server and phone builders) and on state.go's comparators. The package is
// not _test so the race-enabled suites and `sorsim -sweep chaos` run the
// same table entries.
package chaos

import (
	"context"
	"fmt"
	"time"

	"sor/internal/device"
	"sor/internal/frontend"
	"sor/internal/obs"
	"sor/internal/server"
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

// soakApp is one application a soak drives: the store row, plus the prefix
// of the user, token and report ids its scripted workload mints.
type soakApp struct {
	id, prefix, category, place string
	lat, lon                    float64
}

func (a soakApp) store() store.Application {
	return store.Application{
		ID: a.id, Creator: "chaos-harness",
		Category: a.category, Place: a.place,
		Lat: a.lat, Lon: a.lon, RadiusM: 60,
		Script: soakScript, PeriodSec: 10800,
	}
}

// coffeeApp is an app at the canonical world's Starbucks.
func coffeeApp(id, prefix string) soakApp {
	return soakApp{id: id, prefix: prefix, category: world.CategoryCoffee,
		place: world.Starbucks, lat: 43.0413, lon: -76.1350}
}

// fleetApp is the one application the phone fleet (and the test rigs) join.
var fleetApp = coffeeApp("app-chaos", "chaos")

// soakPlace is where every simulated phone spends the experiment.
func soakPlace() (*world.Place, error) {
	w, err := world.Canonical()
	if err != nil {
		return nil, err
	}
	return w.Place(fleetApp.place)
}

// newSoakServer stands up an in-memory sensing server with fleetApp
// provisioned and push wired to the given fabric (nil: none).
func newSoakServer(push transport.Notifier, obsv *obs.Observer) (*server.Server, error) {
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
	if err := srv.CreateApp(fleetApp.store()); err != nil {
		return nil, err
	}
	return srv, nil
}

// durableNode is the recipe every soak opens its durable servers from.
type durableNode struct {
	// segmentBytes sizes WAL segments (0: the WAL default). Soaks keep
	// them small so kills and compaction land across rotations.
	segmentBytes int64
	// checkpoint is the background snapshot cadence. The virtual-time
	// soaks set an hour: their checkpoints are seeded driver events and
	// the loop must never fire on its own mid-run.
	checkpoint time.Duration
	// maxLag is the replica staleness bound (0: serve regardless).
	maxLag   time.Duration
	push     transport.Notifier
	observer *obs.Observer
}

// open boots — or recovers, from whatever a previous incarnation left in
// dir — a durable server in the given role.
func (d durableNode) open(dir string, asLeader bool) (*store.DurableBackend, *server.Server, error) {
	backend := store.NewDurableBackend(dir,
		store.WithSegmentBytes(d.segmentBytes),
		store.WithSnapshotInterval(d.checkpoint),
	)
	srv, err := server.New(server.Config{
		Storage:       backend,
		Now:           func() time.Time { return soakEpoch },
		Catalog:       server.DefaultCatalog(),
		MaxReplicaLag: d.maxLag,
		Push:          d.push,
		Observer:      d.observer,
	})
	if err != nil {
		return nil, nil, err
	}
	if asLeader {
		err = srv.Open()
	} else {
		err = srv.OpenAsReplica()
	}
	if err != nil {
		backend.Kill()
		return nil, nil, fmt.Errorf("chaos: recovering %s: %w", dir, err)
	}
	return backend, srv, nil
}

// newSoakFrontend builds one simulated phone parked at place for the whole
// experiment, with its frontend sending through sender. seed drives the
// sensor noise; outbox is the flush backoff (short, so the outbox — not
// the sender's own retries — is what absorbs the faults).
func newSoakFrontend(id, token string, place *world.Place, seed int64, sender frontend.Sender,
	outbox transport.Retry, obsv *obs.Observer) (*frontend.Frontend, error) {
	phone, err := device.New(device.Config{
		ID:    id,
		Token: token,
		Traj:  device.Trajectory{Place: place, Enter: soakEpoch, Leave: soakEpoch.Add(3 * time.Hour)},
		Seed:  seed,
	})
	if err != nil {
		return nil, err
	}
	return frontend.New(phone, sender, frontend.WithOutboxRetry(outbox), frontend.WithObserver(obsv))
}

// jitterSeed is the transport.Retry seed of the run's i-th retrying
// component (the shared client is 0, phone i is i): seed + i, except that
// a sum landing on 0 — which Retry reads as "not seeded, use the wall
// clock" and would make the run unreplayable — becomes seed-1, a value no
// other i can produce.
func jitterSeed(seed int64, i int) int64 {
	if s := seed + int64(i); s != 0 {
		return s
	}
	return seed - 1
}

// codecRoundTrip pushes a message through the full wire codec both ways,
// so the virtual-time soaks exercise the same framing a network transport
// would.
func codecRoundTrip(h transport.Handler, m wire.Message) (wire.Message, error) {
	frame, err := wire.Encode(m)
	if err != nil {
		return nil, err
	}
	req, err := wire.Decode(frame)
	if err != nil {
		return nil, err
	}
	resp, err := h(context.Background(), req)
	if err != nil {
		return nil, err
	}
	out, err := wire.Encode(resp)
	if err != nil {
		return nil, err
	}
	return wire.Decode(out)
}
