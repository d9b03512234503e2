// Cluster benchmarks: what the scale-out work buys. These back
// BENCH_cluster.json (see DESIGN.md "Cluster routing & resync").
//
// BenchmarkClusterRoutedIngest compares ingest throughput on one
// durable leader against two category-sharded durable leaders behind
// the cluster router, under wal.SyncEach — every report acked only
// after its own flush — where a leader's throughput is bounded by one
// serialized commit pipeline no matter how many uploaders it has.
// Sharding doubles the pipelines, which only pays when each shard owns
// its commit device, as deployed shards do; this benchmark host is one
// core and one ext4 volume, so the headline "dedicated-disk-model"
// variants put the data on tmpfs and model each shard's device as a
// fixed 250us sync wait inside the WAL (store.WithWALSyncWait). The
// sync-each variants are the same discipline on the real shared
// volume (its two-stream sync overlap caps near 1.5x), and the
// sync-grouped variants are the honest control where sharding buys
// nothing: group commit already amortizes every concurrent uploader
// behind one fsync, so splitting the pool is amortization-neutral.
//
// BenchmarkClusterReplicaReadScaling measures aggregate rank-query
// throughput against a fixed reader pool spread over 1, 2, then 4
// caught-up replicas (plus the leader itself as the 0-replica
// baseline) — the read-capacity story for adding standbys to a shard.
//
//	go test -run=NONE -bench=ClusterRoutedIngest -benchtime=2s .
//	go test -run=NONE -bench=ClusterReplicaRead -benchtime=2s .
package sor_test

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"sor/internal/cluster"
	"sor/internal/ranking"
	"sor/internal/replica"
	"sor/internal/server"
	"sor/internal/store"
	"sor/internal/transport"
	"sor/internal/wal"
	"sor/internal/wire"
)

// The two-shard bench topology: one category per shard, pinned so the
// split is deterministic rather than at the mercy of rendezvous
// placement.
const (
	clusterShardA = "shard-a"
	clusterShardB = "shard-b"
	clusterCatA   = "bench-coffee"
	clusterCatB   = "bench-trail"
)

// handlerSender adapts an in-process transport.Handler to the Sender
// interface the router dials and the follower pulls through, so the
// benchmark measures routing and replication logic, not sockets.
type handlerSender struct{ h transport.Handler }

func (s handlerSender) Send(ctx context.Context, m wire.Message) (wire.Message, error) {
	return s.h(ctx, m)
}

func clusterBenchCatalog() map[string][]ranking.Feature {
	feats := []ranking.Feature{
		{Name: "temperature", Unit: "°F",
			Default: ranking.Preference{Kind: ranking.PrefValue, Value: 73}},
		{Name: "noise", Unit: "",
			Default: ranking.Preference{Kind: ranking.PrefMin}},
	}
	return map[string][]ranking.Feature{clusterCatA: feats, clusterCatB: feats}
}

// clusterBenchApps is the four-app workload, alternating categories so
// consecutive users land on alternating shards and the 8 uploader
// workers split 4/4 across the two leaders.
func clusterBenchApps() []store.Application {
	var apps []store.Application
	for i := 0; i < 4; i++ {
		cat := clusterCatA
		if i%2 == 1 {
			cat = clusterCatB
		}
		apps = append(apps, store.Application{
			ID:        fmt.Sprintf("bench-%s-%d", cat, i/2),
			Creator:   "bench",
			Category:  cat,
			Place:     fmt.Sprintf("bench-place-%d", i),
			Lat:       43.0 + float64(i),
			Lon:       -76.0,
			RadiusM:   500,
			Script:    "return 1",
			PeriodSec: benchPeriodSec,
		})
	}
	return apps
}

// clusterBenchBackends builds one WAL/store backend per leader in the
// topology under test; the routed-ingest comparison runs each topology
// over the same backend recipe so the only variable is the number of
// commit pipelines.
type clusterBenchBackends func(b *testing.B) *store.DurableBackend

func diskBackend(sync wal.SyncPolicy) clusterBenchBackends {
	return func(b *testing.B) *store.DurableBackend {
		return store.NewDurableBackend(b.TempDir(), store.WithWALSync(sync))
	}
}

// modeledDiskBackend stands in for the deployment topology this box
// cannot host: every shard leader owning its own commit device. Data
// lives on tmpfs (so the benchmark host's one shared ext4 volume stays
// out of the measurement) and each acked record waits out a fixed
// 250us device service time inside the WAL — the sync-each discipline
// with the disk modeled instead of shared.
func modeledDiskBackend() clusterBenchBackends {
	return func(b *testing.B) *store.DurableBackend {
		dir, err := os.MkdirTemp("/dev/shm", "sor-bench-")
		if err != nil {
			dir = b.TempDir() // no tmpfs: the model rides the real disk
		} else {
			b.Cleanup(func() { os.RemoveAll(dir) })
		}
		return store.NewDurableBackend(dir,
			store.WithWALSync(wal.SyncEach),
			store.WithWALSyncWait(250*time.Microsecond),
		)
	}
}

// newDurableLeader opens a durable server over mk's backend.
func newDurableLeader(b *testing.B, start time.Time, mk clusterBenchBackends) (*server.Server, *store.DurableBackend) {
	b.Helper()
	backend := mk(b)
	srv, err := server.New(server.Config{
		Storage:  backend,
		Now:      func() time.Time { return start },
		Catalog:  clusterBenchCatalog(),
		Observer: benchObserver(),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Open(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Close() })
	return srv, backend
}

// joinClusterUsers participates users through handle (the router on the
// sharded side, so placement itself is exercised) and records the task
// IDs the benchmark uploads against. User u joins apps[u%len(apps)].
func joinClusterUsers(b *testing.B, env *benchEnv, users int) {
	b.Helper()
	for u := 0; u < users; u++ {
		userID := fmt.Sprintf("bench-user-%d", u)
		resp, err := env.handle(&wire.Participate{
			UserID: userID,
			Token:  "bench-token-" + userID,
			AppID:  env.appIDs[u%len(env.appIDs)],
			Loc:    wire.Location{Lat: 43.0 + float64(u%len(env.appIDs)), Lon: -76.0},
			Budget: 17,
		})
		if err != nil {
			b.Fatal(err)
		}
		ack, ok := resp.(*wire.Ack)
		if !ok || !ack.OK {
			b.Fatalf("participate %s refused: %+v", userID, resp)
		}
		inner, err := wire.Decode(ack.Payload)
		if err != nil {
			b.Fatal(err)
		}
		sched, ok := inner.(*wire.Schedule)
		if !ok {
			b.Fatalf("participate payload was %s", inner.Type())
		}
		env.userIDs = append(env.userIDs, userID)
		env.taskIDs = append(env.taskIDs, sched.TaskID)
	}
}

// newSingleLeaderClusterEnv is the baseline: one durable leader
// holding both categories' apps, driven directly through its handler.
func newSingleLeaderClusterEnv(b *testing.B, mk clusterBenchBackends) *benchEnv {
	b.Helper()
	start := time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC)
	srv, _ := newDurableLeader(b, start, mk)
	env := &benchEnv{srv: srv, start: start}
	h := srv.Handler()
	env.handle = func(m wire.Message) (wire.Message, error) {
		return h(context.Background(), m)
	}
	for _, app := range clusterBenchApps() {
		if err := srv.CreateApp(app); err != nil {
			b.Fatal(err)
		}
		env.appIDs = append(env.appIDs, app.ID)
	}
	joinClusterUsers(b, env, ingestWorkers)
	return env
}

// newRoutedClusterEnv is the sharded side: two durable leaders, one
// category each, a registry pinning each category to its shard, and a
// router whose handler the benchmark drives exactly as the baseline
// drives the single leader's.
func newRoutedClusterEnv(b *testing.B, mk clusterBenchBackends) (*benchEnv, [2]*server.Server) {
	b.Helper()
	start := time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC)
	var leaders [2]*server.Server
	senders := map[string]cluster.Sender{}
	reg := cluster.NewRegistry()
	for i, shard := range []string{clusterShardA, clusterShardB} {
		srv, _ := newDurableLeader(b, start, mk)
		leaders[i] = srv
		reg.AddShard(shard)
		if err := reg.AddMember(cluster.Member{
			Name:  shard + "-0",
			Shard: shard,
			Role:  cluster.RoleLeader,
			Addr:  "mem://" + shard,
		}); err != nil {
			b.Fatal(err)
		}
		senders["mem://"+shard] = handlerSender{srv.Handler()}
	}
	reg.PinKey(clusterCatA, clusterShardA)
	reg.PinKey(clusterCatB, clusterShardB)
	rt, err := cluster.NewRouter("bench-router", reg, func(addr string) (cluster.Sender, error) {
		s, ok := senders[addr]
		if !ok {
			return nil, fmt.Errorf("bench: no route to %s", addr)
		}
		return s, nil
	})
	if err != nil {
		b.Fatal(err)
	}

	env := &benchEnv{srv: leaders[0], start: start}
	h := rt.Handler()
	env.handle = func(m wire.Message) (wire.Message, error) {
		return h(context.Background(), m)
	}
	for _, app := range clusterBenchApps() {
		shard := 0
		if app.Category == clusterCatB {
			shard = 1
		}
		if err := leaders[shard].CreateApp(app); err != nil {
			b.Fatal(err)
		}
		reg.RegisterApp(app.ID, app.Category)
		env.appIDs = append(env.appIDs, app.ID)
	}
	joinClusterUsers(b, env, ingestWorkers)
	return env, leaders
}

// BenchmarkClusterRoutedIngest is the headline BENCH_cluster.json
// number: ns per acked report with 8 uploader workers, one durable
// leader vs two category-sharded durable leaders behind the router,
// under each WAL sync policy. b.N counts reports on both sides, so the
// speedup is the ratio of the two ns/op figures; the bar is routed
// >= 1.6x single under sync-each, the fsync-pipeline-bound regime.
func BenchmarkClusterRoutedIngest(b *testing.B) {
	upload := func(env *benchEnv) func(w, seq int) error {
		return func(w, seq int) error {
			resp, err := env.handle(env.report(w, int64(seq)))
			if err != nil {
				return err
			}
			if ack, ok := resp.(*wire.Ack); !ok || !ack.OK {
				return fmt.Errorf("upload refused: %+v", resp)
			}
			return nil
		}
	}
	for _, pc := range []struct {
		name string
		mk   clusterBenchBackends
	}{
		{"dedicated-disk-model", modeledDiskBackend()},
		{"sync-each", diskBackend(wal.SyncEach)},
		{"sync-grouped", diskBackend(wal.SyncGrouped)},
	} {
		b.Run(pc.name+"/single-leader", func(b *testing.B) {
			env := newSingleLeaderClusterEnv(b, pc.mk)
			b.ResetTimer()
			benchUploaders(b, ingestWorkers, b.N, upload(env))
			b.StopTimer()
			reportIngested(b, env)
		})
		b.Run(pc.name+"/routed-2-shards", func(b *testing.B) {
			env, leaders := newRoutedClusterEnv(b, pc.mk)
			b.ResetTimer()
			benchUploaders(b, ingestWorkers, b.N, upload(env))
			b.StopTimer()
			// Both shards must have taken real load for the comparison
			// to mean anything.
			for i, srv := range leaders {
				if pending := srv.DB().PendingUploads(); pending == 0 && b.N > 1 {
					b.Fatalf("shard %d ingested nothing over %d reports", i, b.N)
				}
			}
		})
	}
}

// clusterReadReplicas stands up a durable leader carrying folded
// feature data and n durable replicas caught up over the WAL-shipping
// protocol, returning every node's rank-serving handler (leader first).
func clusterReadReplicas(b *testing.B, n int) []transport.Handler {
	b.Helper()
	start := time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC)
	srv, backend := newDurableLeader(b, start, diskBackend(wal.SyncOS))
	env := &benchEnv{srv: srv, start: start}
	h := srv.Handler()
	env.handle = func(m wire.Message) (wire.Message, error) {
		return h(context.Background(), m)
	}
	for _, app := range clusterBenchApps() {
		if err := srv.CreateApp(app); err != nil {
			b.Fatal(err)
		}
		env.appIDs = append(env.appIDs, app.ID)
	}
	joinClusterUsers(b, env, ingestWorkers)
	// Land a fixed corpus and fold it so every node serves identical,
	// fully-processed feature state and ns/op measures the read path.
	for u := 0; u < ingestWorkers; u++ {
		for s := 0; s < 32; s++ {
			resp, err := env.handle(env.report(u, int64(s)))
			if err != nil {
				b.Fatal(err)
			}
			if ack, ok := resp.(*wire.Ack); !ok || !ack.OK {
				b.Fatalf("upload refused: %+v", resp)
			}
		}
	}
	srv.Processor().Process()

	ld, err := replica.NewLeader(backend.WAL(),
		replica.WithFollowerTTL(24*time.Hour),
	)
	if err != nil {
		b.Fatal(err)
	}
	leaderHandler := replica.Handler(ld, srv.Handler())

	handlers := []transport.Handler{srv.Handler()}
	for i := 0; i < n; i++ {
		rbackend := store.NewDurableBackend(b.TempDir())
		rsrv, err := server.New(server.Config{
			Storage:  rbackend,
			Now:      func() time.Time { return start },
			Catalog:  clusterBenchCatalog(),
			Observer: benchObserver(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := rsrv.OpenAsReplica(); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = rsrv.Close() })
		fol := replica.NewFollower(fmt.Sprintf("bench-replica-%d", i),
			rsrv.DB(), handlerSender{leaderHandler})
		for {
			got, err := fol.PullOnce(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if got == 0 {
				break
			}
		}
		handlers = append(handlers, rsrv.Handler())
	}
	return handlers
}

// BenchmarkClusterReplicaReadScaling drives 8 reader workers issuing
// rank queries round-robin over the leader alone ("leader") and then
// over 1, 2, and 4 caught-up replicas — the capacity curve for
// offloading a shard's reads onto standbys. b.N counts rank queries
// pool-wide.
func BenchmarkClusterReplicaReadScaling(b *testing.B) {
	const readWorkers = ingestWorkers
	cats := [2]string{clusterCatA, clusterCatB}
	rank := func(targets []transport.Handler) func(w, seq int) error {
		return func(w, seq int) error {
			h := targets[seq%len(targets)]
			resp, err := h(context.Background(), &wire.RankRequest{
				UserID:   "bench-ranker",
				Category: cats[seq%2],
			})
			if err != nil {
				return err
			}
			if _, ok := resp.(*wire.RankResponse); !ok {
				return fmt.Errorf("rank refused: %+v", resp)
			}
			return nil
		}
	}
	nodes := clusterReadReplicas(b, 4) // leader + 4 replicas
	for _, bc := range []struct {
		name    string
		targets []transport.Handler
	}{
		{"leader", nodes[:1]},
		{"replicas-1", nodes[1:2]},
		{"replicas-2", nodes[1:3]},
		{"replicas-4", nodes[1:5]},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ResetTimer()
			benchUploaders(b, readWorkers, b.N, rank(bc.targets))
		})
	}
}
