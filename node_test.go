package sor_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sor"
	"sor/internal/cluster"
	"sor/internal/replica"
	"sor/internal/wire"
)

// nodeTestCatalog is a one-feature catalog so uploads fold without the
// full paper catalog.
func nodeTestCatalog() map[string][]sor.Feature {
	return map[string][]sor.Feature{
		"cafe": {{Name: "temperature", Unit: "°F",
			Default: sor.Preference{Kind: sor.PrefValue, Value: 72}}},
		"trail": {{Name: "temperature", Unit: "°F",
			Default: sor.Preference{Kind: sor.PrefValue, Value: 60}}},
	}
}

func nodeTestApp(id, category string, lat float64) sor.Application {
	return sor.Application{
		ID:        id,
		Creator:   "node-test",
		Category:  category,
		Place:     id + "-place",
		Lat:       lat,
		Lon:       -76.0,
		RadiusM:   500,
		Script:    "return 1",
		PeriodSec: 3600,
	}
}

// nodeParticipate joins user to app through a node's wire endpoint and
// returns the scheduled task ID.
func nodeParticipate(t *testing.T, c *sor.Client, app, user string, lat float64) string {
	t.Helper()
	resp, err := c.Send(context.Background(), &wire.Participate{
		UserID: user,
		Token:  "tok-" + user,
		AppID:  app,
		Loc:    wire.Location{Lat: lat, Lon: -76.0},
		Budget: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := resp.(*wire.Ack)
	if !ok || !ack.OK {
		t.Fatalf("participate %s refused: %+v", user, resp)
	}
	inner, err := wire.Decode(ack.Payload)
	if err != nil {
		t.Fatal(err)
	}
	sched, ok := inner.(*wire.Schedule)
	if !ok {
		t.Fatalf("participate payload was %s", inner.Type())
	}
	return sched.TaskID
}

func nodeUpload(t *testing.T, c *sor.Client, task, app, user string, seq int, temp float64) {
	t.Helper()
	at := time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC).
		Add(time.Duration(seq) * 10 * time.Second).UnixMilli()
	resp, err := c.Send(context.Background(), &wire.DataUpload{
		TaskID: task,
		AppID:  app,
		UserID: user,
		Series: []wire.SensorSeries{{Sensor: "temperature", Samples: []wire.SensorSample{
			{AtUnixMilli: at, WindowMilli: 5000, Readings: []float64{temp, temp + 0.2}},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := resp.(*wire.Ack); !ok || !ack.OK {
		t.Fatalf("upload %d refused: %+v", seq, resp)
	}
}

// waitFor polls until cond or the deadline.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestStartNodeReplicaFollowsAndResyncs runs the whole node lifecycle
// through the declarative facade: a durable leader and a streaming
// replica, a compaction that orphans the replica, the automatic
// snapshot-ship resync on its next start (no operator dir surgery), and
// a Demote/Promote failover.
func TestStartNodeReplicaFollowsAndResyncs(t *testing.T) {
	ctx := context.Background()
	dirA, dirB := t.TempDir(), t.TempDir()

	leader, err := sor.StartNode(ctx, sor.Node{
		Name:    "node-a",
		Role:    sor.RoleLeader,
		Listen:  "127.0.0.1:0",
		Data:    dirA,
		Catalog: nodeTestCatalog(),
		DurableOptions: []sor.DurableOption{
			sor.WithWALSegmentBytes(256),
			sor.WithSnapshotInterval(time.Hour),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = leader.Close() }()
	leaderURL := "http://" + leader.Addr()

	if err := leader.Server().CreateApp(nodeTestApp("cafe-1", "cafe", 43.0)); err != nil {
		t.Fatal(err)
	}
	lc, err := sor.NewClient(leaderURL, sor.WithClientRetry(sor.Retry{Attempts: 1, Base: time.Millisecond, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	task := nodeParticipate(t, lc, "cafe-1", "alice", 43.0)
	for i := 0; i < 3; i++ {
		nodeUpload(t, lc, task, "cafe-1", "alice", i, 70+float64(i))
	}

	replicaSpec := sor.Node{
		Name:          "node-b",
		Role:          sor.RoleReplica,
		Listen:        "127.0.0.1:0",
		Data:          dirB,
		Leader:        leaderURL,
		PullInterval:  2 * time.Millisecond,
		MaxReplicaLag: 0,
		Catalog:       nodeTestCatalog(),
	}
	rep, err := sor.StartNode(ctx, replicaSpec)
	if err != nil {
		t.Fatal(err)
	}
	leaderLSN := leader.Server().DB().AppliedLSN()
	waitFor(t, 5*time.Second, "replica catch-up", func() bool {
		srv := rep.Server()
		return srv != nil && srv.DB().AppliedLSN() >= leaderLSN
	})

	// Replica refuses writes retryably; the replicated state serves reads.
	rc, err := sor.NewClient("http://" + rep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wresp, err := rc.Send(ctx, &wire.Participate{
		UserID: "bob", Token: "tok-bob", AppID: "cafe-1",
		Loc: wire.Location{Lat: 43.0, Lon: -76.0}, Budget: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := wresp.(*wire.Ack); !ok || ack.OK || ack.Code != 503 {
		t.Fatalf("replica accepted a write: %+v", wresp)
	}

	// Orphan the replica: drop its retention pin, grow the log past it,
	// compact. Its next start must resync automatically. A pull in
	// flight at Close can re-register the follower on the leader after a
	// single forget, so retry until the follower table stays empty.
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "follower forgotten", func() bool {
		leader.ForgetFollower("node-b")
		var st replica.Status
		hr, err := http.Get(leaderURL + replica.DebugPath)
		if err != nil {
			return false
		}
		defer func() { _ = hr.Body.Close() }()
		if err := json.NewDecoder(hr.Body).Decode(&st); err != nil {
			return false
		}
		return len(st.Followers) == 0
	})
	for i := 3; i < 9; i++ {
		nodeUpload(t, lc, task, "cafe-1", "alice", i, 70+float64(i))
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	rep2, err := sor.StartNode(ctx, replicaSpec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rep2.Close() }()
	waitFor(t, 5*time.Second, "automatic resync", func() bool {
		if err := rep2.Err(); err != nil {
			t.Fatalf("replication supervision died: %v", err)
		}
		return rep2.Resyncs() >= 1
	})
	// A leader-side rank folds the uploads into features, which ship to
	// the replica through the log like every other mutation.
	if _, err := lc.Send(ctx, &wire.RankRequest{UserID: "alice", Category: "cafe"}); err != nil {
		t.Fatal(err)
	}
	leaderLSN = leader.Server().DB().AppliedLSN()
	waitFor(t, 5*time.Second, "post-resync catch-up", func() bool {
		srv := rep2.Server()
		return srv != nil && srv.DB().AppliedLSN() >= leaderLSN
	})

	// The swapped-in dispatcher serves rank reads from the resynced state.
	rc2, err := sor.NewClient("http://" + rep2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	rresp, err := rc2.Send(ctx, &wire.RankRequest{UserID: "alice", Category: "cafe"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rresp.(*wire.RankResponse); !ok {
		t.Fatalf("post-resync rank answered %+v, want a rank response", rresp)
	}

	// Planned failover through the facade: old leader freezes, standby
	// promotes, writes land on the new leader.
	if err := leader.Demote(); err != nil {
		t.Fatal(err)
	}
	if err := rep2.Promote(); err != nil {
		t.Fatal(err)
	}
	nodeUpload(t, rc2, task, "cafe-1", "alice", 9, 79)
}

// TestStartNodeRouterRoutes stands up a 2-shard cluster purely from
// Node specs — members self-register in the shared map file — and
// checks the router forwards by app category and serves its status.
func TestStartNodeRouterRoutes(t *testing.T) {
	ctx := context.Background()
	mapPath := filepath.Join(t.TempDir(), "cluster.json")

	var leaders []*sor.RunningNode
	for i, shard := range []string{"shard-a", "shard-b"} {
		n, err := sor.StartNode(ctx, sor.Node{
			Name:    fmt.Sprintf("%s-1", shard),
			Role:    sor.RoleLeader,
			Listen:  "127.0.0.1:0",
			Data:    t.TempDir(),
			Cluster: mapPath,
			Shard:   shard,
			Catalog: nodeTestCatalog(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = n.Close() }()
		leaders = append(leaders, n)
		app, lat := "cafe-1", 43.0
		if i == 1 {
			app, lat = "trail-1", 44.0
		}
		if err := n.Server().CreateApp(nodeTestApp(app, app[:len(app)-2], lat)); err != nil {
			t.Fatal(err)
		}
	}

	// Route both categories, pinning one apart if rendezvous co-locates
	// them (the map is authored out-of-band, as sorctl would).
	reg, err := cluster.LoadRegistry(mapPath)
	if err != nil {
		t.Fatal(err)
	}
	reg.RegisterApp("cafe-1", "cafe")
	reg.RegisterApp("trail-1", "trail")
	reg.PinKey("cafe", "shard-a")
	reg.PinKey("trail", "shard-b")

	router, err := sor.StartNode(ctx, sor.Node{
		Name:    "router-1",
		Role:    sor.RoleRouter,
		Listen:  "127.0.0.1:0",
		Cluster: mapPath,
		Retry:   sor.Retry{Attempts: 2, Base: -1, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = router.Close() }()

	c, err := sor.NewClient("http://" + router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	taskCafe := nodeParticipate(t, c, "cafe-1", "alice", 43.0)
	taskTrail := nodeParticipate(t, c, "trail-1", "bob", 44.0)
	nodeUpload(t, c, taskCafe, "cafe-1", "alice", 0, 71)
	nodeUpload(t, c, taskTrail, "trail-1", "bob", 0, 58)

	// Each shard leader stored exactly its own category's upload.
	for i, want := range []string{"cafe-1", "trail-1"} {
		ups := leaders[i].Server().DB().AllUploads()
		if len(ups) != 1 || ups[0].AppID != want {
			t.Fatalf("shard %d uploads = %+v, want one for %s", i, ups, want)
		}
	}

	// Rank queries route to the category's home shard through the router.
	resp, err := c.Send(ctx, &wire.RankRequest{UserID: "alice", Category: "cafe"})
	if err != nil {
		t.Fatal(err)
	}
	rank, ok := resp.(*wire.RankResponse)
	if !ok || len(rank.Ranked) == 0 {
		t.Fatalf("routed rank = %+v, want ranked places", resp)
	}

	// The router serves the cluster map on its debug surface.
	st := struct {
		Router string `json:"router"`
		Shards []struct {
			Name string `json:"name"`
		} `json:"shards"`
	}{}
	hresp, err := http.Get("http://" + router.Addr() + sor.ClusterDebugPath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hresp.Body.Close() }()
	if err := json.NewDecoder(hresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Router != "router-1" || len(st.Shards) != 2 {
		t.Fatalf("cluster status = %+v", st)
	}
}

// TestStartNodeSurvivesTornLedger: the follower-ack ledger a power cut
// left empty or garbage must not keep a healthy durable leader from
// starting. StartNode discards it, counts it, and a replica attaches and
// catches up as on a fresh leader.
func TestStartNodeSurvivesTornLedger(t *testing.T) {
	for name, content := range map[string]string{"empty": "", "garbage": "{\"followers\":\x00\xff"} {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "replica_state.json"), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			obsv := sor.NewObserver()
			leader, err := sor.StartNode(ctx, sor.Node{
				Name:     "node-a",
				Role:     sor.RoleLeader,
				Listen:   "127.0.0.1:0",
				Data:     dir,
				Catalog:  nodeTestCatalog(),
				Observer: obsv,
			})
			if err != nil {
				t.Fatalf("StartNode over a %s ledger: %v", name, err)
			}
			defer func() { _ = leader.Close() }()
			if got := obsv.Metrics().Counter("sor_replica_state_discarded_total").Value(); got != 1 {
				t.Fatalf("sor_replica_state_discarded_total = %d, want 1", got)
			}
			if err := leader.Server().CreateApp(nodeTestApp("cafe-1", "cafe", 43.0)); err != nil {
				t.Fatal(err)
			}
			rep, err := sor.StartNode(ctx, sor.Node{
				Name:         "node-b",
				Role:         sor.RoleReplica,
				Listen:       "127.0.0.1:0",
				Data:         t.TempDir(),
				Leader:       "http://" + leader.Addr(),
				PullInterval: 2 * time.Millisecond,
				Catalog:      nodeTestCatalog(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = rep.Close() }()
			want := leader.Server().DB().AppliedLSN()
			waitFor(t, 5*time.Second, "replica catch-up", func() bool {
				srv := rep.Server()
				return srv != nil && srv.DB().AppliedLSN() >= want
			})
		})
	}
}

// TestCloseWaitsForTheProcessingLoop: a leader's Close waits for its
// processing loop. A gracefully closed leader folds what is pending before
// its storage closes; a killed one folds nothing — a crash runs no code, so
// no fold lands in the killed store, when Close returns or after.
func TestCloseWaitsForTheProcessingLoop(t *testing.T) {
	const pending = 50
	for _, kill := range []bool{true, false} {
		name := map[bool]string{true: "killed", false: "graceful"}[kill]
		t.Run(name, func(t *testing.T) {
			leader, err := sor.StartNode(context.Background(), sor.Node{
				Name:    "node-a",
				Role:    sor.RoleLeader,
				Listen:  "127.0.0.1:0",
				Data:    t.TempDir(),
				Catalog: nodeTestCatalog(),
			})
			if err != nil {
				t.Fatal(err)
			}
			srv := leader.Server()
			if err := srv.CreateApp(nodeTestApp("cafe-1", "cafe", 43.0)); err != nil {
				t.Fatal(err)
			}
			c, err := sor.NewClient("http://" + leader.Addr())
			if err != nil {
				t.Fatal(err)
			}
			task := nodeParticipate(t, c, "cafe-1", "alice", 43.0)
			for i := 0; i < pending; i++ {
				nodeUpload(t, c, task, "cafe-1", "alice", i, 70+float64(i%5))
			}
			if got := srv.DB().PendingUploads(); got != pending {
				t.Fatalf("%d uploads pending before Close, want %d", got, pending)
			}
			if kill {
				srv.Kill()
			}
			if err := leader.Close(); err != nil && !kill {
				t.Fatal(err)
			}
			want := pending
			if kill {
				want = 0
			}
			if processed, _ := srv.Processor().Stats(); processed != want {
				t.Fatalf("%s leader: %d uploads folded when Close returned, want %d", name, processed, want)
			}
			time.Sleep(200 * time.Millisecond)
			if processed, _ := srv.Processor().Stats(); processed != want {
				t.Fatalf("%s leader: %d uploads folded 200 ms after Close, want %d", name, processed, want)
			}
		})
	}
}
