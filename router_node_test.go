package sor_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sor"
	"sor/internal/cluster"
	"sor/internal/transport/session"
	"sor/internal/wire"
)

// startTestNode starts a node that Close-s itself when the test ends
// (closing a node twice is harmless).
func startTestNode(t *testing.T, spec sor.Node) *sor.RunningNode {
	t.Helper()
	if spec.Catalog == nil && spec.Role != sor.RoleRouter {
		spec.Catalog = nodeTestCatalog()
	}
	n, err := sor.StartNode(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// startTestRouter starts a router over mapPath with retry envelope r.
func startTestRouter(t *testing.T, mapPath string, r sor.Retry, obsv *sor.Observer) *sor.RunningNode {
	t.Helper()
	return startTestNode(t, sor.Node{
		Name:     "router-1",
		Role:     sor.RoleRouter,
		Listen:   "127.0.0.1:0",
		Cluster:  mapPath,
		Retry:    r,
		Observer: obsv,
	})
}

// pinCafe routes app cafe-1 and category cafe to shard-a in the map.
func pinCafe(t *testing.T, mapPath string) {
	t.Helper()
	reg, err := cluster.LoadRegistry(mapPath)
	if err != nil {
		t.Fatal(err)
	}
	reg.RegisterApp("cafe-1", "cafe")
	reg.PinKey("cafe", "shard-a")
}

// phoneClient makes exactly one attempt per send, so whatever recovery a
// routed request shows is the router's own.
func phoneClient(t *testing.T, router *sor.RunningNode) *sor.Client {
	t.Helper()
	c, err := sor.NewClient("http://"+router.Addr(), sor.WithClientRetry(sor.Retry{Attempts: -1}))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func cafeUpload(task string, seq int) *wire.DataUpload {
	at := time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC).
		Add(time.Duration(seq) * 10 * time.Second).UnixMilli()
	return &wire.DataUpload{
		TaskID: task, AppID: "cafe-1", UserID: "alice",
		Series: []wire.SensorSeries{{Sensor: "temperature", Samples: []wire.SensorSample{
			{AtUnixMilli: at, WindowMilli: 5000, Readings: []float64{70, 70.2}},
		}}},
	}
}

// acked fails unless the send was answered with an OK ack.
func acked(t *testing.T, what string, resp wire.Message, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if ack, ok := resp.(*wire.Ack); !ok || !ack.OK {
		t.Fatalf("%s answered %+v", what, resp)
	}
}

// TestStartNodeRouterFailover: a router forward has one retry layer —
// the router's own retry, backoff and leader discovery. A member session
// makes exactly one attempt per forward, and the router alone carries a
// phone's request across a leader restart or a planned failover.
func TestStartNodeRouterFailover(t *testing.T) {
	t.Run("one-attempt-per-retry", func(t *testing.T) {
		// The shard's only member accepts connections and hangs up at
		// once: each forward attempt costs exactly one connection.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ln.Close() }()
		var accepts atomic.Int64
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				accepts.Add(1)
				_ = conn.Close()
			}
		}()
		mapPath := filepath.Join(t.TempDir(), "cluster.json")
		reg, err := cluster.LoadRegistry(mapPath)
		if err != nil {
			t.Fatal(err)
		}
		reg.AddShard("shard-a")
		if err := reg.AddMember(cluster.Member{Name: "cafe-a", Shard: "shard-a",
			Role: cluster.RoleLeader, Addr: "http://" + ln.Addr().String()}); err != nil {
			t.Fatal(err)
		}
		pinCafe(t, mapPath)
		obsv := sor.NewObserver()
		router := startTestRouter(t, mapPath, sor.Retry{Attempts: 2, Base: -1, Seed: 1}, obsv)

		resp, err := phoneClient(t, router).Send(context.Background(), &wire.RankRequest{UserID: "alice", Category: "cafe"})
		if err != nil {
			t.Fatal(err)
		}
		if ack, ok := resp.(*wire.Ack); !ok || ack.OK {
			t.Fatalf("a dead shard answered %+v, want a refusal", resp)
		}
		waitFor(t, 5*time.Second, "three connections", func() bool { return accepts.Load() >= 3 })
		time.Sleep(20 * time.Millisecond)
		if n := accepts.Load(); n != 3 {
			t.Fatalf("1 attempt + 2 router retries made %d connections, want 3", n)
		}
		if r := obsv.Metrics().Counter("sor_cluster_route_retries_total").Value(); r != 2 {
			t.Fatalf("router counted %d retries, want 2", r)
		}
	})

	t.Run("leader-restart", func(t *testing.T) {
		mapPath := filepath.Join(t.TempDir(), "cluster.json")
		spec := sor.Node{Name: "cafe-a", Listen: "127.0.0.1:0", Data: t.TempDir(),
			Cluster: mapPath, Shard: "shard-a", Catalog: nodeTestCatalog()}
		leader := startTestNode(t, spec)
		if err := leader.Server().CreateApp(nodeTestApp("cafe-1", "cafe", 43.0)); err != nil {
			t.Fatal(err)
		}
		pinCafe(t, mapPath)
		obsv := sor.NewObserver()
		router := startTestRouter(t, mapPath, sor.Retry{Attempts: 200, Base: 2 * time.Millisecond, Cap: 10 * time.Millisecond, Seed: 1}, obsv)
		c := phoneClient(t, router)
		task := nodeParticipate(t, c, "cafe-1", "alice", 43.0)
		resp, err := c.Send(context.Background(), cafeUpload(task, 0))
		acked(t, "upload before the kill", resp, err)

		// Kill the leader, send while it is down, restart it on the same
		// port once the router is retrying.
		spec.Listen = leader.Addr()
		leader.Server().Kill()
		_ = leader.Close()
		retries := obsv.Metrics().Counter("sor_cluster_route_retries_total")
		before := retries.Value()
		type result struct {
			resp wire.Message
			err  error
		}
		done := make(chan result, 1)
		go func() {
			resp, err := c.Send(context.Background(), cafeUpload(task, 1))
			done <- result{resp, err}
		}()
		waitFor(t, 5*time.Second, "a router retry", func() bool { return retries.Value() > before })
		restarted := startTestNode(t, spec)
		r := <-done
		acked(t, "upload across the restart", r.resp, r.err)
		if got := restarted.Server().DB().UploadCount(); got != 2 {
			t.Fatalf("restarted leader holds %d uploads, want 2", got)
		}
	})

	t.Run("demote-promote", func(t *testing.T) {
		mapPath := filepath.Join(t.TempDir(), "cluster.json")
		leader := startTestNode(t, sor.Node{Name: "cafe-a", Listen: "127.0.0.1:0", Data: t.TempDir(),
			Cluster: mapPath, Shard: "shard-a"})
		if err := leader.Server().CreateApp(nodeTestApp("cafe-1", "cafe", 43.0)); err != nil {
			t.Fatal(err)
		}
		standby := startTestNode(t, sor.Node{Name: "cafe-b", Role: sor.RoleReplica, Listen: "127.0.0.1:0",
			Data: t.TempDir(), Leader: "http://" + leader.Addr(), PullInterval: 2 * time.Millisecond,
			Cluster: mapPath, Shard: "shard-a"})
		pinCafe(t, mapPath)
		obsv := sor.NewObserver()
		router := startTestRouter(t, mapPath, sor.Retry{Attempts: 2, Base: time.Millisecond, Seed: 1}, obsv)
		c := phoneClient(t, router)
		task := nodeParticipate(t, c, "cafe-1", "alice", 43.0)
		resp, err := c.Send(context.Background(), cafeUpload(task, 0))
		acked(t, "upload before the failover", resp, err)

		lsn := leader.Server().DB().AppliedLSN()
		waitFor(t, 5*time.Second, "standby catch-up", func() bool {
			srv := standby.Server()
			return srv != nil && srv.DB().AppliedLSN() >= lsn
		})
		if err := leader.Demote(); err != nil {
			t.Fatal(err)
		}
		if err := standby.Promote(); err != nil {
			t.Fatal(err)
		}
		m := obsv.Metrics()
		retries, failovers := m.Counter("sor_cluster_route_retries_total").Value(), m.Counter("sor_cluster_failovers_total").Value()
		resp, err = c.Send(context.Background(), cafeUpload(task, 1))
		acked(t, "upload across the failover", resp, err)
		if got := m.Counter("sor_cluster_route_retries_total").Value() - retries; got != 1 {
			t.Fatalf("failover took %d router retries, want 1", got)
		}
		if got := m.Counter("sor_cluster_failovers_total").Value() - failovers; got != 1 {
			t.Fatalf("router counted %d failovers, want 1", got)
		}
		if got := standby.Server().DB().UploadCount(); got != 2 {
			t.Fatalf("promoted standby holds %d uploads, want 2", got)
		}
	})
}

// TestStartNodeRouterSessionLifecycle: a router holds at most one
// session per P to a member however many forwards race to open them,
// replaces severed ones, and closes them all when it closes. Only
// members upgrade.
func TestStartNodeRouterSessionLifecycle(t *testing.T) {
	mapPath := filepath.Join(t.TempDir(), "cluster.json")
	member := startTestNode(t, sor.Node{Name: "cafe-a", Listen: "127.0.0.1:0", Cluster: mapPath, Shard: "shard-a"})
	if err := member.Server().CreateApp(nodeTestApp("cafe-1", "cafe", 43.0)); err != nil {
		t.Fatal(err)
	}
	pinCafe(t, mapPath)
	router := startTestRouter(t, mapPath, sor.Retry{Attempts: 5, Base: time.Millisecond, Cap: 5 * time.Millisecond, Seed: 1}, nil)
	c := phoneClient(t, router)

	rank := func(i int) error {
		resp, err := c.Send(context.Background(), &wire.RankRequest{UserID: fmt.Sprintf("u%d", i), Category: "cafe"})
		if err != nil {
			return err
		}
		if ack, ok := resp.(*wire.Ack); ok && ack.Code >= 500 {
			return fmt.Errorf("rank %d answered %+v", i, ack)
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- rank(i)
		}(i)
	}
	wg.Wait()
	maxSessions := runtime.GOMAXPROCS(0)
	if n := sor.PeerSessions(member); n < 1 || n > maxSessions {
		t.Fatalf("8 concurrent first forwards left %d peer sessions, want 1..%d", n, maxSessions)
	}

	// Sever the member's side of the sessions under load, three times:
	// every forward still succeeds and 1..GOMAXPROCS sessions remain.
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := rank(i); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		time.Sleep(20 * time.Millisecond)
		sor.DropPeerSessions(member)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := rank(0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "1..GOMAXPROCS peer sessions after the drops", func() bool {
		n := sor.PeerSessions(member)
		return n >= 1 && n <= maxSessions
	})

	// The upgrade path is a member's: a router has none, and a member
	// refuses a plain request there.
	for _, probe := range []struct {
		node *sor.RunningNode
		want int
	}{{router, http.StatusNotFound}, {member, http.StatusUpgradeRequired}} {
		resp, err := http.Get("http://" + probe.node.Addr() + session.UpgradePath)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != probe.want {
			t.Fatalf("GET %s on %s answered %d, want %d", session.UpgradePath, probe.node.Addr(), resp.StatusCode, probe.want)
		}
	}

	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "no peer session after the router closed", func() bool { return sor.PeerSessions(member) == 0 })
}

// TestStartNodeRouterForwardBound: a member whose handler never answers
// costs one bounded attempt, then the router's retry and leader
// discovery carry the request to the shard's live leader — the phone
// never hangs, and the abandoned session is closed.
func TestStartNodeRouterForwardBound(t *testing.T) {
	defer sor.SetPeerSendTimeout(150 * time.Millisecond)()
	mapPath := filepath.Join(t.TempDir(), "cluster.json")

	// cafe-a claims leadership but blocks every other request until its
	// session ends.
	stuck := make(chan struct{}, 1)
	peers, err := session.NewServer(func(ctx context.Context, m wire.Message) (wire.Message, error) {
		if _, ok := m.(*wire.ClusterHello); ok {
			return &wire.ClusterHello{Node: "cafe-a", Role: cluster.RoleLeader}, nil
		}
		select {
		case stuck <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}, session.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle(session.UpgradePath, peers.UpgradeHandler())
	hung := httptest.NewServer(mux)
	defer func() {
		hung.Close()
		_ = peers.Close()
	}()

	// cafe-b is the shard's real leader, listed as a replica.
	live := startTestNode(t, sor.Node{Name: "cafe-b", Listen: "127.0.0.1:0"})
	if err := live.Server().CreateApp(nodeTestApp("cafe-1", "cafe", 43.0)); err != nil {
		t.Fatal(err)
	}
	reg, err := cluster.LoadRegistry(mapPath)
	if err != nil {
		t.Fatal(err)
	}
	reg.AddShard("shard-a")
	for _, m := range []cluster.Member{
		{Name: "cafe-a", Shard: "shard-a", Role: cluster.RoleLeader, Addr: hung.URL},
		{Name: "cafe-b", Shard: "shard-a", Role: cluster.RoleReplica, Addr: "http://" + live.Addr()},
	} {
		if err := reg.AddMember(m); err != nil {
			t.Fatal(err)
		}
	}
	pinCafe(t, mapPath)
	obsv := sor.NewObserver()
	router := startTestRouter(t, mapPath, sor.Retry{Attempts: 2, Base: time.Millisecond, Seed: 1}, obsv)

	start := time.Now()
	nodeParticipate(t, phoneClient(t, router), "cafe-1", "alice", 43.0)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("the routed join took %v behind a stuck member", took)
	}
	select {
	case <-stuck:
	default:
		t.Fatal("the stuck member never saw the forward")
	}
	m := obsv.Metrics()
	if r, f := m.Counter("sor_cluster_route_retries_total").Value(), m.Counter("sor_cluster_failovers_total").Value(); r != 1 || f != 1 {
		t.Fatalf("router counted %d retries and %d failovers, want 1 and 1", r, f)
	}
	// The timed-out request alone failed: its session is live and stays,
	// since other forwards to cafe-a may share it.
	if n := peers.Registry().Count(); n != 1 {
		t.Fatalf("%d sessions to the stuck member after the timeout, want 1", n)
	}
}

// TestStartNodeRouterCancelledForward: a forward whose caller gives up
// says nothing of the member. The router drops no session and probes no
// member for it, and the forwards sharing the session are answered with
// no router retry.
func TestStartNodeRouterCancelledForward(t *testing.T) {
	mapPath := filepath.Join(t.TempDir(), "cluster.json")
	const forwards = 4
	var entered, hellos atomic.Int64
	release := make(chan struct{})
	peers, err := session.NewServer(func(ctx context.Context, m wire.Message) (wire.Message, error) {
		if _, ok := m.(*wire.ClusterHello); ok {
			hellos.Add(1)
			return &wire.ClusterHello{Node: "cafe-a", Role: cluster.RoleLeader}, nil
		}
		entered.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &wire.Ack{OK: true, Code: 200}, nil
	}, session.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle(session.UpgradePath, peers.UpgradeHandler())
	member := httptest.NewServer(mux)
	defer func() {
		member.Close()
		_ = peers.Close()
	}()
	reg, err := cluster.LoadRegistry(mapPath)
	if err != nil {
		t.Fatal(err)
	}
	reg.AddShard("shard-a")
	if err := reg.AddMember(cluster.Member{Name: "cafe-a", Shard: "shard-a",
		Role: cluster.RoleLeader, Addr: member.URL}); err != nil {
		t.Fatal(err)
	}
	pinCafe(t, mapPath)
	obsv := sor.NewObserver()
	router := startTestRouter(t, mapPath, sor.Retry{Attempts: 2, Base: time.Millisecond, Seed: 1}, obsv)
	h := router.Handler()

	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gaveUp := make(chan error, 1)
	answered := make(chan error, forwards)
	for i := 0; i < forwards; i++ {
		ctx := context.Background()
		if i == 0 {
			ctx = cctx
		}
		go func(i int, ctx context.Context) {
			resp, err := h(ctx, &wire.RankRequest{UserID: fmt.Sprintf("u%d", i), Category: "cafe"})
			if i == 0 {
				gaveUp <- err
				return
			}
			if ack, ok := resp.(*wire.Ack); err == nil && (!ok || !ack.OK) {
				err = fmt.Errorf("forward %d answered %+v", i, resp)
			}
			answered <- err
		}(i, ctx)
	}
	waitFor(t, 5*time.Second, "every forward at the member", func() bool { return entered.Load() == forwards })
	cancel()
	if err := <-gaveUp; err == nil {
		t.Fatal("the cancelled forward succeeded")
	}
	if n := peers.Registry().Count(); n != 1 {
		t.Fatalf("%d sessions after one caller gave up, want 1", n)
	}
	close(release)
	for i := 1; i < forwards; i++ {
		if err := <-answered; err != nil {
			t.Fatal(err)
		}
	}
	m := obsv.Metrics()
	if r := m.Counter("sor_cluster_route_retries_total").Value(); r != 0 {
		t.Fatalf("router counted %d retries, want 0", r)
	}
	if n := hellos.Load(); n != 0 {
		t.Fatalf("a cancelled forward sent %d leader probes, want 0", n)
	}
	if n := peers.Registry().Count(); n != 1 {
		t.Fatalf("%d sessions after the forwards, want 1", n)
	}
}

// TestStartNodeMemberCloseDrainsForwards: a member closing gracefully
// answers the forwards its peer sessions already took before it closes
// them, so the router gets the member's ack and retries nothing.
func TestStartNodeMemberCloseDrainsForwards(t *testing.T) {
	mapPath := filepath.Join(t.TempDir(), "cluster.json")
	spec := sor.Node{Name: "cafe-a", Listen: "127.0.0.1:0", Data: t.TempDir(),
		Cluster: mapPath, Shard: "shard-a", Catalog: nodeTestCatalog()}
	member := startTestNode(t, spec)
	if err := member.Server().CreateApp(nodeTestApp("cafe-1", "cafe", 43.0)); err != nil {
		t.Fatal(err)
	}
	pinCafe(t, mapPath)
	obsv := sor.NewObserver()
	router := startTestRouter(t, mapPath, sor.Retry{Attempts: 2, Base: time.Millisecond, Seed: 1}, obsv)
	c := phoneClient(t, router)
	task := nodeParticipate(t, c, "cafe-1", "alice", 43.0)

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	sor.WrapHandler(member, func(next sor.Handler) sor.Handler {
		return func(ctx context.Context, m wire.Message) (wire.Message, error) {
			if _, ok := m.(*wire.DataUpload); ok {
				entered <- struct{}{}
				<-release
			}
			return next(ctx, m)
		}
	})
	type result struct {
		resp wire.Message
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := c.Send(context.Background(), cafeUpload(task, 0))
		done <- result{resp, err}
	}()
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- member.Close() }()
	// Give Close time to reach the peer sessions: severing them now
	// would lose the reply.
	time.Sleep(50 * time.Millisecond)
	close(release)
	r := <-done
	acked(t, "upload in flight across the member's Close", r.resp, r.err)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if n := obsv.Metrics().Counter("sor_cluster_route_retries_total").Value(); n != 0 {
		t.Fatalf("router counted %d retries, want 0", n)
	}
	reopened := startTestNode(t, spec)
	if got := reopened.Server().DB().UploadCount(); got != 1 {
		t.Fatalf("reopened member holds %d uploads, want 1", got)
	}
}
