package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sor/internal/transport"
	"sor/internal/wire"
)

// fakeNode is a scriptable member endpoint: it answers hellos with its
// current role and records everything else.
type fakeNode struct {
	name string

	mu   sync.Mutex
	role string
	down bool
	got  []wire.Message
	// reply overrides the default 200 ack for non-hello messages.
	reply func(m wire.Message) wire.Message
}

func (n *fakeNode) setRole(role string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.role = role
}

func (n *fakeNode) setDown(down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down = down
}

func (n *fakeNode) received() []wire.Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]wire.Message(nil), n.got...)
}

func (n *fakeNode) Send(_ context.Context, m wire.Message) (wire.Message, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil, errors.New("connection refused")
	}
	if _, ok := m.(*wire.ClusterHello); ok {
		return &wire.ClusterHello{Node: n.name, Role: n.role}, nil
	}
	n.got = append(n.got, m)
	if n.role == RoleReplica {
		return &wire.Ack{OK: false, Code: 503, Message: "replica: writes go to the leader"}, nil
	}
	if n.reply != nil {
		return n.reply(m), nil
	}
	return &wire.Ack{OK: true, Code: 200}, nil
}

// testCluster is 2 shards × 2 fake nodes plus a router with no backoff.
type testCluster struct {
	reg    *Registry
	rt     *Router
	h      transport.Handler
	nodes  map[string]*fakeNode
	shards map[string]string // category -> shard, resolved
}

func newTestCluster(t *testing.T) *testCluster {
	t.Helper()
	reg := NewRegistry()
	reg.AddShard("shard-a")
	reg.AddShard("shard-b")
	nodes := make(map[string]*fakeNode)
	for _, spec := range []struct{ name, shard, role string }{
		{"a1", "shard-a", RoleLeader},
		{"a2", "shard-a", RoleReplica},
		{"b1", "shard-b", RoleLeader},
		{"b2", "shard-b", RoleReplica},
	} {
		n := &fakeNode{name: spec.name, role: spec.role}
		nodes[spec.name] = n
		if err := reg.AddMember(Member{Name: spec.name, Shard: spec.shard, Role: spec.role, Addr: spec.name}); err != nil {
			t.Fatal(err)
		}
	}
	dial := func(addr string) (Sender, error) {
		n, ok := nodes[addr]
		if !ok {
			return nil, fmt.Errorf("no such node %q", addr)
		}
		return n, nil
	}
	rt, err := NewRouter("router-1", reg, dial,
		WithRouterRetry(transport.Retry{Attempts: 3, Base: -1, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	// Two categories that land on different shards (pin the second if the
	// hash happens to collide, mirroring what an operator would do).
	coffee, hiking := reg.ShardFor("coffee-shop"), reg.ShardFor("hiking-trail")
	if coffee == hiking {
		if coffee == "shard-a" {
			reg.PinKey("hiking-trail", "shard-b")
		} else {
			reg.PinKey("hiking-trail", "shard-a")
		}
		hiking = reg.ShardFor("hiking-trail")
	}
	reg.RegisterApp("app-sb", "coffee-shop")
	reg.RegisterApp("app-th", "hiking-trail")
	return &testCluster{
		reg: reg, rt: rt, h: rt.Handler(), nodes: nodes,
		shards: map[string]string{"coffee-shop": coffee, "hiking-trail": hiking},
	}
}

func (tc *testCluster) pick(shard string) *fakeNode {
	m, _ := tc.reg.LeaderOf(shard)
	return tc.nodes[m.Name]
}

func TestRouterRoutesByAppCategory(t *testing.T) {
	tc := newTestCluster(t)
	resp, err := tc.h(nil, &wire.DataUpload{AppID: "app-sb", TaskID: "t", UserID: "u", ReportID: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); !ack.OK {
		t.Fatalf("routed upload refused: %+v", ack)
	}
	coffeeLeader := tc.pick(tc.shards["coffee-shop"])
	if got := coffeeLeader.received(); len(got) != 1 || got[0].Type() != wire.TypeDataUpload {
		t.Fatalf("coffee leader saw %v", got)
	}
	otherLeader := tc.pick(tc.shards["hiking-trail"])
	if got := otherLeader.received(); len(got) != 0 {
		t.Fatalf("hiking leader saw %v, want nothing", got)
	}

	// Rank queries route by category directly — to the same shard the
	// category's apps live on.
	if _, err := tc.h(nil, &wire.RankRequest{UserID: "u", Category: "coffee-shop"}); err != nil {
		t.Fatal(err)
	}
	if got := coffeeLeader.received(); len(got) != 2 || got[1].Type() != wire.TypeRankRequest {
		t.Fatalf("coffee leader saw %v after rank", got)
	}
}

func TestRouterSplitsBatches(t *testing.T) {
	tc := newTestCluster(t)
	batch := &wire.DataUploadBatch{Uploads: []wire.DataUpload{
		{AppID: "app-sb", TaskID: "t1", UserID: "u", ReportID: "r1"},
		{AppID: "app-th", TaskID: "t2", UserID: "u", ReportID: "r2"},
		{AppID: "app-sb", TaskID: "t1", UserID: "u", ReportID: "r3"},
	}}
	resp, err := tc.h(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); !ack.OK || ack.Code != 200 {
		t.Fatalf("batch ack = %+v", ack)
	}
	coffee := tc.pick(tc.shards["coffee-shop"]).received()
	hiking := tc.pick(tc.shards["hiking-trail"]).received()
	if len(coffee) != 1 || len(hiking) != 1 {
		t.Fatalf("batch fanout: coffee %d, hiking %d messages", len(coffee), len(hiking))
	}
	cb := coffee[0].(*wire.DataUploadBatch)
	hb := hiking[0].(*wire.DataUploadBatch)
	if len(cb.Uploads) != 2 || len(hb.Uploads) != 1 {
		t.Fatalf("split sizes: coffee %d, hiking %d", len(cb.Uploads), len(hb.Uploads))
	}
	if cb.Uploads[0].ReportID != "r1" || cb.Uploads[1].ReportID != "r3" {
		t.Fatalf("within-shard order lost: %+v", cb.Uploads)
	}
}

func TestRouterMergesPartialBatchAcks(t *testing.T) {
	tc := newTestCluster(t)
	// Coffee shard stores 1 of its 2 reports; hiking stores its 1.
	tc.pick(tc.shards["coffee-shop"]).reply = func(m wire.Message) wire.Message {
		return &wire.Ack{OK: true, Code: 207, Message: "stored 1/2"}
	}
	batch := &wire.DataUploadBatch{Uploads: []wire.DataUpload{
		{AppID: "app-sb", TaskID: "t1", UserID: "u", ReportID: "r1"},
		{AppID: "app-sb", TaskID: "t1", UserID: "u", ReportID: "r2"},
		{AppID: "app-th", TaskID: "t2", UserID: "u", ReportID: "r3"},
	}}
	resp, err := tc.h(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	ack := resp.(*wire.Ack)
	if !ack.OK || ack.Code != 207 || ack.Message != "stored 2/3" {
		t.Fatalf("merged ack = %+v, want 207 stored 2/3", ack)
	}
}

func TestRouterFailsOverToPromotedStandby(t *testing.T) {
	tc := newTestCluster(t)
	shard := tc.shards["coffee-shop"]
	old, _ := tc.reg.LeaderOf(shard)
	standbyName := "a2"
	if old.Name == "b1" {
		standbyName = "b2"
	}
	// Kill the leader and promote the standby — without telling the
	// registry (the router must discover it via hello probes).
	tc.nodes[old.Name].setDown(true)
	tc.nodes[standbyName].setRole(RoleLeader)

	resp, err := tc.h(nil, &wire.DataUpload{AppID: "app-sb", TaskID: "t", UserID: "u", ReportID: "r1"})
	if err != nil {
		t.Fatalf("routed send did not survive failover: %v", err)
	}
	if ack := resp.(*wire.Ack); !ack.OK {
		t.Fatalf("post-failover ack = %+v", ack)
	}
	if got := tc.nodes[standbyName].received(); len(got) != 1 {
		t.Fatalf("promoted standby saw %v", got)
	}
	if ld, ok := tc.reg.LeaderOf(shard); !ok || ld.Name != standbyName {
		t.Fatalf("registry leader after discovery = %+v, %v", ld, ok)
	}
}

func TestRouterFailsOverOnDemotedLeader503(t *testing.T) {
	tc := newTestCluster(t)
	shard := tc.shards["coffee-shop"]
	old, _ := tc.reg.LeaderOf(shard)
	standbyName := "a2"
	if old.Name == "b1" {
		standbyName = "b2"
	}
	// Planned failover: the old leader is demoted (alive, refusing
	// writes with 503) and the standby promoted.
	tc.nodes[old.Name].setRole(RoleReplica)
	tc.nodes[standbyName].setRole(RoleLeader)

	resp, err := tc.h(nil, &wire.DataUpload{AppID: "app-sb", TaskID: "t", UserID: "u", ReportID: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); !ack.OK {
		t.Fatalf("post-demotion ack = %+v", ack)
	}
	if ld, _ := tc.reg.LeaderOf(shard); ld.Name != standbyName {
		t.Fatalf("registry still thinks %s leads", ld.Name)
	}
}

func TestRouterPingFansOut(t *testing.T) {
	tc := newTestCluster(t)
	// Only the hiking shard has a pending schedule for this device.
	payload, err := wire.Encode(&wire.Schedule{TaskID: "t9", AppID: "app-th", UserID: "u", Script: "return 1"})
	if err != nil {
		t.Fatal(err)
	}
	tc.pick(tc.shards["hiking-trail"]).reply = func(m wire.Message) wire.Message {
		return &wire.Ack{OK: true, Code: 200, Payload: payload}
	}
	resp, err := tc.h(nil, &wire.Ping{Token: "tok-u"})
	if err != nil {
		t.Fatal(err)
	}
	ack := resp.(*wire.Ack)
	if !ack.OK || len(ack.Payload) == 0 {
		t.Fatalf("fanned-out ping ack = %+v", ack)
	}
	inner, err := wire.Decode(ack.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if sched := inner.(*wire.Schedule); sched.TaskID != "t9" {
		t.Fatalf("ping surfaced schedule %+v", sched)
	}
}

func TestRouterRefusesUnroutable(t *testing.T) {
	tc := newTestCluster(t)
	resp, err := tc.h(nil, &wire.ReplPull{FollowerID: "f", FromLSN: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); ack.OK || ack.Code != 400 {
		t.Fatalf("repl pull through router = %+v, want 400", ack)
	}
}

func TestHeartbeatReconcilesRoles(t *testing.T) {
	tc := newTestCluster(t)
	shard := tc.shards["coffee-shop"]
	old, _ := tc.reg.LeaderOf(shard)
	standbyName := "a2"
	if old.Name == "b1" {
		standbyName = "b2"
	}
	tc.nodes[old.Name].setRole(RoleReplica)
	tc.nodes[standbyName].setRole(RoleLeader)

	if n := tc.rt.HeartbeatOnce(context.Background()); n != 4 {
		t.Fatalf("heartbeat answered by %d members, want 4", n)
	}
	if ld, _ := tc.reg.LeaderOf(shard); ld.Name != standbyName {
		t.Fatalf("heartbeat did not adopt the promotion: leader %s", ld.Name)
	}
	for _, name := range []string{"a1", "a2", "b1", "b2"} {
		if !tc.reg.Live(name) {
			t.Fatalf("member %s not live after heartbeat", name)
		}
	}
}

func TestMemberHandlerAnswersHello(t *testing.T) {
	next := func(ctx context.Context, m wire.Message) (wire.Message, error) {
		return &wire.Ack{OK: true, Code: 200, Message: "passed through"}, nil
	}
	role := RoleLeader
	h := MemberHandler("n1", func() string { return role }, func() uint64 { return 7 }, next)
	resp, err := h(nil, &wire.ClusterHello{Node: "router-1", Role: RoleRouter})
	if err != nil {
		t.Fatal(err)
	}
	hello := resp.(*wire.ClusterHello)
	if hello.Node != "n1" || hello.Role != RoleLeader || hello.AppliedLSN != 7 {
		t.Fatalf("hello reply = %+v", hello)
	}
	role = RoleReplica // promotion/demotion visible on the next probe
	resp, _ = h(nil, &wire.ClusterHello{Node: "router-1", Role: RoleRouter})
	if resp.(*wire.ClusterHello).Role != RoleReplica {
		t.Fatal("role change invisible to hello")
	}
	resp, err = h(nil, &wire.Ping{Token: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); ack.Message != "passed through" {
		t.Fatalf("non-hello message = %+v", ack)
	}
}

// linkSender is one dialed link to a fakeNode: closable, and failing
// once dead or closed, like a real member session.
type linkSender struct {
	n      *fakeNode
	dead   atomic.Bool
	closed atomic.Bool
	closes *atomic.Int64
}

func (l *linkSender) Send(ctx context.Context, m wire.Message) (wire.Message, error) {
	if l.dead.Load() || l.closed.Load() {
		return nil, errors.New("link lost")
	}
	return l.n.Send(ctx, m)
}

func (l *linkSender) Close() error {
	if !l.closed.Swap(true) {
		l.closes.Add(1)
	}
	return nil
}

// TestRouterConnLifecycle pins the router's per-member sender lifecycle:
// concurrent first sends share one dial, a sender dropped after a failed
// send is closed (and only the one that failed, never its replacement),
// and Close closes every sender and refuses further sends.
func TestRouterConnLifecycle(t *testing.T) {
	reg := NewRegistry()
	reg.AddShard("shard-a")
	node := &fakeNode{name: "a1", role: RoleLeader}
	if err := reg.AddMember(Member{Name: "a1", Shard: "shard-a", Role: RoleLeader, Addr: "a1"}); err != nil {
		t.Fatal(err)
	}
	var dials, closes atomic.Int64
	var mu sync.Mutex
	var links []*linkSender
	rt, err := NewRouter("router-1", reg, func(addr string) (Sender, error) {
		dials.Add(1)
		time.Sleep(5 * time.Millisecond) // widen the window for a second dial
		l := &linkSender{n: node, closes: &closes}
		mu.Lock()
		links = append(links, l)
		mu.Unlock()
		return l, nil
	}, WithRouterRetry(transport.Retry{Attempts: 2, Base: -1, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	send := func() error {
		resp, err := h(context.Background(), &wire.RankRequest{UserID: "u", Category: "c"})
		if err != nil {
			return err
		}
		if ack, ok := resp.(*wire.Ack); !ok || !ack.OK {
			return fmt.Errorf("answer %+v", resp)
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- send()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if d := dials.Load(); d != 1 {
		t.Fatalf("16 concurrent first sends dialed %d times, want 1", d)
	}

	// The live link dies: the failed send drops and closes it, and the
	// router's retry dials a replacement.
	links[0].dead.Store(true)
	if err := send(); err != nil {
		t.Fatal(err)
	}
	if d, c := dials.Load(), closes.Load(); d != 2 || c != 1 || !links[0].closed.Load() {
		t.Fatalf("after a dead link: %d dials, %d closes; want 2, 1", d, c)
	}
	// A late drop of the dead link (a second send that failed on it)
	// must leave the replacement alone.
	rt.dropConn("a1", links[0])
	if err := send(); err != nil {
		t.Fatal(err)
	}
	if d, c := dials.Load(), closes.Load(); d != 2 || c != 1 {
		t.Fatalf("a stale drop touched the replacement: %d dials, %d closes", d, c)
	}

	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if !links[1].closed.Load() {
		t.Fatal("live link still open after Close")
	}
	if err := send(); err == nil {
		t.Fatal("send after Close succeeded")
	}
	if d := dials.Load(); d != 2 {
		t.Fatalf("a send after Close dialed (%d dials)", d)
	}
}
