package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sor/internal/obs"
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
		if !live(tc.reg, name) {
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

// TestRouterConnLifecycle pins the router's per-member link lifecycle:
// concurrent first sends dial at most the link cap, a link dropped after
// a failed send is closed (and only the one that failed, never a
// replacement), and Close closes every link and refuses further sends.
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
	opened := dials.Load()
	if opened < 1 || opened > int64(rt.maxLinks) {
		t.Fatalf("16 concurrent first sends dialed %d times, want 1..%d", opened, rt.maxLinks)
	}

	// The first link dies: an idle router picks it, the failed send drops
	// and closes it alone, and the router's retry lands on a live link.
	stale := rt.conns["a1"][0]
	links[0].dead.Store(true)
	if err := send(); err != nil {
		t.Fatal(err)
	}
	if c := closes.Load(); c != 1 || !links[0].closed.Load() {
		t.Fatalf("after a dead link: %d closes, want 1", c)
	}
	dialed := dials.Load()
	if want := max(opened, 2); dialed > want {
		t.Fatalf("after a dead link: %d dials, want at most %d", dialed, want)
	}
	// A late drop of the dead link (a second send that failed on it)
	// must leave every other link alone.
	rt.dropConn("a1", stale)
	if err := send(); err != nil {
		t.Fatal(err)
	}
	if d, c := dials.Load(), closes.Load(); d != dialed || c != 1 {
		t.Fatalf("a stale drop touched a live link: %d dials, %d closes", d, c)
	}

	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for i, l := range links {
		if !l.closed.Load() {
			t.Fatalf("link %d still open after Close", i)
		}
	}
	if err := send(); err == nil {
		t.Fatal("send after Close succeeded")
	}
	if d := dials.Load(); d != dialed {
		t.Fatalf("a send after Close dialed (%d dials)", d)
	}
}

// heldLinks is a fake member whose dialed links hold every forward until
// the test releases them or kills the link a forward rode; hellos are
// answered at once.
type heldLinks struct {
	mu      sync.Mutex
	links   []*heldLink
	release chan struct{} // closed: forwards are answered at once
	// entered gets each forward's link as it reaches the member; sized
	// past the most forwards a test leaves undrained, so Send never
	// blocks on it.
	entered chan *heldLink
}

type heldLink struct {
	h      *heldLinks
	lost   chan struct{} // closed when the link is killed or closed
	once   sync.Once
	closed atomic.Bool
}

// kill severs the link: its held forwards fail, like a dead session's.
func (l *heldLink) kill() { l.once.Do(func() { close(l.lost) }) }

func newHeldLinks() *heldLinks {
	h := &heldLinks{release: make(chan struct{}), entered: make(chan *heldLink, 64)}
	close(h.release)
	return h
}

// hold makes later forwards wait for the returned release.
func (h *heldLinks) hold() (release func()) {
	ch := make(chan struct{})
	h.mu.Lock()
	h.release = ch
	h.mu.Unlock()
	return func() { close(ch) }
}

func (h *heldLinks) dial(string) (Sender, error) {
	l := &heldLink{h: h, lost: make(chan struct{})}
	h.mu.Lock()
	h.links = append(h.links, l)
	h.mu.Unlock()
	return l, nil
}

func (h *heldLinks) dialed() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.links)
}

func (l *heldLink) Send(ctx context.Context, m wire.Message) (wire.Message, error) {
	if l.closed.Load() {
		return nil, errors.New("link closed")
	}
	if _, ok := m.(*wire.ClusterHello); ok {
		return &wire.ClusterHello{Node: "a1", Role: RoleLeader}, nil
	}
	l.h.mu.Lock()
	release := l.h.release
	l.h.mu.Unlock()
	l.h.entered <- l
	select {
	case <-release:
		return &wire.Ack{OK: true, Code: 200}, nil
	case <-l.lost:
		return nil, errors.New("link lost")
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (l *heldLink) Close() error {
	l.closed.Store(true)
	l.kill()
	return nil
}

// newHeldRouter is a router over one member, a1, dialed through h.
func newHeldRouter(t *testing.T, h *heldLinks) (*Router, *obs.Registry) {
	t.Helper()
	reg := NewRegistry()
	reg.AddShard("shard-a")
	if err := reg.AddMember(Member{Name: "a1", Shard: "shard-a", Role: RoleLeader, Addr: "a1"}); err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	rt, err := NewRouter("router-1", reg, h.dial,
		WithRouterRetry(transport.Retry{Attempts: 2, Base: -1, Seed: 1}), WithRouterMetrics(metrics))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt, metrics
}

// forwardAll starts n concurrent rank forwards through rt and returns
// their results; each arrives once the member answers or the forward
// fails.
func forwardAll(rt *Router, n int) <-chan error {
	h := rt.Handler()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			resp, err := h(context.Background(), &wire.RankRequest{UserID: fmt.Sprintf("u%d", i), Category: "c"})
			if ack, ok := resp.(*wire.Ack); err == nil && (!ok || !ack.OK) {
				err = fmt.Errorf("forward %d answered %+v", i, resp)
			}
			errs <- err
		}(i)
	}
	return errs
}

// wait receives n results from errs, failing on the first error.
func wait(t *testing.T, errs <-chan error, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRouterSpreadsConcurrentForwards: the router opens a member link
// per concurrent forward, up to its cap, and no more: k forwards held
// in flight at once open min(k, cap) links, sequential forwards and an
// idle router's heartbeat reuse the first.
func TestRouterSpreadsConcurrentForwards(t *testing.T) {
	for _, maxLinks := range []int{1, 2, 4} {
		for _, k := range []int{1, 3, 6} {
			t.Run(fmt.Sprintf("cap%d-k%d", maxLinks, k), func(t *testing.T) {
				h := newHeldLinks()
				rt, _ := newHeldRouter(t, h)
				rt.maxLinks = maxLinks
				wait(t, forwardAll(rt, 1), 1) // the member has answered
				<-h.entered
				release := h.hold()
				errs := forwardAll(rt, k)
				for i := 0; i < k; i++ {
					<-h.entered
				}
				if n, want := h.dialed(), min(k, maxLinks); n != want {
					t.Fatalf("%d forwards in flight opened %d links, want %d", k, n, want)
				}
				release()
				wait(t, errs, k)
			})
		}
	}

	t.Run("sequential", func(t *testing.T) {
		h := newHeldLinks()
		rt, _ := newHeldRouter(t, h)
		if rt.HeartbeatOnce(context.Background()) != 1 {
			t.Fatal("the member did not answer the heartbeat")
		}
		for i := 0; i < 100; i++ {
			wait(t, forwardAll(rt, 1), 1)
			<-h.entered
		}
		if rt.HeartbeatOnce(context.Background()) != 1 {
			t.Fatal("the member did not answer the heartbeat")
		}
		if n := h.dialed(); n != 1 {
			t.Fatalf("100 sequential forwards and 2 heartbeats opened %d links, want 1", n)
		}
	})
}

// TestRouterLinkFailureSparesSiblings: a lost link fails only the
// forwards it carried. The router drops and closes that link alone, the
// failed forward goes through on the router's retry, and the sibling
// link's forward is answered with no retry on a link never closed.
func TestRouterLinkFailureSparesSiblings(t *testing.T) {
	h := newHeldLinks()
	rt, metrics := newHeldRouter(t, h)
	rt.maxLinks = 2
	wait(t, forwardAll(rt, 1), 1)
	<-h.entered
	release := h.hold()
	errs := forwardAll(rt, 2)
	first, second := <-h.entered, <-h.entered
	if first == second || h.dialed() != 2 {
		t.Fatalf("2 forwards in flight rode %d links", h.dialed())
	}

	first.kill()
	<-h.entered // the killed link's forward, retried
	release()
	wait(t, errs, 2)
	if r := metrics.Counter("sor_cluster_route_retries_total").Value(); r != 1 {
		t.Fatalf("router counted %d retries, want 1 (the killed link's forward)", r)
	}
	if !first.closed.Load() {
		t.Fatal("the killed link was not closed")
	}
	if second.closed.Load() {
		t.Fatal("the sibling link was closed")
	}
	rt.mu.Lock()
	var held []Sender
	for _, l := range rt.conns["a1"] {
		held = append(held, l.s)
	}
	rt.mu.Unlock()
	if slices.Contains(held, Sender(first)) || !slices.Contains(held, Sender(second)) {
		t.Fatal("the router dropped the sibling link or kept the killed one")
	}
}
