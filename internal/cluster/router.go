package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sor/internal/obs"
	"sor/internal/transport"
	"sor/internal/transport/session"
	"sor/internal/vclock"
	"sor/internal/wire"
)

// Sender is the one transport method the router needs per member link.
// Production passes a peer session (one multiplexed stream per link);
// simulations substitute an in-process round trip. A Sender that also
// implements io.Closer is closed when the router drops it after a failed
// send, and on Router.Close.
type Sender interface {
	Send(ctx context.Context, m wire.Message) (wire.Message, error)
}

// Dialer turns a member's Addr into a Sender, one per link. It must not
// block on I/O (a session connects on its first Send): the router dials
// under its lock, so each member is dialed at most once at a time.
type Dialer func(addr string) (Sender, error)

// Router defaults.
const (
	defaultRouterAttempts = 2
	defaultRouterBase     = 50 * time.Millisecond
	defaultRouterCap      = 2 * time.Second
	// DefaultHeartbeatInterval paces RunHeartbeats.
	DefaultHeartbeatInterval = 2 * time.Second
)

// RouterOption tunes a Router.
type RouterOption func(*Router)

// WithRouterClock substitutes the clock backing retry backoff and
// heartbeat pacing.
func WithRouterClock(clk vclock.Clock) RouterOption {
	return func(rt *Router) { rt.clock = vclock.Or(clk) }
}

// WithRouterRetry applies the consolidated retry envelope to forwarded
// sends. A Base of -1 disables backoff sleeps entirely (deterministic
// soak drivers).
func WithRouterRetry(r transport.Retry) RouterOption {
	return func(rt *Router) { rt.retry = r }
}

// WithRouterMetrics publishes sor_cluster_* series into reg.
func WithRouterMetrics(reg *obs.Registry) RouterOption {
	return func(rt *Router) { rt.metrics = reg }
}

// Router forwards phone traffic to the owning shard's leader. Uploads,
// participations and leaves route by the app's category; rank queries
// route by their category directly; batches split per shard and the
// sub-acks merge; pings fan out (any shard may hold the device's pending
// schedule). When a leader stops answering — or answers 503 because it
// was demoted — the router probes the shard's other members with
// ClusterHello, adopts whichever one now claims leadership, and retries:
// the PR-8 Demote/Promote failover becomes invisible to phones.
type Router struct {
	name  string
	reg   *Registry
	dial  Dialer
	clock vclock.Clock
	retry transport.Retry

	attempts int
	backoff  *transport.Backoff

	mu       sync.Mutex
	conns    map[string][]*link
	closed   bool
	maxLinks int // links per member: runtime.GOMAXPROCS(0) at NewRouter

	metrics *obs.Registry // nil-safe: obs handles no-op without it

	routed     map[string]*obs.Counter
	retries    *obs.Counter
	failovers  *obs.Counter
	heartbeats *obs.Counter
	unroutable *obs.Counter
}

// NewRouter builds a router named name (its ClusterHello identity) over
// a registry and a dialer.
func NewRouter(name string, reg *Registry, dial Dialer, opts ...RouterOption) (*Router, error) {
	if name == "" {
		return nil, errors.New("cluster: router needs a name")
	}
	if reg == nil || dial == nil {
		return nil, errors.New("cluster: router needs a registry and a dialer")
	}
	rt := &Router{
		name:     name,
		reg:      reg,
		dial:     dial,
		clock:    vclock.Real{},
		conns:    make(map[string][]*link),
		maxLinks: runtime.GOMAXPROCS(0),
	}
	for _, opt := range opts {
		opt(rt)
	}
	rt.attempts = rt.retry.ResolveAttempts(defaultRouterAttempts)
	base := rt.retry.ResolveBase(defaultRouterBase)
	cap := rt.retry.ResolveCap(defaultRouterCap)
	seed := rt.retry.ResolveSeed(rt.clock.Now().UnixNano())
	rt.backoff = transport.NewBackoff(base, cap, seed)
	rt.routed = make(map[string]*obs.Counter)
	rt.retries = rt.metrics.Counter("sor_cluster_route_retries_total")
	rt.failovers = rt.metrics.Counter("sor_cluster_failovers_total")
	rt.heartbeats = rt.metrics.Counter("sor_cluster_heartbeats_total")
	rt.unroutable = rt.metrics.Counter("sor_cluster_unroutable_total")
	return rt, nil
}

// errRouterClosed refuses sends after Close.
var errRouterClosed = errors.New("cluster: router closed")

// link is one sender to a member and the forwards in flight on it.
type link struct {
	s        Sender
	inflight atomic.Int32
	answered atomic.Bool // some send on it succeeded
}

// send sends m on l and releases the forward conn counted on it.
func (l *link) send(ctx context.Context, m wire.Message) (wire.Message, error) {
	resp, err := l.s.Send(ctx, m)
	if err == nil && !l.answered.Load() {
		l.answered.Store(true)
	}
	l.inflight.Add(-1)
	return resp, err
}

// conn picks the member's link with the fewest forwards in flight (the
// lowest index on a tie) and counts one more forward on it. It dials a
// new link under rt.mu when there is none, or when every link is busy,
// the member has answered on one of them and it has fewer than maxLinks:
// concurrent first forwards share one dial, a member that is down or
// still connecting costs one dial per attempt, and sequential traffic
// never opens a second link. A non-empty shard also resolves its
// forwarded counter in the same critical section.
func (rt *Router) conn(m Member, shard string) (*link, *obs.Counter, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil, nil, errRouterClosed
	}
	links := rt.conns[m.Name]
	var best *link
	answered := false
	for _, l := range links {
		if best == nil || l.inflight.Load() < best.inflight.Load() {
			best = l
		}
		answered = answered || l.answered.Load()
	}
	if best == nil || best.inflight.Load() > 0 && answered && len(links) < rt.maxLinks {
		s, err := rt.dial(m.Addr)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: dialing %s (%s): %w", m.Name, m.Addr, err)
		}
		best = &link{s: s}
		rt.conns[m.Name] = append(links, best)
	}
	best.inflight.Add(1)
	var routed *obs.Counter
	if shard != "" {
		if routed = rt.routed[shard]; routed == nil {
			routed = rt.metrics.Counter("sor_cluster_routed_total", obs.L("shard", shard))
			rt.routed[shard] = routed
		}
	}
	return best, routed, nil
}

// sendFailed handles err from a send to member name on l, and reports
// whether the caller should go on. A send that ended with the caller's
// ctx says nothing of the member, so nothing is dropped and the caller
// stops. A send that only outlived the peer bound keeps l: its session is
// live and carries other requests. Any other failure drops l alone; the
// member's other links and their forwards are untouched.
func (rt *Router) sendFailed(ctx context.Context, name string, l *link, err error) bool {
	if ctx != nil && ctx.Err() != nil {
		return false
	}
	if !errors.Is(err, session.ErrRequestTimeout) {
		rt.dropConn(name, l)
	}
	return true
}

// dropConn forgets and closes the member's link l after a failed send.
// A link some other send already dropped is left alone, and so is any
// replacement dialed since.
func (rt *Router) dropConn(name string, l *link) {
	rt.mu.Lock()
	links := rt.conns[name]
	i := slices.Index(links, l)
	if i >= 0 {
		rt.conns[name] = slices.Delete(links, i, i+1)
	}
	rt.mu.Unlock()
	if i >= 0 {
		closeSender(l.s)
	}
}

// Close closes every member link and refuses further sends. In-flight
// sends on a closed link fail; the router does not retry them.
func (rt *Router) Close() error {
	rt.mu.Lock()
	rt.closed = true
	conns := rt.conns
	rt.conns = make(map[string][]*link)
	rt.mu.Unlock()
	for _, links := range conns {
		for _, l := range links {
			closeSender(l.s)
		}
	}
	return nil
}

func closeSender(s Sender) {
	if c, ok := s.(io.Closer); ok {
		_ = c.Close()
	}
}

// keyForApp resolves an app's routing key: its registered category, or
// the app id itself for apps the registry has never heard of.
func (rt *Router) keyForApp(appID string) string {
	if cat, ok := rt.reg.AppCategory(appID); ok {
		return cat
	}
	return appID
}

// Handler returns the router's transport.Handler — mountable on an HTTP
// endpoint exactly like a server's own handler, so phones cannot tell a
// router from a single node.
func (rt *Router) Handler() transport.Handler {
	return func(ctx context.Context, m wire.Message) (wire.Message, error) {
		switch msg := m.(type) {
		case *wire.Participate:
			return rt.routeByKey(ctx, rt.keyForApp(msg.AppID), m)
		case *wire.DataUpload:
			return rt.routeByKey(ctx, rt.keyForApp(msg.AppID), m)
		case *wire.Leave:
			return rt.routeByKey(ctx, rt.keyForApp(msg.AppID), m)
		case *wire.RankRequest:
			return rt.routeByKey(ctx, msg.Category, m)
		case *wire.DataUploadBatch:
			return rt.routeBatch(ctx, msg)
		case *wire.Ping:
			return rt.fanOutPing(ctx, msg)
		case *wire.ClusterHello:
			return &wire.ClusterHello{Node: rt.name, Role: RoleRouter}, nil
		default:
			// Replication and resync traffic goes node-to-node, never
			// through the router.
			rt.unroutable.Inc()
			return &wire.Ack{OK: false, Code: 400,
				Message: fmt.Sprintf("cluster: %s is not routable", m.Type())}, nil
		}
	}
}

// routeByKey forwards m to the leader of the shard owning key.
func (rt *Router) routeByKey(ctx context.Context, key string, m wire.Message) (wire.Message, error) {
	shard := rt.reg.ShardFor(key)
	if shard == "" {
		return &wire.Ack{OK: false, Code: 503, Message: "cluster: no shards registered"}, nil
	}
	return rt.sendToShard(ctx, shard, m)
}

// sendToShard delivers m to the shard's leader with retry, backoff, and
// failover discovery between attempts.
func (rt *Router) sendToShard(ctx context.Context, shard string, m wire.Message) (wire.Message, error) {
	var lastErr error
	for attempt := 0; attempt <= rt.attempts; attempt++ {
		if attempt > 0 {
			rt.retries.Inc()
			if d := rt.backoff.Delay(attempt - 1); d > 0 {
				select {
				case <-rt.clock.After(d):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		}
		leader, ok := rt.reg.LeaderOf(shard)
		if !ok {
			lastErr = fmt.Errorf("cluster: shard %s has no leader", shard)
			rt.discoverLeader(ctx, shard, "")
			continue
		}
		l, routed, err := rt.conn(leader, shard)
		if errors.Is(err, errRouterClosed) {
			return nil, err
		}
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := l.send(ctx, m)
		if err != nil {
			lastErr = fmt.Errorf("cluster: %s: %w", leader.Name, err)
			if !rt.sendFailed(ctx, leader.Name, l, err) {
				return nil, lastErr
			}
			rt.discoverLeader(ctx, shard, leader.Name)
			continue
		}
		if ack, isAck := resp.(*wire.Ack); isAck && !ack.OK && ack.Code == 503 {
			// The registry's "leader" answered as a replica: it was
			// demoted (or is mid-restart). Probe for the promotion.
			lastErr = fmt.Errorf("cluster: %s refused: %s", leader.Name, ack.Message)
			rt.discoverLeader(ctx, shard, leader.Name)
			continue
		}
		routed.Inc()
		return resp, nil
	}
	return nil, fmt.Errorf("cluster: shard %s unavailable after %d attempts: %w",
		shard, rt.attempts+1, lastErr)
}

// discoverLeader probes a shard's members for one that currently claims
// leadership and reconciles the registry with what it finds. suspect is
// the member that just failed (skipped).
func (rt *Router) discoverLeader(ctx context.Context, shard, suspect string) {
	for _, m := range rt.reg.MembersOf(shard) {
		if m.Name == suspect {
			continue
		}
		l, _, err := rt.conn(m, "")
		if err != nil {
			continue
		}
		resp, err := l.send(ctx, &wire.ClusterHello{Node: rt.name, Role: RoleRouter})
		if err != nil {
			if !rt.sendFailed(ctx, m.Name, l, err) {
				return
			}
			continue
		}
		hello, ok := resp.(*wire.ClusterHello)
		if !ok {
			continue
		}
		rt.reg.MarkAlive(m.Name, hello.AppliedLSN)
		if hello.Role == RoleLeader && m.Role != RoleLeader {
			if suspect != "" {
				_ = rt.reg.SetRole(suspect, RoleReplica)
			}
			_ = rt.reg.SetRole(m.Name, RoleLeader)
			rt.failovers.Inc()
			return
		}
	}
}

// routeBatch splits a batch by owning shard, forwards the sub-batches,
// and merges the sub-acks back into the single accepted/total shape the
// server's own batch handler produces (200 all, 207 partial, 400 none).
// Any shard failing entirely fails the whole batch retryably — the
// ReportID dedup window makes the client's resend of already-stored
// sub-batches harmless.
func (rt *Router) routeBatch(ctx context.Context, batch *wire.DataUploadBatch) (wire.Message, error) {
	if len(batch.Uploads) == 0 {
		return &wire.Ack{OK: false, Code: 400, Message: "empty report batch"}, nil
	}
	byShard := make(map[string][]wire.DataUpload)
	var order []string // deterministic forward order: first appearance
	for _, up := range batch.Uploads {
		shard := rt.reg.ShardFor(rt.keyForApp(up.AppID))
		if shard == "" {
			return &wire.Ack{OK: false, Code: 503, Message: "cluster: no shards registered"}, nil
		}
		if _, ok := byShard[shard]; !ok {
			order = append(order, shard)
		}
		byShard[shard] = append(byShard[shard], up)
	}
	accepted, total := 0, len(batch.Uploads)
	for _, shard := range order {
		sub := byShard[shard]
		resp, err := rt.sendToShard(ctx, shard, &wire.DataUploadBatch{Uploads: sub})
		if err != nil {
			return &wire.Ack{OK: false, Code: 503,
				Message: fmt.Sprintf("cluster: shard %s unavailable mid-batch", shard)}, nil
		}
		ack, ok := resp.(*wire.Ack)
		if !ok {
			return &wire.Ack{OK: false, Code: 502,
				Message: fmt.Sprintf("cluster: shard %s answered %s to a batch", shard, resp.Type())}, nil
		}
		switch {
		case ack.OK && ack.Code == 200:
			accepted += len(sub)
		case ack.OK && ack.Code == 207:
			var a, n int
			if _, err := fmt.Sscanf(ack.Message, "stored %d/%d", &a, &n); err == nil {
				accepted += a
			}
		}
	}
	switch {
	case accepted == 0:
		return &wire.Ack{OK: false, Code: 400,
			Message: fmt.Sprintf("no report in batch of %d matched an active task", total)}, nil
	case accepted < total:
		return &wire.Ack{OK: true, Code: 207,
			Message: fmt.Sprintf("stored %d/%d", accepted, total)}, nil
	default:
		return &wire.Ack{OK: true, Code: 200,
			Message: fmt.Sprintf("stored %d/%d", accepted, total)}, nil
	}
}

// fanOutPing asks every shard for the device's pending schedule: any
// shard may own an app the device participates in. The first reply
// carrying a schedule wins; otherwise the first OK heartbeat.
func (rt *Router) fanOutPing(ctx context.Context, p *wire.Ping) (wire.Message, error) {
	shards := rt.reg.Shards()
	if len(shards) == 0 {
		return &wire.Ack{OK: false, Code: 503, Message: "cluster: no shards registered"}, nil
	}
	var firstOK *wire.Ack
	var lastErr error
	for _, shard := range shards {
		resp, err := rt.sendToShard(ctx, shard, p)
		if err != nil {
			lastErr = err
			continue
		}
		if ack, ok := resp.(*wire.Ack); ok {
			if ack.OK && len(ack.Payload) > 0 {
				return ack, nil
			}
			if ack.OK && firstOK == nil {
				firstOK = ack
			}
		}
	}
	if firstOK != nil {
		return firstOK, nil
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return &wire.Ack{OK: false, Code: 503, Message: "cluster: no shard answered ping"}, nil
}

// HeartbeatOnce probes every non-router member, marks liveness, and
// reconciles roles the heartbeat discovers changed (a promotion the
// router has not routed through yet). Returns how many members answered.
func (rt *Router) HeartbeatOnce(ctx context.Context) int {
	answered := 0
	for _, shard := range rt.reg.Shards() {
		for _, m := range rt.reg.MembersOf(shard) {
			l, _, err := rt.conn(m, "")
			if err != nil {
				continue
			}
			resp, err := l.send(ctx, &wire.ClusterHello{Node: rt.name, Role: RoleRouter})
			if err != nil {
				if !rt.sendFailed(ctx, m.Name, l, err) {
					return answered
				}
				continue
			}
			hello, ok := resp.(*wire.ClusterHello)
			if !ok {
				continue
			}
			rt.reg.MarkAlive(m.Name, hello.AppliedLSN)
			if hello.Role != m.Role && (hello.Role == RoleLeader || hello.Role == RoleReplica) {
				if hello.Role == RoleLeader {
					// Demote whoever the registry thought led this shard.
					if old, ok := rt.reg.LeaderOf(shard); ok && old.Name != m.Name {
						_ = rt.reg.SetRole(old.Name, RoleReplica)
					}
					rt.failovers.Inc()
				}
				_ = rt.reg.SetRole(m.Name, hello.Role)
			}
			answered++
		}
	}
	rt.heartbeats.Inc()
	return answered
}

// RunHeartbeats probes on a cadence until ctx ends.
func (rt *Router) RunHeartbeats(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = DefaultHeartbeatInterval
	}
	ticker := rt.clock.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C():
			rt.HeartbeatOnce(ctx)
		}
	}
}

// MemberHandler answers ClusterHello probes on a member node — naming
// itself and reporting its live role and applied LSN — and passes every
// other message to next. role and applied are called per probe so a
// promotion is visible on the very next heartbeat.
func MemberHandler(name string, role func() string, applied func() uint64, next transport.Handler) transport.Handler {
	return func(ctx context.Context, m wire.Message) (wire.Message, error) {
		if _, ok := m.(*wire.ClusterHello); ok {
			h := &wire.ClusterHello{Node: name, Role: role()}
			if applied != nil {
				h.AppliedLSN = applied()
			}
			return h, nil
		}
		return next(ctx, m)
	}
}
