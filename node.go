package sor

// This file is the node-level half of the public API: one declarative
// Node spec and StartNode, which assembles the full stack for any
// cluster role — leader (durable store, WAL shipping, snapshot-ship
// resync source), replica (follower pull loop with automatic in-place
// resync when the leader has compacted past it), or router (the
// app-sharded forwarding tier over a cluster map). The option-level API
// in api.go remains for callers composing the pieces by hand.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sor/internal/cluster"
	"sor/internal/obs"
	"sor/internal/replica"
	"sor/internal/store"
	"sor/internal/transport"
	"sor/internal/transport/session"
	"sor/internal/wire"
)

// Cluster roles a Node can hold.
const (
	RoleLeader  = cluster.RoleLeader
	RoleReplica = cluster.RoleReplica
	RoleRouter  = cluster.RoleRouter
)

// ClusterStatus is the /debug/cluster payload: shards, members with
// roles and liveness, and resolved app placements.
type ClusterStatus = cluster.Status

// ClusterDebugPath serves the cluster status JSON.
const ClusterDebugPath = cluster.DebugPath

// ReplicaDebugPath serves the replication status JSON.
const ReplicaDebugPath = replica.DebugPath

// Node declares one cluster node. Zero values mean "leader, in-memory,
// no listeners" — the smallest thing StartNode will run.
type Node struct {
	// Name is the node's cluster identity (heartbeat replies, replication
	// follower ID, resync session ID). Defaults to "node".
	Name string
	// Role is RoleLeader (default), RoleReplica, or RoleRouter.
	Role string
	// Listen is the HTTP wire endpoint address (":0" picks a port).
	// Empty serves no HTTP; the node is then driven through Handler().
	// On a leader or replica the same port upgrades routers' peer
	// sessions, the only way a router reaches a member.
	Listen string
	// StreamListen additionally accepts persistent device streams.
	StreamListen string
	// Data roots durable state (snapshot + WAL). Required for a replica;
	// empty on a leader means in-memory state with no replication.
	Data string
	// DurableOptions tunes the Data-rooted backend (WAL sync policy,
	// segment size, checkpoint cadence).
	DurableOptions []DurableOption
	// Cluster is the cluster map file. Required for a router; on a
	// leader or replica it registers this member (Shard, Advertise) so
	// routers can find it.
	Cluster string
	// Shard names the shard this member serves (cluster registration).
	Shard string
	// Advertise is the address other nodes dial to reach this one
	// (defaults to http://localhost<Listen>).
	Advertise string
	// Leader is the leader's base URL (required for a replica).
	Leader string
	// MaxReplicaLag bounds replica rank-read staleness (see
	// WithMaxReplicaLag).
	MaxReplicaLag time.Duration
	// PullInterval paces the replica's caught-up pulls.
	PullInterval time.Duration
	// Retry is the consolidated retry envelope for every outbound path
	// the node owns: the replica's leader client and reconnect backoff,
	// and the router's forwarded sends (retried by the router alone).
	Retry Retry
	// Observer instruments the node (default: a fresh one).
	Observer *Observer
	// Catalog overrides the category→features catalog (leader/replica).
	Catalog map[string][]Feature
	// Mux, when set, receives the node's debug endpoints and wire
	// endpoint instead of a fresh mux — the hook for callers mounting
	// extra routes on the same listener.
	Mux *http.ServeMux
}

// RunningNode is a started Node: its live dispatcher, listeners, and
// role machinery. The dispatcher is held behind an atomic pointer so a
// replica's automatic resync can rebuild the whole store underneath it
// without its HTTP or stream endpoints ever going away.
type RunningNode struct {
	spec Node
	obsv *Observer

	handler atomic.Value // transport.Handler

	mu       sync.Mutex
	srv      *Server
	storage  Storage
	durable  *store.DurableBackend
	repl     *replica.Leader
	follower *replica.Follower
	registry *cluster.Registry
	router   *cluster.Router

	cancel         context.CancelFunc
	followerCancel context.CancelFunc
	wg             sync.WaitGroup
	// processing closes when the leader's processing loop has exited
	// (nil for other roles).
	processing <-chan struct{}

	httpServer   *http.Server
	httpLn       net.Listener
	streamServer *StreamServer
	streamLn     net.Listener
	sessions     *SessionRegistry
	// peers serves routers' session upgrades on the HTTP wire port (a
	// member with Listen), on a registry of its own: device pushes never
	// reach a peer.
	peers *session.Server

	resyncs atomic.Uint64
	lastErr atomic.Value // error: why replication supervision stopped
}

// Err reports why the node's replication supervision stopped, if it
// did (a failed resync, a dead leader client). Nil while healthy.
func (rn *RunningNode) Err() error {
	if err, ok := rn.lastErr.Load().(error); ok {
		return err
	}
	return nil
}

// StartNode assembles and starts a node from its spec. The returned
// node is serving (when Listen/StreamListen are set) and replicating
// (role replica) until ctx ends or Close is called.
func StartNode(ctx context.Context, n Node) (*RunningNode, error) {
	if n.Name == "" {
		n.Name = "node"
	}
	if n.Role == "" {
		n.Role = RoleLeader
	}
	rn := &RunningNode{spec: n, obsv: n.Observer}
	if rn.obsv == nil {
		rn.obsv = NewObserver()
	}
	runCtx, cancel := context.WithCancel(ctx)
	rn.cancel = cancel

	var err error
	switch n.Role {
	case RoleLeader, RoleReplica:
		err = rn.buildMember(runCtx)
	case RoleRouter:
		err = rn.buildRouter(runCtx)
	default:
		err = fmt.Errorf("sor: unknown node role %q (leader|replica|router)", n.Role)
	}
	if err != nil {
		cancel()
		return nil, err
	}
	if err := rn.startListeners(); err != nil {
		cancel()
		_ = rn.closeCore()
		return nil, err
	}
	if n.Cluster != "" && n.Role != RoleRouter {
		if err := rn.registerMember(); err != nil {
			_ = rn.Close()
			return nil, err
		}
	}
	return rn, nil
}

// buildMember stands up a leader or replica: storage, server, and the
// replication role, publishing the dispatcher last.
func (rn *RunningNode) buildMember(ctx context.Context) error {
	n := rn.spec
	var storage Storage
	var durable *store.DurableBackend
	if n.Data != "" {
		dopts := append([]DurableOption{store.WithMetrics(rn.obsv.Metrics())}, n.DurableOptions...)
		durable = store.NewDurableBackend(n.Data, dopts...)
		storage = durable
	} else {
		if n.Role == RoleReplica {
			return errors.New("sor: a replica needs Data (its log is its copy of the leader's)")
		}
		storage = Memory()
	}

	catalog := n.Catalog
	if catalog == nil {
		catalog = DefaultCatalog()
	}
	sessions := NewSessionRegistry(WithSessionMetrics(rn.obsv.Metrics()))
	srv, err := NewServer(
		WithStorage(storage),
		WithCatalog(catalog),
		WithTransport(sessions),
		WithObserver(rn.obsv),
		WithMaxReplicaLag(n.MaxReplicaLag),
	)
	if err != nil {
		return err
	}

	handler := srv.Handler()
	var repl *replica.Leader
	var follower *replica.Follower
	var followerCancel context.CancelFunc
	var processing <-chan struct{}
	switch n.Role {
	case RoleReplica:
		if n.Leader == "" {
			return errors.New("sor: a replica needs Leader (the leader's base URL)")
		}
		if err := srv.OpenAsReplica(); err != nil {
			return err
		}
		client, err := NewClient(n.Leader, WithClientRetry(n.Retry))
		if err != nil {
			_ = srv.Close()
			return err
		}
		fopts := []replica.FollowerOption{
			replica.WithFollowerMetrics(rn.obsv.Metrics()),
		}
		if n.PullInterval > 0 {
			fopts = append(fopts, replica.WithPullInterval(n.PullInterval))
		}
		if n.Retry != (Retry{}) {
			fopts = append(fopts, replica.WithFollowerBackoff(
				n.Retry.ResolveBase(100*time.Millisecond),
				n.Retry.ResolveCap(10*time.Second),
				n.Retry.ResolveSeed(time.Now().UnixNano()),
			))
		}
		follower = replica.NewFollower(n.Name, srv.DB(), client, fopts...)
		srv.SetReplicaLagProbe(follower.LagProbe())
		var fctx context.Context
		fctx, followerCancel = context.WithCancel(ctx)
		rn.wg.Add(1)
		go rn.superviseReplication(ctx, fctx, follower)
	case RoleLeader:
		if err := srv.Open(); err != nil {
			return err
		}
		// The §IV feature pipeline runs on a cadence, like sord's; rank
		// requests still fold on demand in between.
		if processing, err = srv.StartProcessing(ctx, 30*time.Second); err != nil {
			_ = srv.Close()
			return err
		}
		if durable != nil {
			repl, err = replica.NewLeader(durable.WAL(),
				replica.WithStateDir(durable.Dir()),
				replica.WithLeaderMetrics(rn.obsv.Metrics()),
			)
			if err != nil {
				_ = srv.Close()
				return err
			}
			handler = replica.Handler(repl, handler)
		}
	}

	handler = cluster.MemberHandler(n.Name, rn.roleName, rn.appliedLSN, handler)

	rn.mu.Lock()
	rn.srv, rn.storage, rn.durable = srv, storage, durable
	rn.repl, rn.follower = repl, follower
	rn.followerCancel = followerCancel
	rn.processing = processing
	rn.sessions = sessions
	rn.mu.Unlock()
	rn.handler.Store(transport.Handler(handler))
	return nil
}

// buildRouter stands up the forwarding tier over the cluster map.
func (rn *RunningNode) buildRouter(ctx context.Context) error {
	n := rn.spec
	if n.Cluster == "" {
		return errors.New("sor: a router needs Cluster (the cluster map file)")
	}
	reg, err := cluster.LoadRegistry(n.Cluster)
	if err != nil {
		return err
	}
	rt, err := cluster.NewRouter(n.Name, reg, dialPeer(n.Name),
		cluster.WithRouterRetry(n.Retry),
		cluster.WithRouterMetrics(rn.obsv.Metrics()),
	)
	if err != nil {
		return err
	}
	rn.mu.Lock()
	rn.registry, rn.router = reg, rt
	rn.mu.Unlock()
	rn.handler.Store(transport.Handler(rt.Handler()))
	rn.wg.Add(1)
	go func() {
		defer rn.wg.Done()
		rt.RunHeartbeats(ctx, cluster.DefaultHeartbeatInterval)
	}()
	return nil
}

// peerSendTimeout bounds one forwarded send — dial, upgrade, handshake
// and round trip — at the 10 s the HTTP client's Timeout gave the hop
// before. A variable only so this package's tests can shorten it.
var peerSendTimeout = 10 * time.Second

// dialPeer is the router's Dialer: each link is one multiplexed session,
// opened on its first forward by an HTTP upgrade of the member's wire
// port. Each Send is one bounded attempt, so the router's own retry,
// backoff and leader discovery are the only retry layer on a forward.
// Every session authenticates under its own token (router name plus a
// unique suffix), so each link is a distinct session on the member.
func dialPeer(router string) cluster.Dialer {
	return func(addr string) (cluster.Sender, error) {
		return session.DialPeer(addr, router+"/"+string(obs.NewRequestID()), peerSendTimeout)
	}
}

// registerMember records this node in the cluster map so routers
// loading (or re-loading) it can dial us.
func (rn *RunningNode) registerMember() error {
	n := rn.spec
	if n.Shard == "" {
		return errors.New("sor: registering in a cluster map needs Shard")
	}
	reg, err := cluster.LoadRegistry(n.Cluster)
	if err != nil {
		return err
	}
	addr := n.Advertise
	if addr == "" {
		if a := rn.Addr(); a != "" {
			addr = "http://" + a
		} else {
			return errors.New("sor: registering in a cluster map needs Advertise or Listen")
		}
	}
	reg.AddShard(n.Shard)
	return reg.AddMember(cluster.Member{
		Name:  n.Name,
		Shard: n.Shard,
		Role:  rn.roleName(),
		Addr:  addr,
	})
}

// superviseReplication runs the follower pull loop and owns the
// automatic resync: when the leader has compacted past this replica,
// the node streams the leader's checkpoint over the wire, installs it,
// rebuilds store and server in place, and resumes pulling — the
// dispatcher pointer swaps, the listeners never notice.
func (rn *RunningNode) superviseReplication(ctx, fctx context.Context, follower *replica.Follower) {
	defer rn.wg.Done()
	err := follower.Run(fctx)
	if ctx.Err() != nil || fctx.Err() != nil {
		return
	}
	if errors.Is(err, replica.ErrNeedsResync) {
		err = rn.resync(ctx)
	}
	if err != nil {
		rn.lastErr.Store(err)
	}
}

// resync rebuilds the replica from the leader's checkpoint: park the
// dispatcher on a retryable refusal, close the old stack, ship the
// checkpoint into the data dir, rebuild, and publish the new dispatcher.
// buildMember starts a fresh supervisor goroutine for the new follower.
func (rn *RunningNode) resync(ctx context.Context) error {
	n := rn.spec
	rn.handler.Store(transport.Handler(func(context.Context, wire.Message) (wire.Message, error) {
		return &wire.Ack{OK: false, Code: 503, Message: "replica: resyncing from the leader"}, nil
	}))
	rn.mu.Lock()
	srv := rn.srv
	rn.srv, rn.follower, rn.followerCancel = nil, nil, nil
	rn.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
	client, err := NewClient(n.Leader, WithClientRetry(n.Retry))
	if err != nil {
		return err
	}
	if _, err := replica.ResyncDataDir(ctx, n.Name, client, n.Data); err != nil {
		return fmt.Errorf("sor: resync: %w", err)
	}
	if err := rn.buildMember(ctx); err != nil {
		return err
	}
	rn.resyncs.Add(1)
	return nil
}

// startListeners binds the HTTP wire endpoint (with the debug surface)
// and the device stream endpoint, both dispatching through Handler().
func (rn *RunningNode) startListeners() error {
	n := rn.spec
	if n.Listen != "" {
		mux := n.Mux
		if mux == nil {
			mux = http.NewServeMux()
		}
		wireHandler, err := NewHTTPHandler(rn.Handler(), WithHandlerObserver(rn.obsv))
		if err != nil {
			return err
		}
		mux.Handle(ServerPath, wireHandler)
		if n.Role != RoleRouter {
			peers, err := session.NewServer(rn.Handler(), session.NewRegistry())
			if err != nil {
				return err
			}
			rn.peers = peers
			mux.Handle(session.UpgradePath, peers.UpgradeHandler())
		}
		RegisterDebug(mux, rn.obsv)
		replica.RegisterDebug(mux, rn.replicaStatus)
		if n.Role == RoleRouter {
			cluster.RegisterDebug(mux, func() ClusterStatus { return rn.router.Status() })
		}
		ln, err := net.Listen("tcp", n.Listen)
		if err != nil {
			return err
		}
		rn.httpLn = ln
		rn.httpServer = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		rn.wg.Add(1)
		go func() {
			defer rn.wg.Done()
			_ = rn.httpServer.Serve(ln)
		}()
	}
	if n.StreamListen != "" {
		if n.Role == RoleRouter {
			return errors.New("sor: routers serve HTTP only (streams pin a device to one node)")
		}
		ss, err := NewStreamServer(rn.Handler(), rn.sessions, WithStreamServerObserver(rn.obsv))
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", n.StreamListen)
		if err != nil {
			return err
		}
		rn.streamServer, rn.streamLn = ss, ln
		rn.wg.Add(1)
		go func() {
			defer rn.wg.Done()
			_ = ss.Serve(ln)
		}()
	}
	return nil
}

// Handler returns the node's dispatcher. The returned function is
// stable across a replica resync — it always reads the current
// dispatcher through the atomic pointer.
func (rn *RunningNode) Handler() Handler {
	return func(ctx context.Context, m wire.Message) (wire.Message, error) {
		return rn.handler.Load().(transport.Handler)(ctx, m)
	}
}

// Server returns the node's sensing server (nil for a router, and nil
// mid-resync).
func (rn *RunningNode) Server() *Server {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return rn.srv
}

// Addr is the HTTP wire endpoint's bound address ("" without Listen).
func (rn *RunningNode) Addr() string {
	if rn.httpLn == nil {
		return ""
	}
	return rn.httpLn.Addr().String()
}

// StreamAddr is the device stream endpoint's bound address.
func (rn *RunningNode) StreamAddr() string {
	if rn.streamLn == nil {
		return ""
	}
	return rn.streamLn.Addr().String()
}

// Resyncs counts completed automatic snapshot-ship resyncs.
func (rn *RunningNode) Resyncs() uint64 { return rn.resyncs.Load() }

// roleName is the node's live role — it tracks Promote/Demote, so
// heartbeat replies (and cluster re-registration) stay truthful.
func (rn *RunningNode) roleName() string {
	if rn.spec.Role == RoleRouter {
		return RoleRouter
	}
	rn.mu.Lock()
	srv := rn.srv
	rn.mu.Unlock()
	if srv == nil || srv.IsReplica() {
		return RoleReplica
	}
	return RoleLeader
}

// appliedLSN is what this node reports in heartbeat replies: the
// follower's applied position, or the leader's log head.
func (rn *RunningNode) appliedLSN() uint64 {
	rn.mu.Lock()
	follower, durable := rn.follower, rn.durable
	rn.mu.Unlock()
	if follower != nil {
		return follower.Status().AppliedLSN
	}
	if durable != nil {
		return durable.WAL().LastLSN()
	}
	return 0
}

// replicaStatus feeds the /debug/replica endpoint.
func (rn *RunningNode) replicaStatus() replica.Status {
	rn.mu.Lock()
	follower, repl := rn.follower, rn.repl
	rn.mu.Unlock()
	switch {
	case follower != nil:
		self := follower.Status()
		return replica.Status{Role: "follower", LastLSN: self.AppliedLSN, Self: &self}
	case repl != nil:
		ls := repl.Status()
		return replica.Status{Role: ls.Role, LastLSN: ls.LastLSN, Followers: ls.Followers}
	default:
		return replica.Status{Role: "single"}
	}
}

// Promote turns a caught-up replica into a leader: the pull loop stops,
// replica mode ends, and scheduling state is rebuilt from the
// replicated log. The operator runbook still applies — wait for the
// applied LSN to reach the old leader's head first.
func (rn *RunningNode) Promote() error {
	rn.mu.Lock()
	srv, followerCancel := rn.srv, rn.followerCancel
	rn.followerCancel = nil
	rn.mu.Unlock()
	if srv == nil {
		return errors.New("sor: node has no server to promote")
	}
	if followerCancel != nil {
		followerCancel()
	}
	return srv.Promote()
}

// Demote is the first step of a planned failover: this node stops
// accepting mutations (refusing them retryably) so its log head freezes
// and a standby can catch up to it.
func (rn *RunningNode) Demote() error {
	rn.mu.Lock()
	srv := rn.srv
	rn.mu.Unlock()
	if srv == nil {
		return errors.New("sor: node has no server to demote")
	}
	srv.Demote()
	return nil
}

// ForgetFollower drops a decommissioned follower's retention pin so the
// leader's log can compact past it (the operator runbook's step before
// reclaiming disk; the follower rejoins via snapshot-ship resync).
func (rn *RunningNode) ForgetFollower(id string) {
	rn.mu.Lock()
	repl := rn.repl
	rn.mu.Unlock()
	if repl != nil {
		repl.Forget(id)
	}
}

// Checkpoint forces a durable checkpoint now: snapshot written, covered
// WAL segments truncated down to the follower retention floor.
func (rn *RunningNode) Checkpoint() error {
	rn.mu.Lock()
	durable := rn.durable
	rn.mu.Unlock()
	if durable == nil {
		return errors.New("sor: node has no durable backend")
	}
	return durable.Checkpoint()
}

// closeCore shuts the storage-owning half down, ending the leader role's
// resync sessions with it, and closes a router's member sessions. The
// run context is cancelled already, so it first waits for the processing
// loop: a graceful final drain folds before the storage closes, and a
// killed server's loop stops without one.
func (rn *RunningNode) closeCore() error {
	rn.mu.Lock()
	srv, repl, processing, router := rn.srv, rn.repl, rn.processing, rn.router
	rn.srv, rn.processing = nil, nil
	rn.mu.Unlock()
	if router != nil {
		_ = router.Close()
	}
	if processing != nil {
		<-processing
	}
	if repl != nil {
		repl.Close()
	}
	if srv != nil {
		return srv.Close()
	}
	return nil
}

// Close stops the node: listeners drain, the replication loop ends, and
// the storage backend closes (final checkpoint, WAL close).
func (rn *RunningNode) Close() error {
	rn.cancel()
	if rn.httpServer != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		peersDrained := make(chan struct{})
		go func() {
			defer close(peersDrained)
			if rn.peers != nil {
				// Hijacked peer sessions are invisible to the HTTP
				// server's Shutdown: drain them alongside it, so a
				// router gets the reply to every forward already taken.
				_ = rn.peers.Shutdown(shutdownCtx)
			}
		}()
		_ = rn.httpServer.Shutdown(shutdownCtx)
		<-peersDrained
		cancel()
	}
	if rn.streamServer != nil {
		_ = rn.streamServer.Close()
	}
	err := rn.closeCore()
	rn.wg.Wait()
	return err
}
