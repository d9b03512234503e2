package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sor"
	"sor/internal/cluster"
	"sor/internal/transport"
	"sor/internal/wire"
)

// bed is one started topology: real sor nodes on TCP loopback inside this
// process, plus the clients that drive them. Untraced, the nodes own
// their listeners (sor.Node.Listen / StreamListen). Traced, the nodes get
// no listeners and the harness mounts its own over RunningNode.Handler()
// wrapped in a timing shim, so every span comes from the harness's files.
type bed struct {
	dir    string  // data root; removed by close
	tr     *tracer // nil when untraced
	nodes  []*node
	closer []func()
}

func newBed(root string, tr *tracer) (*bed, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "bed-")
	if err != nil {
		return nil, err
	}
	return &bed{dir: dir, tr: tr}, nil
}

func (b *bed) close() {
	for i := len(b.closer) - 1; i >= 0; i-- {
		b.closer[i]()
	}
	for i := len(b.nodes) - 1; i >= 0; i-- {
		b.nodes[i].close()
	}
	_ = os.RemoveAll(b.dir)
}

// onClose registers a client teardown to run before the nodes stop.
func (b *bed) onClose(fn func()) { b.closer = append(b.closer, fn) }

func (b *bed) mapPath() string { return filepath.Join(b.dir, "cluster.json") }

// node is one cluster member or router of a bed.
type node struct {
	bed  *bed
	spec sor.Node
	obsv *sor.Observer

	mu sync.Mutex
	rn *sor.RunningNode // nil while crashed, and for a traced router

	// Traced mode only: harness-owned listeners, which stay up across a
	// crash of the node behind them.
	httpLn    net.Listener
	httpSrv   *http.Server
	streamLn  net.Listener
	streamSrv *sor.StreamServer
	served    sync.WaitGroup
}

// running returns the live node (nil while crashed).
func (n *node) running() *sor.RunningNode {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rn
}

func (n *node) server() *sor.Server { return n.running().Server() }

func (n *node) httpURL() string {
	if n.httpLn != nil {
		return "http://" + n.httpLn.Addr().String()
	}
	return "http://" + n.spec.Listen
}

func (n *node) streamAddr() string {
	if n.streamLn != nil {
		return n.streamLn.Addr().String()
	}
	return n.spec.StreamListen
}

// dispatch forwards to whichever RunningNode is currently behind the
// harness listeners.
func (n *node) dispatch(ctx context.Context, m wire.Message) (wire.Message, error) {
	rn := n.running()
	if rn == nil {
		return &wire.Ack{OK: false, Code: 503, Message: "bench: node is down"}, nil
	}
	return rn.Handler()(ctx, m)
}

// serveHTTP mounts h on a fresh loopback listener the harness owns.
func (n *node) serveHTTP(h sor.Handler) error {
	httpHandler, err := sor.NewHTTPHandler(h, sor.WithHandlerObserver(n.obsv))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.httpLn = ln
	n.httpSrv = &http.Server{Handler: httpHandler, ReadHeaderTimeout: 5 * time.Second}
	n.served.Add(1)
	go func() {
		defer n.served.Done()
		_ = n.httpSrv.Serve(ln)
	}()
	return nil
}

func (n *node) serveStream(h sor.Handler) error {
	reg := sor.NewSessionRegistry(sor.WithSessionMetrics(n.obsv.Metrics()))
	ss, err := sor.NewStreamServer(h, reg, sor.WithStreamServerObserver(n.obsv))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.streamLn, n.streamSrv = ln, ss
	n.served.Add(1)
	go func() {
		defer n.served.Done()
		_ = ss.Serve(ln)
	}()
	return nil
}

// memberSpec describes a leader or replica to start.
type memberSpec struct {
	name   string
	role   string
	shard  string // registers in the bed's cluster map when set
	leader *node  // replica only
	http   bool
	stream bool
	// parent names the span enclosing this node's handler span.
	parent  string
	catalog map[string][]sor.Feature
}

// startMember starts a durable leader or a pulling replica.
func (b *bed) startMember(ms memberSpec) (*node, error) {
	n := &node{bed: b, obsv: sor.NewObserver()}
	n.spec = sor.Node{
		Name:     ms.name,
		Role:     ms.role,
		Data:     filepath.Join(b.dir, ms.name),
		Observer: n.obsv,
		Catalog:  ms.catalog,
		// No timer-driven checkpoint: the harness checkpoints once, at the
		// same point of every run.
		DurableOptions: []sor.DurableOption{sor.WithSnapshotInterval(time.Hour)},
	}
	if ms.shard != "" {
		n.spec.Cluster, n.spec.Shard = b.mapPath(), ms.shard
	}
	if ms.leader != nil {
		n.spec.Leader = ms.leader.httpURL()
		n.spec.PullInterval = 10 * time.Millisecond
	}
	if b.tr != nil {
		h := b.tr.wrapHandler(spanLeader, ms.parent, n.dispatch)
		if ms.http {
			if err := n.serveHTTP(h); err != nil {
				return nil, err
			}
			n.spec.Advertise = n.httpURL()
		}
		if ms.stream {
			if err := n.serveStream(h); err != nil {
				return nil, err
			}
		}
	} else {
		if ms.http {
			n.spec.Listen = "127.0.0.1:0"
		}
		if ms.stream {
			n.spec.StreamListen = "127.0.0.1:0"
		}
	}
	b.nodes = append(b.nodes, n)
	if err := n.reopen(); err != nil {
		return nil, err
	}
	// Pin the ports the first start picked, so a reopened node is found
	// where its peers and clients left it.
	if n.spec.Listen != "" {
		n.spec.Listen = n.rn.Addr()
	}
	if n.spec.StreamListen != "" {
		n.spec.StreamListen = n.rn.StreamAddr()
	}
	return n, nil
}

// reopen starts (or restarts after crash) the node on its data dir.
func (n *node) reopen() error {
	rn, err := sor.StartNode(context.Background(), n.spec)
	if err != nil {
		return fmt.Errorf("starting %s: %w", n.spec.Name, err)
	}
	n.mu.Lock()
	n.rn = rn
	n.mu.Unlock()
	return nil
}

// crash abandons the node's storage the way a process kill would (no
// final checkpoint, no WAL flush) and releases its listeners. The page
// cache survives, so this is process-kill durability, not power loss.
func (n *node) crash() {
	n.mu.Lock()
	rn := n.rn
	n.rn = nil
	n.mu.Unlock()
	if rn == nil {
		return
	}
	if srv := rn.Server(); srv != nil {
		srv.Kill()
	}
	_ = rn.Close()
}

func (n *node) close() {
	if n.httpSrv != nil {
		_ = n.httpSrv.Close()
	}
	if n.streamSrv != nil {
		_ = n.streamSrv.Close()
	}
	n.served.Wait()
	n.mu.Lock()
	rn := n.rn
	n.rn = nil
	n.mu.Unlock()
	if rn != nil {
		_ = rn.Close()
	}
}

// startRouter starts the forwarding tier over the bed's cluster map,
// which the members have registered in and the caller has pinned.
func (b *bed) startRouter(name string) (*node, error) {
	n := &node{bed: b, obsv: sor.NewObserver()}
	b.nodes = append(b.nodes, n)
	if b.tr == nil {
		n.spec = sor.Node{Name: name, Role: sor.RoleRouter, Listen: "127.0.0.1:0",
			Cluster: b.mapPath(), Observer: n.obsv}
		if err := n.reopen(); err != nil {
			return nil, err
		}
		n.spec.Listen = n.rn.Addr()
		return n, nil
	}
	reg, err := cluster.LoadRegistry(b.mapPath())
	if err != nil {
		return nil, err
	}
	dial := func(addr string) (cluster.Sender, error) {
		c, err := transport.NewClient(addr)
		if err != nil {
			return nil, err
		}
		return timedSender{t: b.tr, next: c}, nil
	}
	rt, err := cluster.NewRouter(name, reg, dial, cluster.WithRouterMetrics(n.obsv.Metrics()))
	if err != nil {
		return nil, err
	}
	return n, n.serveHTTP(b.tr.wrapHandler(spanRouter, spanClient, rt.Handler()))
}

// pinCluster records app→category aliases and category→shard pins in the
// bed's cluster map (authored out of band, as sorctl would).
func (b *bed) pinCluster(appCategory map[string]string, pins map[string]string) error {
	reg, err := cluster.LoadRegistry(b.mapPath())
	if err != nil {
		return err
	}
	for app, cat := range appCategory {
		reg.RegisterApp(app, cat)
	}
	for cat, shard := range pins {
		reg.PinKey(cat, shard)
	}
	return nil
}

// sender is what a closed-loop client drives: both sor.Client (HTTP) and
// sor.StreamClient satisfy it.
type sender interface {
	Send(ctx context.Context, m wire.Message) (wire.Message, error)
}

// httpClient dials a node's HTTP endpoint with its own keep-alive pool.
func (b *bed) httpClient(n *node) (sender, error) {
	tp := &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}
	c, err := sor.NewClient(n.httpURL(),
		sor.WithClientHTTP(&http.Client{Transport: tp, Timeout: 30 * time.Second}))
	if err != nil {
		return nil, err
	}
	b.onClose(tp.CloseIdleConnections)
	return c, nil
}

// streamClient opens one persistent device session to a node.
func (b *bed) streamClient(n *node, token string) (sender, error) {
	c, err := sor.DialStream(n.streamAddr(), token)
	if err != nil {
		return nil, err
	}
	b.onClose(func() { _ = c.Close() })
	return c, nil
}

// errRefused marks an op the server answered but did not accept.
var errRefused = errors.New("refused")

// expectAck checks a reply is an accepting Ack.
func expectAck(resp wire.Message, err error) (*wire.Ack, error) {
	if err != nil {
		return nil, err
	}
	ack, ok := resp.(*wire.Ack)
	if !ok {
		return nil, fmt.Errorf("%w: answered %s, want ack", errRefused, resp.Type())
	}
	if !ack.OK {
		return nil, fmt.Errorf("%w: %d %s", errRefused, ack.Code, ack.Message)
	}
	return ack, nil
}
