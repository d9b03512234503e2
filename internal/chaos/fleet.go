package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"sor/internal/frontend"
	"sor/internal/obs"
	"sor/internal/server"
	"sor/internal/transport"
	"sor/internal/transport/session"
	"sor/internal/wire"
)

// Faults is a fleet scenario's fault schedule. The zero value is the
// fault-free run every chaotic run must converge to. Faults compose freely
// across transport and storage, except that only a durable server comes
// back from a kill and only stream sessions have connections to cut.
type Faults struct {
	// RequestLoss is the probability a one-shot HTTP request is dropped
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
	// uploading: requests and dials are refused and every live stream
	// session is severed. Zero skips it.
	Partition time.Duration
	// ServerKills is how many times the server process is killed -9 (no
	// final checkpoint, no WAL flush, listener gone) and recovered from its
	// data dir mid-run. Kill points are request-count thresholds drawn from
	// the seed, with a time fallback so a quiet network cannot stall them.
	ServerKills int
	// ConnKills is how many times every live client connection is severed
	// (~15 ms apart) while the fleet executes; the server itself survives.
	ConnKills int
	// MidBatchKills severs every connection right after the server
	// commits an upload (single or batched) but before its reply leaves,
	// this many times. The client cannot tell delivery from loss and must
	// retransmit; only ReportID dedup keeps the store exactly-once.
	MidBatchKills int
}

// Fleet is one wall-clock scenario: a fleet of simulated phones taken
// through participation → sensing → upload against one sensing server.
type Fleet struct {
	// Phones is the fleet size and Budget each phone's sensing budget
	// (default 4 each).
	Phones, Budget int
	// Seed drives every random stream in the run: the fault schedule, the
	// phones' sensor noise, the retry jitter and the kill points.
	Seed int64
	// Stream selects the transport: one multiplexed session per phone
	// (schedules arrive as server pushes) instead of one-shot HTTP.
	Stream bool
	// Durable selects the storage: a snapshot + WAL backend rooted at
	// DataDir instead of process memory.
	Durable bool
	DataDir string
	Faults
	// Observer, when set, instruments the whole run — server, transport
	// and every phone's outbox share it, so its registry aggregates the
	// fleet and its tracer sees one request's spans across all hops.
	Observer *obs.Observer
}

// Clean is the scenario with its faults off: the baseline.
func (sc Fleet) Clean() Fleet {
	sc.Faults = Faults{}
	return sc
}

// fleetTimeout bounds one run.
const fleetTimeout = 120 * time.Second

// fleetLink is the transport seam: how the phones reach whichever server
// incarnation is alive.
type fleetLink interface {
	// serve exposes a fresh incarnation on a fresh listener.
	serve(h transport.Handler) error
	// sever takes the listener down with its host: until the next serve,
	// requests fail the way they would against a dead process.
	sever()
	// closeConns cuts every live connection; the listener stays.
	closeConns()
	// sender is phone i's way in, authenticating as token. onResume runs
	// whenever a persistent connection is re-established (one-shot
	// transports never call it).
	sender(i int, token string, onResume func()) (frontend.Sender, error)
	// collect adds the transport's telemetry to res.
	collect(res *Result)
	close()
}

// httpLink is the one-shot transport: every phone shares one retrying
// client, and the fault injector sits in front of the server as HTTP
// middleware. The link is also the client's RoundTripper, rewriting every
// request onto whichever httptest listener is live; with none (the server
// is down) the request fails the way it would against a dead host, and
// the outbox absorbs it like any other fault.
type httpLink struct {
	fi      *transport.FaultInjector
	obsv    *obs.Observer
	attempt func()
	client  *transport.Client
	ts      *httptest.Server

	mu   sync.RWMutex
	host string // the live listener; "" while the server is down
}

func newHTTPLink(fi *transport.FaultInjector, sc Fleet, attempt func()) (*httpLink, error) {
	l := &httpLink{fi: fi, obsv: sc.Observer, attempt: attempt}
	// Tight client retry budget: the soak wants the *outbox* to absorb the
	// faults, so individual sends give up fast and park the report. The
	// base URL is a placeholder; RoundTrip reroutes every request.
	client, err := transport.NewClient("http://sor-soak.invalid",
		transport.WithRetry(transport.Retry{
			Attempts: 3, Base: time.Millisecond, Cap: 20 * time.Millisecond, Seed: jitterSeed(sc.Seed, 0),
		}),
		transport.WithHTTPClient(&http.Client{Transport: l}),
		transport.WithObserver(sc.Observer),
	)
	l.client = client
	return l, err
}

func (l *httpLink) route(host string) {
	l.mu.Lock()
	l.host = host
	l.mu.Unlock()
}

func (l *httpLink) RoundTrip(req *http.Request) (*http.Response, error) {
	l.attempt()
	l.mu.RLock()
	host := l.host
	l.mu.RUnlock()
	if host == "" {
		return nil, errors.New("chaos: server is down")
	}
	clone := req.Clone(req.Context())
	clone.URL.Scheme = "http"
	clone.URL.Host = host
	clone.Host = host
	return http.DefaultTransport.RoundTrip(clone)
}

func (l *httpLink) serve(h transport.Handler) error {
	httpHandler, err := transport.NewHTTPHandler(h, transport.WithHandlerObserver(l.obsv))
	if err != nil {
		return err
	}
	l.close() // the dead incarnation's listener, if any
	l.ts = httptest.NewServer(l.fi.Handler(httpHandler))
	l.route(l.ts.Listener.Addr().String())
	return nil
}

func (l *httpLink) sever() { l.route("") }

// closeConns is never reached: one-shot requests hold no session to cut,
// so RunFleet rejects connection kills without Stream (AckLoss is the
// one-shot form of "committed, then the reply died").
func (l *httpLink) closeConns() {}

func (l *httpLink) sender(int, string, func()) (frontend.Sender, error) { return l.client, nil }

func (l *httpLink) collect(res *Result) { res.Client = l.client.Stats() }

func (l *httpLink) close() {
	if l.ts != nil {
		l.ts.Close()
	}
}

// streamLink is the persistent transport: one session per phone through a
// fault-injecting dialer, with the session registry doubling as the
// server's push fabric. TCP gives the stream reliable delivery, so its
// chaos is connection-shaped.
type streamLink struct {
	fi       *transport.FaultInjector
	obsv     *obs.Observer
	seed     int64
	attempt  func()
	registry *session.Registry

	mu    sync.Mutex
	ss    *session.Server
	addr  string
	conns []*session.Client
}

func newStreamLink(fi *transport.FaultInjector, sc Fleet, attempt func()) *streamLink {
	return &streamLink{fi: fi, obsv: sc.Observer, seed: sc.Seed, attempt: attempt,
		registry: session.NewRegistry(session.WithRegistryMetrics(sc.Observer.Metrics()))}
}

func (l *streamLink) live() (*session.Server, string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ss, l.addr
}

func (l *streamLink) serve(h transport.Handler) error {
	counted := func(ctx context.Context, m wire.Message) (wire.Message, error) {
		l.attempt()
		return h(ctx, m)
	}
	ss, err := session.NewServer(counted, l.registry, session.WithServerObserver(l.obsv))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = ss.Serve(ln) }() // returns when ss is closed (sever/close)
	l.mu.Lock()
	l.ss, l.addr = ss, ln.Addr().String()
	l.mu.Unlock()
	return nil
}

func (l *streamLink) sever() {
	if ss, _ := l.live(); ss != nil {
		_ = ss.Close()
	}
}

func (l *streamLink) closeConns() {
	if ss, _ := l.live(); ss != nil {
		ss.CloseConns()
	}
}

func (l *streamLink) sender(i int, token string, onResume func()) (frontend.Sender, error) {
	faulty := session.FaultDialer(l.fi, func(ctx context.Context) (net.Conn, error) {
		_, addr := l.live()
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	})
	dial := func(ctx context.Context) (net.Conn, error) {
		l.attempt()
		return faulty(ctx)
	}
	conn, err := session.NewClient(dial, token,
		session.WithClientRetry(transport.Retry{
			Attempts: 6, Base: time.Millisecond, Cap: 20 * time.Millisecond, Seed: jitterSeed(l.seed, i),
		}),
		session.WithClientObserver(l.obsv),
		session.WithOnResume(onResume),
	)
	if err != nil {
		return nil, err
	}
	l.conns = append(l.conns, conn)
	return conn, nil
}

func (l *streamLink) collect(res *Result) {
	for _, conn := range l.conns {
		cs := conn.Stats()
		res.Client.Sends += cs.Sends
		res.Client.Retries += cs.Retries
		res.Reconnects += cs.Reconnects
		res.PushesReceived += cs.PushesReceived
	}
	res.WakesSent = l.registry.Sent()
}

func (l *streamLink) close() {
	for _, conn := range l.conns {
		_ = conn.Close()
	}
	l.sever()
}

// fleetHost is the storage seam: it owns the live server incarnation and
// knows how to (re)start one behind the link.
type fleetHost struct {
	sc   Fleet
	link fleetLink
	push transport.Notifier

	armed    atomic.Bool  // set after the clean join phase
	attempts atomic.Int64 // post-arm tries at reaching the server; kill points key on it
	midBatch atomic.Int64 // mid-batch kills still to fire

	mu       sync.Mutex
	srv      *server.Server
	restarts int
}

// start boots an incarnation — fresh in memory, or recovered from DataDir
// — and exposes it on the link.
func (h *fleetHost) start() error {
	var srv *server.Server
	var err error
	if h.sc.Durable {
		// Small segments and a short checkpoint cadence, so kills land
		// before, during and after checkpoints and segment rotations.
		_, srv, err = durableNode{segmentBytes: 4096, checkpoint: 75 * time.Millisecond,
			push: h.push, observer: h.sc.Observer}.open(h.sc.DataDir, true)
		if err == nil && h.srv == nil {
			// Later incarnations recover the app from disk.
			if err = srv.CreateApp(fleetApp.store()); err != nil {
				srv.Kill()
			}
		}
	} else {
		srv, err = newSoakServer(h.push, h.sc.Observer)
	}
	if err != nil {
		return err
	}
	h.srv = srv
	return h.link.serve(h.dispatch(srv.Handler()))
}

// attempt is the links' hook: one try at reaching the server — an HTTP
// round trip, a stream dial, a request frame — whether or not it arrives.
func (h *fleetHost) attempt() {
	if h.armed.Load() {
		h.attempts.Add(1)
	}
}

// dispatch wraps an incarnation's handler with the mid-batch kill: the
// upload commits, then every connection dies before the ack leaves the
// server.
func (h *fleetHost) dispatch(next transport.Handler) transport.Handler {
	return func(ctx context.Context, m wire.Message) (wire.Message, error) {
		resp, err := next(ctx, m)
		switch m.(type) {
		case *wire.DataUpload, *wire.DataUploadBatch:
			if err == nil && h.midBatch.Add(-1) >= 0 {
				h.link.closeConns()
			}
		}
		return resp, err
	}
}

// restart kills the live incarnation the way a crash would, then recovers
// a fresh one from whatever the dead process left on disk.
func (h *fleetHost) restart() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.link.sever()
	h.srv.Kill()
	h.restarts++
	return h.start()
}

// stop shuts the link and the current incarnation down cleanly.
func (h *fleetHost) stop() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.link.close()
	if h.srv != nil {
		_ = h.srv.Close()
	}
}

// killServer runs the server-kill controller: n restarts, each once the
// attempt count passes a seeded threshold or 400 ms elapse. Where kills
// land need not be reproducible — the contract is that the converged
// state is identical NO MATTER where they land. The channel yields the
// first restart error, then closes.
func (h *fleetHost) killServer(ctx context.Context, n int) <-chan error {
	done := make(chan error, 1)
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(h.sc.Seed ^ 0x5deece66d))
		for k := 0; k < n; k++ {
			target := h.attempts.Load() + 2 + rng.Int63n(16)
			deadline := time.Now().Add(400 * time.Millisecond)
			for h.attempts.Load() < target && time.Now().Before(deadline) && ctx.Err() == nil {
				time.Sleep(2 * time.Millisecond)
			}
			if ctx.Err() != nil {
				return
			}
			if err := h.restart(); err != nil {
				done <- err
				return
			}
		}
	}()
	return done
}

// killConns runs the connection-kill controller and returns its stop
// function, which waits for the controller to exit.
func (h *fleetHost) killConns(ctx context.Context, n int) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < n; k++ {
			select {
			case <-time.After(15 * time.Millisecond):
				h.link.closeConns()
			case <-ctx.Done():
				return
			}
		}
	}()
	return func() { cancel(); wg.Wait() }
}

// fleetPhone is one joined phone: its frontend and the schedule it got.
type fleetPhone struct {
	fe    *frontend.Frontend
	sched *wire.Schedule
}

// eachPhone runs one phase on every phone concurrently and returns the
// first phone's failure, if any.
func eachPhone(phones []fleetPhone, phase string, fn func(fleetPhone) error) error {
	errs := make([]error, len(phones))
	var wg sync.WaitGroup
	for i := range phones {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(phones[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("chaos: phone %d %s: %w", i, phase, err)
		}
	}
	return nil
}

// RunFleet drives one fleet scenario and returns the converged state. The
// sequence is the same for every transport, storage and fault mix: clean
// join (faults off, so every run computes identical schedules), chaos on
// with a partition dropping on the fleet as it uploads, concurrent task
// execution parking reports in device outboxes, heal, push-style ping
// wake-ups and flush-until-drained while loss and kills continue, a final
// flush once the last kill has landed, then one processing pass and a
// state snapshot. The exactly-once contract under test: every report the
// server acked survives every kill (ack-after-write), none is stored or
// budget-charged twice, and the state equals the scenario's Clean() run.
func RunFleet(sc Fleet) (*Result, error) {
	if sc.Phones <= 0 {
		sc.Phones = 4
	}
	if sc.Budget <= 0 {
		sc.Budget = 4
	}
	if sc.Durable && sc.DataDir == "" {
		return nil, errors.New("chaos: durable fleet scenario needs a data dir")
	}
	if sc.ServerKills > 0 && !sc.Durable {
		return nil, errors.New("chaos: only a durable server can recover from kills")
	}
	if (sc.ConnKills > 0 || sc.MidBatchKills > 0) && !sc.Stream {
		return nil, errors.New("chaos: connection kills need the stream transport")
	}
	place, err := soakPlace()
	if err != nil {
		return nil, err
	}
	// One injector for the whole run, surviving every restart, so one
	// seeded fault stream spans it.
	fi := transport.NewFaultInjector(transport.FaultConfig{
		Seed:         sc.Seed,
		RequestLoss:  sc.RequestLoss,
		ResponseLoss: sc.AckLoss,
		SpikeProb:    sc.SpikeProb,
		Spike:        sc.Spike,
	})
	h := &fleetHost{sc: sc}
	h.midBatch.Store(int64(sc.MidBatchKills))
	if sc.Stream {
		sl := newStreamLink(fi, sc, h.attempt)
		h.link, h.push = sl, sl.registry
	} else if h.link, err = newHTTPLink(fi, sc, h.attempt); err != nil {
		return nil, err
	}
	defer h.stop()
	if err := h.start(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), fleetTimeout)
	defer cancel()

	// Join phase, faults off and kills unarmed: every run — chaotic or
	// clean — must hand the fleet identical schedules, or "byte-identical
	// convergence" would be comparing different experiments.
	fi.SetEnabled(false)
	phones := make([]fleetPhone, sc.Phones)
	for i := range phones {
		// Reconnect resume drains the outbox: reports in flight when a
		// stream died are retransmitted and deduped server-side.
		var fe *frontend.Frontend
		token := fmt.Sprintf("%s-token-%d", fleetApp.prefix, i)
		sender, err := h.link.sender(i, token, func() { _ = fe.FlushOutbox(context.Background()) })
		if err != nil {
			return nil, err
		}
		fe, err = newSoakFrontend(fmt.Sprintf("%s-phone-%d", fleetApp.prefix, i), token,
			place, sc.Seed+int64(i), sender,
			transport.Retry{Base: time.Millisecond, Cap: 20 * time.Millisecond, Seed: jitterSeed(sc.Seed, i)},
			sc.Observer)
		if err != nil {
			return nil, err
		}
		sched, err := fe.Participate(ctx, fmt.Sprintf("%s-user-%d", fleetApp.prefix, i), fleetApp.id, sc.Budget, 3*time.Hour)
		if err != nil {
			return nil, fmt.Errorf("chaos: phone %d join: %w", i, err)
		}
		phones[i] = fleetPhone{fe: fe, sched: sched}
	}

	// Chaos on. The partition drops on the fleet right as it starts
	// sensing, so first upload attempts fail and reports park in outboxes.
	fi.SetEnabled(true)
	h.armed.Store(true)
	if sc.Partition > 0 {
		heal := fi.PartitionFor(sc.Partition)
		defer heal.Stop()
	}
	serverKills := h.killServer(ctx, sc.ServerKills)
	defer func() { // no restart may outlive the run (and race h.stop)
		cancel()
		for range serverKills {
		}
	}()
	stopConnKills := h.killConns(ctx, sc.ConnKills)
	defer stopConnKills()

	// Transport failures park the report and return success; an error here
	// means the server *refused* a report, which chaos never excuses.
	if err := eachPhone(phones, "execute", func(p fleetPhone) error {
		_, err := p.fe.ExecuteSchedule(ctx, p.sched)
		return err
	}); err != nil {
		return nil, err
	}

	// Recovery: heal (idempotent if the timer already fired), stop cutting
	// connections, deliver the push-channel wake-up, and flush until every
	// outbox drains — with loss and server kills still active, so the
	// drain itself is chaotic.
	fi.HealPartition()
	stopConnKills()
	if err := eachPhone(phones, "flush", func(p fleetPhone) error {
		// Best-effort ping: it both announces the phone and triggers an
		// opportunistic drain; the flush retries regardless.
		_ = p.fe.HandlePing(ctx)
		return p.fe.FlushOutbox(ctx)
	}); err != nil {
		return nil, err
	}
	// Wait for any kill still pending its threshold, then flush again: the
	// last kill may have severed acks for reports the flush above already
	// counted delivered-or-parked.
	if err := <-serverKills; err != nil {
		return nil, err
	}
	for i, p := range phones {
		if p.fe.Outbox().Pending() > 0 {
			if err := p.fe.FlushOutbox(ctx); err != nil {
				return nil, fmt.Errorf("chaos: phone %d final flush: %w", i, err)
			}
		}
	}
	if h.restarts != sc.ServerKills {
		return nil, fmt.Errorf("chaos: %d kills requested, %d performed", sc.ServerKills, h.restarts)
	}

	srv := h.srv
	srv.Processor().Process()
	stored, decodeErrs := srv.Processor().Stats()
	if decodeErrs > 0 {
		return nil, fmt.Errorf("chaos: %d uploads failed to decode", decodeErrs)
	}
	res := &Result{
		Executed:      srv.ExecutedInstants(fleetApp.id),
		Ledger:        srv.BudgetLedger(fleetApp.id),
		Stored:        stored,
		SeenReports:   srv.DB().SeenReportIDs(fleetApp.id),
		UploadsStored: srv.DB().UploadCount(),
		Fault:         fi.Stats(),
	}
	for _, row := range srv.DB().FeaturesByCategory(fleetApp.category) {
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
	h.link.collect(res)
	return res, nil
}
