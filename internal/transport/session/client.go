package session

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sor/internal/obs"
	"sor/internal/transport"
	"sor/internal/wire"
)

// ErrSessionLost marks a request that was in flight when the stream died:
// the server may or may not have processed it, exactly like a lost HTTP
// response. Callers retry and rely on ReportID dedup, which is what the
// device outbox already does.
var ErrSessionLost = errors.New("session: connection lost")

// ErrClientClosed marks use after Close.
var ErrClientClosed = errors.New("session: client closed")

// ErrRequestTimeout marks a request that got no reply within the
// client's request bound (peer clients only; see DialPeer).
var ErrRequestTimeout = errors.New("session: no reply within the request bound")

// Dialer opens the raw stream a session runs over. Tests inject net.Pipe;
// production uses a TCP dialer (Dial); chaos wraps it with a
// FaultInjector so partitions refuse dials and sever live conns.
type Dialer func(ctx context.Context) (net.Conn, error)

// Client is the device side of the stream transport. It implements
// transport.Conn: Send/SendBatch multiplex over one long-lived connection
// by correlation id, Events delivers server-initiated pushes, and a dead
// connection is re-dialed automatically with capped full-jitter backoff
// (the shared transport.Backoff). On every resume the OnResume hook runs
// — the frontend hangs its outbox drain there, so reports that were in
// flight when the stream died are redelivered and deduped by ReportID:
// exactly-once across connection death. Safe for concurrent use.
type Client struct {
	dial    Dialer
	token   string
	retries int
	backoff *transport.Backoff
	monitor *transport.RetryMonitor
	obsv    *obs.Observer
	// timeout bounds each Send from its call to its reply, a dial it
	// makes included (0 = bounded by the caller's context only).
	timeout time.Duration

	events        chan wire.Message
	eventsDropped atomic.Int64

	mu            sync.Mutex
	cc            *clientConn
	dialing       bool
	dialDone      chan struct{}
	nextID        uint64
	closed        bool
	everConnected bool
	lastWelcome   Welcome
	onResume      func()

	sends      atomic.Int64
	reconnects atomic.Int64
	pushes     atomic.Int64

	// backoff envelope captured before the Backoff is built; seed 0 =
	// seed from the wall clock.
	base, cap time.Duration
	seed      int64
}

// clientConn is one live connection's multiplexing state.
type clientConn struct {
	conn net.Conn

	wmu sync.Mutex // frame write serialization

	mu      sync.Mutex
	waiters map[uint64]waiter
	dead    bool
	// sweep enforces the waiters' deadlines: one timer, armed at the
	// earliest pending deadline (sweepAt), instead of one per request.
	sweep   *time.Timer
	sweepAt time.Time

	done chan struct{}
}

type result struct {
	msg wire.Message
	err error
}

// waiter is one in-flight request: where its reply goes, and by when it
// must arrive (zero without a request bound).
type waiter struct {
	ch       chan result
	deadline time.Time
}

// ClientOption configures NewClient/Dial.
type ClientOption func(*Client)

// WithClientRetry applies a transport.Retry envelope: how many times a
// Send survives a dead connection before giving up (default 2, like the
// HTTP client) and the reconnect backoff (default 50 ms base, 2 s cap —
// full jitter via transport.Backoff).
func WithClientRetry(r transport.Retry) ClientOption {
	return func(c *Client) {
		c.retries = r.ResolveAttempts(c.retries)
		c.base = r.ResolveBase(c.base)
		c.cap = r.ResolveCap(c.cap)
		c.seed = r.ResolveSeed(c.seed)
	}
}

// WithClientObserver routes the client's retry series into o's registry.
func WithClientObserver(o *obs.Observer) ClientOption {
	return func(c *Client) { c.obsv = o }
}

// WithEventBuffer sizes the Events channel (default 64). When a consumer
// falls behind, the oldest unread pushes are dropped and counted — pushes
// are hints, never the source of truth.
func WithEventBuffer(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.events = make(chan wire.Message, n)
		}
	}
}

// WithOnResume installs the resume hook, called (on its own goroutine)
// after every successful reconnect. The frontend drains its outbox here.
func WithOnResume(fn func()) ClientOption {
	return func(c *Client) { c.onResume = fn }
}

// NewClient builds a stream client over dial, authenticating as token.
// The first connection is made lazily on first Send.
func NewClient(dial Dialer, token string, opts ...ClientOption) (*Client, error) {
	if dial == nil {
		return nil, errors.New("session: nil dialer")
	}
	if token == "" {
		return nil, errors.New("session: empty device token")
	}
	c := &Client{
		dial:     dial,
		token:    token,
		retries:  2,
		base:     50 * time.Millisecond,
		cap:      2 * time.Second,
		events:   make(chan wire.Message, 64),
		dialDone: make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	c.backoff = transport.NewBackoff(c.base, c.cap, transport.Retry{Seed: c.seed}.ResolveSeed(time.Now().UnixNano()))
	c.monitor = transport.NewRetryMonitor(c.obsv.Metrics())
	return c, nil
}

// Dial builds a stream client over TCP to addr (host:port).
func Dial(addr, token string, opts ...ClientOption) (*Client, error) {
	var d net.Dialer
	return NewClient(func(ctx context.Context) (net.Conn, error) {
		return d.DialContext(ctx, "tcp", addr)
	}, token, opts...)
}

// FaultDialer wraps dial with a FaultInjector: dials are refused while
// partitioned, and every connection it hands out is severed the moment a
// partition starts — partitions kill live sessions, not just requests.
func FaultDialer(fi *transport.FaultInjector, dial Dialer) Dialer {
	return func(ctx context.Context) (net.Conn, error) {
		if fi.Partitioned() {
			return nil, transport.ErrPartitioned
		}
		conn, err := dial(ctx)
		if err != nil {
			return nil, err
		}
		return fi.SeverOnPartition(conn), nil
	}
}

var _ transport.Conn = (*Client)(nil)

// Events implements transport.Conn: server-initiated schedule pushes,
// wake-up pings, and epoch invalidations. Never closed; drain in a
// select.
func (c *Client) Events() <-chan wire.Message { return c.events }

// ClientStats snapshots the stream client's counters.
type ClientStats struct {
	Sends          int64 // Send calls
	Retries        int64 // attempts beyond each call's first (shared monitor)
	Reconnects     int64 // successful re-dials after a lost connection
	PushesReceived int64 // server-initiated messages delivered to Events
	PushesDropped  int64 // pushes evicted because Events was full
}

// Stats snapshots the counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Sends:          c.sends.Load(),
		Retries:        c.monitor.Stats().Retries,
		Reconnects:     c.reconnects.Load(),
		PushesReceived: c.pushes.Load(),
		PushesDropped:  c.eventsDropped.Load(),
	}
}

// Send implements transport.Conn. The message is encoded once (with its
// trace RequestID, same as HTTP) and retransmitted verbatim across
// connection deaths, up to retries re-dials with full-jitter backoff
// between attempts.
func (c *Client) Send(ctx context.Context, m wire.Message) (wire.Message, error) {
	requestID := obs.RequestIDFrom(ctx)
	if requestID == "" {
		requestID = obs.NewRequestID()
		ctx = obs.WithRequestID(ctx, requestID)
	}
	body, err := wire.EncodeTraced(m, string(requestID))
	if err != nil {
		return nil, fmt.Errorf("session: encode: %w", err)
	}
	c.sends.Add(1)
	var deadline time.Time
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			delay := c.backoff.Delay(attempt - 1)
			c.monitor.ObserveRetry(attempt, delay, lastErr)
			wake := time.NewTimer(delay)
			select {
			case <-wake.C:
			case <-ctx.Done():
				wake.Stop()
				return nil, fmt.Errorf("session: cancelled: %w", ctx.Err())
			}
		}
		cc, err := c.conn(ctx, deadline)
		if err != nil {
			if errors.Is(err, ErrClientClosed) || ctx.Err() != nil {
				return nil, err
			}
			lastErr = err
			continue
		}
		resp, err := c.roundTrip(ctx, cc, body, deadline)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			lastErr = err
			continue
		}
		return resp, nil
	}
	c.monitor.ObserveExhausted()
	return nil, fmt.Errorf("session: giving up after %d attempts: %w", c.retries+1, lastErr)
}

// SendBatch implements transport.Conn, mirroring the HTTP client's batch
// coalescing.
func (c *Client) SendBatch(ctx context.Context, uploads []*wire.DataUpload) (*wire.Ack, error) {
	if len(uploads) == 0 {
		return nil, errors.New("session: empty upload batch")
	}
	if len(uploads) > wire.MaxBatchReports {
		return nil, fmt.Errorf("session: batch of %d exceeds %d reports",
			len(uploads), wire.MaxBatchReports)
	}
	batch := &wire.DataUploadBatch{Uploads: make([]wire.DataUpload, len(uploads))}
	for i, up := range uploads {
		if up == nil {
			return nil, fmt.Errorf("session: nil upload at %d", i)
		}
		batch.Uploads[i] = *up
	}
	resp, err := c.Send(ctx, batch)
	if err != nil {
		return nil, err
	}
	ack, ok := resp.(*wire.Ack)
	if !ok {
		return nil, fmt.Errorf("session: batch response was %s, want ack", resp.Type())
	}
	return ack, nil
}

// Close implements transport.Conn: the stream is torn down and every
// in-flight Send fails with ErrSessionLost.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	cc := c.cc
	c.cc = nil
	c.mu.Unlock()
	if cc != nil {
		cc.fail(ErrClientClosed)
	}
	return nil
}

// conn returns the live connection, dialing and handshaking (single
// flight) when there is none; a nonzero deadline bounds a dial it makes.
func (c *Client) conn(ctx context.Context, deadline time.Time) (*clientConn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClientClosed
		}
		if c.cc != nil {
			cc := c.cc
			c.mu.Unlock()
			return cc, nil
		}
		if !c.dialing {
			c.dialing = true
			c.mu.Unlock()
			break
		}
		wait := c.dialDone
		c.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	dctx := ctx
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		dctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	cc, welcome, err := c.dialOnce(dctx)

	c.mu.Lock()
	c.dialing = false
	close(c.dialDone)
	c.dialDone = make(chan struct{})
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if c.closed {
		c.mu.Unlock()
		cc.fail(ErrClientClosed)
		return nil, ErrClientClosed
	}
	c.cc = cc
	c.lastWelcome = welcome
	resumed := c.everConnected
	c.everConnected = true
	hook := c.onResume
	c.mu.Unlock()

	go c.readLoop(cc)
	if resumed {
		c.reconnects.Add(1)
		// Resume: the outbox drain (or whatever the owner hung here) runs
		// off the Send path so it cannot deadlock against the caller.
		if hook != nil {
			go hook()
		}
	}
	return cc, nil
}

// dialOnce makes one connection attempt: dial, hello, welcome.
func (c *Client) dialOnce(ctx context.Context) (*clientConn, Welcome, error) {
	conn, err := c.dial(ctx)
	if err != nil {
		return nil, Welcome{}, err
	}
	// A ctx deadline bounds the handshake too: a peer that accepts and
	// then says nothing must not hold the dial (and every Send waiting on
	// it) forever.
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
		defer func() { _ = conn.SetDeadline(time.Time{}) }()
	}
	hello := Hello{Proto: ProtoVersion, Token: c.token, Caps: SupportedCaps}
	if err := WriteFrame(conn, Frame{Kind: KindHello, Payload: EncodeHello(hello)}); err != nil {
		_ = conn.Close()
		return nil, Welcome{}, err
	}
	wf, err := ReadFrame(conn)
	if err != nil {
		_ = conn.Close()
		return nil, Welcome{}, err
	}
	if wf.Kind != KindWelcome {
		_ = conn.Close()
		return nil, Welcome{}, errors.New("session: handshake reply was not a welcome")
	}
	welcome, err := DecodeWelcome(wf.Payload)
	if err != nil {
		_ = conn.Close()
		return nil, Welcome{}, err
	}
	if welcome.Proto == 0 || welcome.Proto > ProtoVersion {
		_ = conn.Close()
		return nil, Welcome{}, fmt.Errorf("session: server negotiated unusable protocol %d", welcome.Proto)
	}
	cc := &clientConn{
		conn:    conn,
		waiters: make(map[uint64]waiter),
		done:    make(chan struct{}),
	}
	return cc, welcome, nil
}

// readLoop delivers replies to their waiters and pushes to Events until
// the connection dies.
func (c *Client) readLoop(cc *clientConn) {
	for {
		f, err := ReadFrame(cc.conn)
		if err != nil {
			c.lostConn(cc, err)
			return
		}
		switch f.Kind {
		case KindReply:
			msg, derr := wire.Decode(f.Payload)
			cc.deliver(f.ID, result{msg: msg, err: derr})
		case KindPush:
			msg, derr := wire.Decode(f.Payload)
			if derr != nil {
				continue
			}
			c.pushes.Add(1)
			select {
			case c.events <- msg:
			default:
				// Consumer is behind: make room by dropping the oldest
				// unread push, then deliver the newest.
				select {
				case <-c.events:
					c.eventsDropped.Add(1)
				default:
				}
				select {
				case c.events <- msg:
				default:
					c.eventsDropped.Add(1)
				}
			}
		default:
			c.lostConn(cc, fmt.Errorf("%w: unexpected frame kind %d", ErrBadFrame, f.Kind))
			return
		}
	}
}

// lostConn tears down a dead connection: waiters fail with
// ErrSessionLost and the next Send re-dials.
func (c *Client) lostConn(cc *clientConn, cause error) {
	c.mu.Lock()
	if c.cc == cc {
		c.cc = nil
	}
	c.mu.Unlock()
	cc.fail(fmt.Errorf("%w: %v", ErrSessionLost, cause))
}

// roundTrip sends one pre-encoded request on cc and waits for its reply,
// failing with ErrRequestTimeout if a nonzero deadline passes first.
func (c *Client) roundTrip(ctx context.Context, cc *clientConn, body []byte, deadline time.Time) (wire.Message, error) {
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()

	ch := make(chan result, 1)
	if err := cc.addWaiter(id, ch, deadline); err != nil {
		return nil, err
	}
	if err := cc.writeFrame(Frame{Kind: KindRequest, ID: id, Payload: body}); err != nil {
		cc.removeWaiter(id)
		_ = cc.conn.Close()
		return nil, fmt.Errorf("%w: %v", ErrSessionLost, err)
	}
	select {
	case r := <-ch:
		return r.msg, r.err
	case <-cc.done:
		return nil, ErrSessionLost
	case <-ctx.Done():
		cc.removeWaiter(id)
		return nil, fmt.Errorf("session: cancelled: %w", ctx.Err())
	}
}

func (cc *clientConn) writeFrame(f Frame) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	return WriteFrame(cc.conn, f)
}

// addWaiter registers request id's reply channel; a nonzero deadline
// pulls the sweep forward when it is the earliest one pending.
func (cc *clientConn) addWaiter(id uint64, ch chan result, deadline time.Time) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.dead {
		return ErrSessionLost
	}
	cc.waiters[id] = waiter{ch: ch, deadline: deadline}
	if !deadline.IsZero() && (cc.sweep == nil || deadline.Before(cc.sweepAt)) {
		cc.armSweep(deadline)
	}
	return nil
}

// armSweep (cc.mu held) schedules the next expire at at.
func (cc *clientConn) armSweep(at time.Time) {
	cc.sweepAt = at
	if cc.sweep == nil {
		cc.sweep = time.AfterFunc(time.Until(at), cc.expire)
	} else {
		cc.sweep.Reset(time.Until(at))
	}
}

// expire fails every waiter past its deadline with ErrRequestTimeout and
// re-arms the sweep at the earliest deadline still pending.
func (cc *clientConn) expire() {
	now := time.Now()
	var late []chan result
	var next time.Time
	cc.mu.Lock()
	for id, w := range cc.waiters {
		switch {
		case w.deadline.IsZero():
		case !w.deadline.After(now):
			delete(cc.waiters, id)
			late = append(late, w.ch)
		case next.IsZero() || w.deadline.Before(next):
			next = w.deadline
		}
	}
	if !next.IsZero() && !cc.dead {
		cc.armSweep(next)
	} else if cc.sweep != nil {
		cc.sweep.Stop()
		cc.sweep = nil
	}
	cc.mu.Unlock()
	for _, ch := range late {
		ch <- result{err: ErrRequestTimeout}
	}
}

func (cc *clientConn) removeWaiter(id uint64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	delete(cc.waiters, id)
}

// deliver hands a reply to its waiter (no-op for unknown/cancelled ids).
func (cc *clientConn) deliver(id uint64, r result) {
	cc.mu.Lock()
	w, ok := cc.waiters[id]
	delete(cc.waiters, id)
	cc.mu.Unlock()
	if ok {
		w.ch <- r
	}
}

// fail marks the connection dead, closes the socket, and fails every
// waiter.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return
	}
	cc.dead = true
	waiters := cc.waiters
	cc.waiters = nil
	if cc.sweep != nil {
		cc.sweep.Stop()
		cc.sweep = nil
	}
	cc.mu.Unlock()
	_ = cc.conn.Close()
	close(cc.done)
	for _, w := range waiters {
		w.ch <- result{err: err}
	}
}
