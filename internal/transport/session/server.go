package session

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sor/internal/obs"
	"sor/internal/transport"
	"sor/internal/wire"
)

// Server accepts device streams and serves them against the same
// transport.Handler the HTTP endpoint dispatches to — one handler, two
// protocols. Each accepted connection is handshaken (hello/welcome),
// attached to the Registry, and then multiplexed: every request frame
// dispatches concurrently and replies by correlation id, while a writer
// drains the session's push queue into push frames.
type Server struct {
	handler transport.Handler
	reg     *Registry
	obsv    *obs.Observer

	met serverSessionMetrics

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	// wg counts live streams and in-flight dispatches.
	wg sync.WaitGroup

	// draining is set by Shutdown: a stream whose reads stop finishes
	// the dispatches it took before it closes. sever, closed by Close,
	// ends that wait.
	draining  atomic.Bool
	sever     chan struct{}
	severOnce sync.Once
}

type serverSessionMetrics struct {
	requests      *obs.Counter
	handshakeErrs *obs.Counter
	decodeErrs    *obs.Counter
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithServerObserver instruments the stream endpoint: request frames,
// handshake failures, and decode rejections become metrics, and the trace
// RequestID carried inside request payloads lands on the dispatch context
// (exactly what the HTTP handler does).
func WithServerObserver(o *obs.Observer) ServerOption {
	return func(s *Server) { s.obsv = o }
}

// NewServer builds a stream server dispatching to h and registering
// sessions on reg.
func NewServer(h transport.Handler, reg *Registry, opts ...ServerOption) (*Server, error) {
	if h == nil {
		return nil, errors.New("session: nil handler")
	}
	if reg == nil {
		return nil, errors.New("session: nil registry")
	}
	s := &Server{
		handler:   h,
		reg:       reg,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		sever:     make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	mreg := s.obsv.Metrics()
	s.met = serverSessionMetrics{
		requests:      mreg.Counter("sor_session_requests_total"),
		handshakeErrs: mreg.Counter("sor_session_handshake_errors_total"),
		decodeErrs:    mreg.Counter("sor_session_decode_errors_total"),
	}
	return s, nil
}

// Registry exposes the server's session registry.
func (s *Server) Registry() *Registry { return s.reg }

// Serve accepts connections on ln until ln or the server is closed. It
// always returns a non-nil error; after Close it returns net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return net.ErrClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() { _ = s.ServeConn(conn) }()
	}
}

// ServeConn runs one device stream to completion: handshake, then frames
// until the peer hangs up, the session is displaced by a reconnect, or
// the server closes. The error reports why the stream ended (io.EOF for
// a clean peer close).
func (s *Server) ServeConn(conn net.Conn) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return net.ErrClosed
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
		s.wg.Done()
	}()

	// Handshake: one hello frame in, one welcome frame out.
	hf, err := ReadFrame(conn)
	if err != nil {
		s.met.handshakeErrs.Inc()
		return err
	}
	if hf.Kind != KindHello {
		s.met.handshakeErrs.Inc()
		return errors.New("session: first frame was not a hello")
	}
	hello, err := DecodeHello(hf.Payload)
	if err != nil {
		s.met.handshakeErrs.Inc()
		return err
	}
	proto := hello.Proto
	if proto > ProtoVersion {
		proto = ProtoVersion
	}
	if proto == 0 {
		s.met.handshakeErrs.Inc()
		return errors.New("session: peer speaks protocol version 0")
	}
	sess, displaced, err := s.reg.Attach(hello.Token, IntersectCaps(hello.Caps))
	if err != nil {
		s.met.handshakeErrs.Inc()
		return err
	}
	defer sess.Close()

	var wmu sync.Mutex // serializes reply and push frames on the socket
	writeFrame := func(f Frame) error {
		wmu.Lock()
		defer wmu.Unlock()
		return WriteFrame(conn, f)
	}
	welcome := Welcome{Proto: proto, Caps: sess.Caps(), Resumed: displaced}
	if err := writeFrame(Frame{Kind: KindWelcome, Payload: EncodeWelcome(welcome)}); err != nil {
		s.met.handshakeErrs.Inc()
		return err
	}

	// Dispatch context: cancelled when the stream ends so in-flight
	// handlers observe the disconnect.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Writer: drain the session's push queue into push frames. A write
	// failure kills the connection; the read loop notices and unwinds.
	go func() {
		var pushSeq uint64
		for {
			select {
			case <-sess.Ready():
			case <-sess.Done():
				// Displaced by a reconnect or closed: sever this socket so
				// the read loop ends instead of stealing the token's frames.
				_ = conn.Close()
				return
			case <-ctx.Done():
				return
			}
			for _, m := range sess.TakePending() {
				payload, err := wire.Encode(m)
				if err != nil {
					continue
				}
				pushSeq++
				if err := writeFrame(Frame{Kind: KindPush, ID: pushSeq, Payload: payload}); err != nil {
					_ = conn.Close()
					return
				}
			}
		}
	}()

	var inflight sync.WaitGroup // this stream's dispatches
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			if s.draining.Load() {
				// Shutdown stopped the reads: reply to every request
				// already taken before the stream closes.
				s.awaitDispatches(&inflight)
				return net.ErrClosed
			}
			if err != io.EOF {
				s.met.decodeErrs.Inc()
			}
			return err
		}
		if f.Kind != KindRequest {
			s.met.decodeErrs.Inc()
			return errors.New("session: unexpected frame kind from device")
		}
		msg, requestID, err := wire.DecodeTraced(f.Payload)
		if err != nil {
			s.met.decodeErrs.Inc()
			// A corrupt payload refuses just this request; the stream
			// itself is still framed correctly.
			payload, encErr := wire.Encode(&wire.Ack{OK: false, Code: 400, Message: err.Error()})
			if encErr != nil {
				return encErr
			}
			if err := writeFrame(Frame{Kind: KindReply, ID: f.ID, Payload: payload}); err != nil {
				return err
			}
			continue
		}
		s.met.requests.Inc()
		id := f.ID
		s.wg.Add(1)
		inflight.Add(1)
		go func() {
			defer s.wg.Done()
			defer inflight.Done()
			dctx := ctx
			if requestID != "" {
				dctx = obs.WithRequestID(dctx, obs.RequestID(requestID))
			}
			resp, err := s.handler(dctx, msg)
			if err != nil {
				resp = &wire.Ack{OK: false, Code: 500, Message: err.Error()}
			}
			if resp == nil {
				resp = &wire.Ack{OK: true, Code: 200}
			}
			payload, err := wire.Encode(resp)
			if err != nil {
				return
			}
			if err := writeFrame(Frame{Kind: KindReply, ID: id, Payload: payload}); err != nil {
				_ = conn.Close()
			}
		}()
	}
}

// CloseConns severs every live connection without stopping the accept
// loop — the chaos soak's forced session kill. Devices reconnect and
// resume; exactly-once survives because the outbox redelivers and the
// server dedups by ReportID.
func (s *Server) CloseConns() int {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	return len(conns)
}

// Close stops accepting, severs every stream, and waits for in-flight
// dispatches to unwind.
func (s *Server) Close() error {
	s.severOnce.Do(func() { close(s.sever) })
	for _, c := range s.stopAccepting() {
		_ = c.Close()
	}
	s.wg.Wait()
	return nil
}

// Shutdown closes the server gracefully: it stops accepting, stops
// reading request frames on every stream, lets the dispatches already
// taken write their replies, and then closes each stream. A request the
// server had not read by then is never dispatched, so its peer may
// safely send it elsewhere. If ctx ends first, Shutdown closes what is
// left as Close does and returns ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	for _, c := range s.stopAccepting() {
		_ = c.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		_ = s.Close()
		return ctx.Err()
	}
}

// stopAccepting marks the server closed, closes its listeners, and
// returns the streams still live.
func (s *Server) stopAccepting() []net.Conn {
	s.mu.Lock()
	s.closed = true
	listeners := make([]net.Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		listeners = append(listeners, ln)
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range listeners {
		_ = ln.Close()
	}
	return conns
}

// awaitDispatches waits for a draining stream's dispatches, or for Close.
func (s *Server) awaitDispatches(inflight *sync.WaitGroup) {
	done := make(chan struct{})
	go func() {
		inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-s.sever:
	}
}
