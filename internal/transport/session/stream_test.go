package session

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sor/internal/transport"
	"sor/internal/wire"
)

// streamRig is a full client↔server stream over a real TCP loopback
// listener, dispatching to a configurable handler.
type streamRig struct {
	srv  *Server
	ln   net.Listener
	addr string
}

func newStreamRig(t *testing.T, h transport.Handler) *streamRig {
	t.Helper()
	srv, err := NewServer(h, NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return &streamRig{srv: srv, ln: ln, addr: ln.Addr().String()}
}

// echoHandler acks pings and batches like a minimal server.
func echoHandler(ctx context.Context, m wire.Message) (wire.Message, error) {
	switch m.(type) {
	case *wire.Ping:
		return &wire.Ack{OK: true, Code: 200, Message: "pong"}, nil
	case *wire.DataUploadBatch:
		return &wire.Ack{OK: true, Code: 200}, nil
	default:
		return &wire.Ack{OK: false, Code: 400, Message: "unhandled"}, nil
	}
}

func dialRig(t *testing.T, rig *streamRig, token string, opts ...ClientOption) *Client {
	t.Helper()
	c, err := Dial(rig.addr, token, append([]ClientOption{
		WithClientRetry(transport.Retry{Attempts: 3, Base: time.Millisecond, Cap: 10 * time.Millisecond, Seed: 1}),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestStreamRequestReply pins the basic exchange: handshake, then a
// request/reply carrying the same wire payloads HTTP bodies would.
func TestStreamRequestReply(t *testing.T) {
	rig := newStreamRig(t, echoHandler)
	c := dialRig(t, rig, "tok-1")
	ctx := context.Background()

	resp, err := c.Send(ctx, &wire.Ping{Token: "tok-1"})
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := resp.(*wire.Ack)
	if !ok || !ack.OK || ack.Message != "pong" {
		t.Fatalf("reply = %#v", resp)
	}
	if w := welcome(c); w.Proto != ProtoVersion || w.Resumed {
		t.Fatalf("welcome = %+v", w)
	}
	// The handshake registered a live session under the device token.
	if !live(rig.srv.Registry(), "tok-1") {
		t.Fatal("session not registered after handshake")
	}
	// SendBatch is the outbox's path; it must coerce the reply to an ack.
	up := &wire.DataUpload{AppID: "app", TaskID: "t", ReportID: "r-1"}
	ack, err = c.SendBatch(ctx, []*wire.DataUpload{up})
	if err != nil || !ack.OK {
		t.Fatalf("batch: %v %+v", err, ack)
	}
}

// TestStreamMultiplexing pins that one connection carries many concurrent
// exchanges: slow replies must not block fast ones (HTTP would need a
// connection each; the stream interleaves by correlation id).
func TestStreamMultiplexing(t *testing.T) {
	release := make(chan struct{})
	var slowStarted atomic.Bool
	h := func(ctx context.Context, m wire.Message) (wire.Message, error) {
		if p, ok := m.(*wire.Ping); ok && p.Token == "slow" {
			slowStarted.Store(true)
			<-release
		}
		return &wire.Ack{OK: true, Code: 200}, nil
	}
	rig := newStreamRig(t, h)
	c := dialRig(t, rig, "tok-mux")
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(1)
	slowErr := error(nil)
	go func() {
		defer wg.Done()
		_, slowErr = c.Send(ctx, &wire.Ping{Token: "slow"})
	}()
	waitFor(t, 5*time.Second, slowStarted.Load, "slow request to reach the handler")

	// 16 fast exchanges complete while the slow one is still parked.
	for i := 0; i < 16; i++ {
		if _, err := c.Send(ctx, &wire.Ping{Token: "fast"}); err != nil {
			t.Fatalf("fast send %d blocked behind slow: %v", i, err)
		}
	}
	close(release)
	wg.Wait()
	if slowErr != nil {
		t.Fatalf("slow send: %v", slowErr)
	}
}

// TestStreamServerPush pins the server-initiated path end to end:
// registry pushes and broadcasts come out of the client's Events channel
// in order, with no request in flight.
func TestStreamServerPush(t *testing.T) {
	rig := newStreamRig(t, echoHandler)
	c := dialRig(t, rig, "tok-push")
	ctx := context.Background()
	if _, err := c.Send(ctx, &wire.Ping{Token: "tok-push"}); err != nil {
		t.Fatal(err)
	}
	reg := rig.srv.Registry()

	sched := &wire.Schedule{AppID: "app-1", TaskID: "task-1"}
	if err := reg.PushMessage("tok-push", sched); err != nil {
		t.Fatal(err)
	}
	if n := reg.Broadcast(&wire.EpochInvalidate{Category: "coffee-shop", Epoch: 42}); n != 1 {
		t.Fatalf("broadcast reached %d sessions, want 1", n)
	}
	if err := reg.Notify("tok-push"); err != nil {
		t.Fatal(err)
	}

	want := []func(wire.Message) bool{
		func(m wire.Message) bool { s, ok := m.(*wire.Schedule); return ok && s.TaskID == "task-1" },
		func(m wire.Message) bool { e, ok := m.(*wire.EpochInvalidate); return ok && e.Epoch == 42 },
		func(m wire.Message) bool { p, ok := m.(*wire.Ping); return ok && p.Token == "tok-push" },
	}
	for i, match := range want {
		select {
		case m := <-c.Events():
			if !match(m) {
				t.Fatalf("event %d = %#v (wrong message or order)", i, m)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("event %d never arrived", i)
		}
	}
	if got := c.Stats().PushesReceived; got != 3 {
		t.Fatalf("PushesReceived = %d, want 3", got)
	}
}

// TestStreamCorruptRequestSurvives pins fault isolation inside one
// stream: a corrupt wire payload gets a 400 reply on its own correlation
// id and the connection keeps serving.
func TestStreamCorruptRequestSurvives(t *testing.T) {
	rig := newStreamRig(t, echoHandler)

	conn, err := net.Dial("tcp", rig.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, Frame{Kind: KindHello, Payload: EncodeHello(Hello{Proto: 1, Token: "raw"})}); err != nil {
		t.Fatal(err)
	}
	if wf, err := ReadFrame(conn); err != nil || wf.Kind != KindWelcome {
		t.Fatalf("welcome: %v %+v", err, wf)
	}
	// Correlation id 7 carries garbage where a wire frame should be.
	if err := WriteFrame(conn, Frame{Kind: KindRequest, ID: 7, Payload: []byte("not a wire frame")}); err != nil {
		t.Fatal(err)
	}
	rf, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Kind != KindReply || rf.ID != 7 {
		t.Fatalf("reply frame = %+v", rf)
	}
	msg, err := wire.Decode(rf.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := msg.(*wire.Ack); !ok || ack.OK || ack.Code != 400 {
		t.Fatalf("corrupt request reply = %#v, want 400 ack", msg)
	}
	// The stream is still alive: a well-formed request round-trips.
	good, err := wire.Encode(&wire.Ping{Token: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, Frame{Kind: KindRequest, ID: 8, Payload: good}); err != nil {
		t.Fatal(err)
	}
	if rf, err := ReadFrame(conn); err != nil || rf.ID != 8 {
		t.Fatalf("post-corruption exchange: %v %+v", err, rf)
	}
}

// TestStreamDisplacement pins reconnect-before-timeout end to end: a
// second connection for the same token is welcomed with Resumed, and the
// first connection is severed by the server.
func TestStreamDisplacement(t *testing.T) {
	rig := newStreamRig(t, echoHandler)
	ctx := context.Background()

	first := dialRig(t, rig, "tok-d")
	if _, err := first.Send(ctx, &wire.Ping{Token: "tok-d"}); err != nil {
		t.Fatal(err)
	}
	second := dialRig(t, rig, "tok-d")
	if _, err := second.Send(ctx, &wire.Ping{Token: "tok-d"}); err != nil {
		t.Fatal(err)
	}
	if w := welcome(second); !w.Resumed {
		t.Fatalf("second welcome = %+v, want Resumed", w)
	}
	// The displaced client's next exchange re-dials (its conn was severed)
	// and in turn displaces the second — the registry always tracks the
	// latest stream for a token.
	waitFor(t, 5*time.Second, func() bool {
		_, err := first.Send(ctx, &wire.Ping{Token: "tok-d"})
		return err == nil && first.Stats().Reconnects > 0
	}, "displaced client to reconnect")
	if w := welcome(first); !w.Resumed {
		t.Fatalf("reconnect welcome = %+v, want Resumed", w)
	}
}

// TestStreamReconnectResume pins the transport-level resume contract: a
// severed connection fails in-flight sends with ErrSessionLost semantics,
// the next Send transparently re-dials, and the OnResume hook fires.
func TestStreamReconnectResume(t *testing.T) {
	rig := newStreamRig(t, echoHandler)
	var resumes atomic.Int64
	c := dialRig(t, rig, "tok-r", WithOnResume(func() { resumes.Add(1) }))
	ctx := context.Background()

	if _, err := c.Send(ctx, &wire.Ping{Token: "tok-r"}); err != nil {
		t.Fatal(err)
	}
	if n := rig.srv.CloseConns(); n != 1 {
		t.Fatalf("severed %d conns, want 1", n)
	}
	// The retry loop inside Send absorbs the dead stream.
	if _, err := c.Send(ctx, &wire.Ping{Token: "tok-r"}); err != nil {
		t.Fatalf("send across severed stream: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return resumes.Load() > 0 }, "resume hook")
	if got := c.Stats().Reconnects; got < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", got)
	}
}

// TestStreamPartitionSeversAndRefuses pins the chaos contract: a
// partition start kills the live conn via the FaultDialer wrapper and
// refuses re-dials until healed.
func TestStreamPartitionSeversAndRefuses(t *testing.T) {
	rig := newStreamRig(t, echoHandler)
	fi := transport.NewFaultInjector(transport.FaultConfig{Seed: 5})
	dial := FaultDialer(fi, func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", rig.addr)
	})
	c, err := NewClient(dial, "tok-p",
		WithClientRetry(transport.Retry{Attempts: 2, Base: time.Millisecond, Cap: 5 * time.Millisecond, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Send(ctx, &wire.Ping{Token: "tok-p"}); err != nil {
		t.Fatal(err)
	}

	fi.StartPartition()
	if got := fi.Stats().SessionsSevered; got != 1 {
		t.Fatalf("SessionsSevered = %d, want 1", got)
	}
	if _, err := c.Send(ctx, &wire.Ping{Token: "tok-p"}); err == nil {
		t.Fatal("send through a partition succeeded")
	} else if !errors.Is(err, transport.ErrInjected) {
		t.Fatalf("partition error not marked injected: %v", err)
	}
	fi.HealPartition()
	if _, err := c.Send(ctx, &wire.Ping{Token: "tok-p"}); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	if got := c.Stats().Reconnects; got < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", got)
	}
}

// TestStreamHandshakeRejectsGarbage pins that a non-hello first frame
// ends the stream without a session ever registering.
func TestStreamHandshakeRejectsGarbage(t *testing.T) {
	rig := newStreamRig(t, echoHandler)
	conn, err := net.Dial("tcp", rig.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	good, err := wire.Encode(&wire.Ping{Token: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, Frame{Kind: KindRequest, ID: 1, Payload: good}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(conn); err == nil {
		t.Fatal("server answered a stream that never said hello")
	}
	if got := rig.srv.Registry().Count(); got != 0 {
		t.Fatalf("%d sessions registered without a handshake", got)
	}
}

// welcome returns the terms of c's last handshake.
func welcome(c *Client) Welcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastWelcome
}
