package session

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sor/internal/obs"
	"sor/internal/transport"
	"sor/internal/wire"
)

// memberRig is a member's HTTP wire port: one-shot POSTs at transport.Path
// and peer session upgrades at UpgradePath, each peer on its own registry.
type memberRig struct {
	http  *httptest.Server
	peers *Server
}

func newMemberRig(t *testing.T, h transport.Handler) *memberRig {
	t.Helper()
	peers, err := NewServer(h, NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	wireHandler, err := transport.NewHTTPHandler(h)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle(transport.Path, wireHandler)
	mux.Handle(UpgradePath, peers.UpgradeHandler())
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		_ = peers.Close()
	})
	return &memberRig{http: srv, peers: peers}
}

func dialPeerRig(t *testing.T, rig *memberRig, token string) *Client {
	t.Helper()
	c, err := DialPeer(rig.http.URL, token, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestUpgradeServesPipelinedFrames: a peer that writes its upgrade
// request, hello and first request frame in one burst gets all three
// served — the bytes the HTTP server read ahead survive the hijack.
func TestUpgradeServesPipelinedFrames(t *testing.T) {
	rig := newMemberRig(t, echoHandler)
	conn, err := net.Dial("tcp", rig.http.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))

	ping, err := wire.Encode(&wire.Ping{Token: "peer"})
	if err != nil {
		t.Fatal(err)
	}
	burst := []byte("GET " + UpgradePath + " HTTP/1.1\r\nHost: member\r\n" +
		"Connection: Upgrade\r\nUpgrade: " + UpgradeProtocol + "\r\n\r\n")
	for _, f := range []Frame{
		{Kind: KindHello, Payload: EncodeHello(Hello{Proto: ProtoVersion, Token: "peer"})},
		{Kind: KindRequest, ID: 7, Payload: ping},
	} {
		if burst, err = AppendFrame(burst, f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != UpgradeProtocol {
		t.Fatalf("upgrade answered %s %v", resp.Status, resp.Header)
	}
	if f, err := ReadFrame(br); err != nil || f.Kind != KindWelcome {
		t.Fatalf("welcome: %+v %v", f, err)
	}
	f, err := ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Decode(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := msg.(*wire.Ack); f.Kind != KindReply || f.ID != 7 || !ok || ack.Message != "pong" {
		t.Fatalf("pipelined request answered %+v %#v", f, msg)
	}
}

// TestUpgradePathRefusesPlainRequests: without the Upgrade header the
// upgrade path answers 426 naming the protocol, and hijacks nothing.
func TestUpgradePathRefusesPlainRequests(t *testing.T) {
	rig := newMemberRig(t, echoHandler)
	for _, hdr := range []http.Header{
		{},
		{"Upgrade": {UpgradeProtocol}}, // no Connection: Upgrade
		{"Connection": {"Upgrade"}, "Upgrade": {"websocket"}}, // another protocol
	} {
		req, err := http.NewRequest(http.MethodGet, rig.http.URL+UpgradePath, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header[k] = v
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != UpgradeProtocol {
			t.Fatalf("headers %v: answered %s %v, want 426 naming %s", hdr, resp.Status, resp.Header, UpgradeProtocol)
		}
	}
	if n := rig.peers.Registry().Count(); n != 0 {
		t.Fatalf("%d peer sessions after refused upgrades", n)
	}

	// A peer dialing something that is not a member fails its dial.
	plain := httptest.NewServer(http.NotFoundHandler())
	defer plain.Close()
	dial, err := upgradeDialer(plain.URL)
	if err != nil {
		t.Fatal(err)
	}
	if conn, err := dial(context.Background()); err == nil || !strings.Contains(err.Error(), "404") {
		if conn != nil {
			_ = conn.Close()
		}
		t.Fatalf("upgrade against a non-member: %v, want a refusal naming 404", err)
	}
	if _, err := upgradeDialer("https://member:443"); err == nil {
		t.Fatal("an https member address was accepted")
	}
}

// TestUpgradeSharesThePortWithOneShotPosts: one-shot POSTs to /sor keep
// working beside a live peer session on the same port, and the session
// multiplexes many requests over one upgraded connection.
func TestUpgradeSharesThePortWithOneShotPosts(t *testing.T) {
	rig := newMemberRig(t, echoHandler)
	post, err := transport.NewClient(rig.http.URL)
	if err != nil {
		t.Fatal(err)
	}
	peer := dialPeerRig(t, rig, "router/1")
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		for name, s := range map[string]interface {
			Send(context.Context, wire.Message) (wire.Message, error)
		}{"post": post, "peer": peer} {
			resp, err := s.Send(ctx, &wire.Ping{Token: "x"})
			if err != nil {
				t.Fatalf("%s send %d: %v", name, i, err)
			}
			if ack, ok := resp.(*wire.Ack); !ok || ack.Message != "pong" {
				t.Fatalf("%s send %d answered %#v", name, i, resp)
			}
		}
	}
	if n := rig.peers.Registry().Count(); n != 1 {
		t.Fatalf("%d peer sessions, want 1", n)
	}
	if r := peer.Stats().Reconnects; r != 0 {
		t.Fatalf("peer reconnected %d times", r)
	}
	_ = peer.Close()
	waitFor(t, 5*time.Second, func() bool { return rig.peers.Registry().Count() == 0 }, "peer session detach")
}

// TestPeerSessionsStayOffTheDeviceRegistry: peers attach to their own
// registry, so device counts, metrics and push fan-out are what they
// would be with no peer at all.
func TestPeerSessionsStayOffTheDeviceRegistry(t *testing.T) {
	metrics := obs.NewRegistry()
	devices := NewRegistry(WithRegistryMetrics(metrics))
	streams, err := NewServer(echoHandler, devices)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = streams.Serve(ln) }()
	t.Cleanup(func() { _ = streams.Close() })
	rig := newMemberRig(t, echoHandler)

	device := dialRig(t, &streamRig{srv: streams, ln: ln, addr: ln.Addr().String()}, "phone-1")
	peer := dialPeerRig(t, rig, "router/1")
	ctx := context.Background()
	for _, c := range []*Client{device, peer} {
		if _, err := c.Send(ctx, &wire.Ping{Token: c.token}); err != nil {
			t.Fatal(err)
		}
	}

	if got := devices.Count(); got != 1 || !live(devices, "phone-1") {
		t.Fatalf("device registry holds %d sessions, want just phone-1", got)
	}
	if a, o := metrics.Gauge("sor_session_active").Value(), metrics.Counter("sor_session_opened_total").Value(); a != 1 || o != 1 {
		t.Fatalf("device series active=%v opened=%d, want 1, 1", a, o)
	}
	if n := devices.Broadcast(&wire.Ping{Token: "all"}); n != 1 {
		t.Fatalf("broadcast reached %d sessions, want 1", n)
	}
	select {
	case m := <-device.Events():
		if _, ok := m.(*wire.Ping); !ok {
			t.Fatalf("device got push %#v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("device never got the broadcast")
	}
	if p := metrics.Counter("sor_session_pushes_total").Value(); p != 1 {
		t.Fatalf("push series counted %d, want 1", p)
	}
	// Give a wrongly routed push time to land before asserting none did.
	if _, err := peer.Send(ctx, &wire.Ping{Token: "router/1"}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-peer.Events():
		t.Fatalf("a device push reached the peer: %#v", m)
	default:
	}
}

// TestPeerRequestBound: a peer request with no reply fails with
// ErrRequestTimeout after the bound, on one attempt, while requests
// sharing its session keep being answered.
func TestPeerRequestBound(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	rig := newMemberRig(t, func(ctx context.Context, m wire.Message) (wire.Message, error) {
		if p, ok := m.(*wire.Ping); ok && p.Token == "stuck" {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return &wire.Ack{OK: true, Code: 200}, nil
	})
	peer, err := DialPeer(rig.http.URL, "router/1", 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = peer.Close() }()
	ctx := context.Background()

	stuck := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := peer.Send(ctx, &wire.Ping{Token: "stuck"})
		stuck <- err
	}()
	for i := 0; i < 5; i++ {
		if _, err := peer.Send(ctx, &wire.Ping{Token: "ok"}); err != nil {
			t.Fatalf("a request beside the stuck one: %v", err)
		}
	}
	err = <-stuck
	if !errors.Is(err, ErrRequestTimeout) {
		t.Fatalf("stuck request ended with %v, want ErrRequestTimeout", err)
	}
	if took := time.Since(start); took < 100*time.Millisecond || took > 5*time.Second {
		t.Fatalf("stuck request gave up after %v, want about 100ms", took)
	}
	if st := peer.Stats(); st.Retries != 0 || st.Reconnects != 0 {
		t.Fatalf("peer retried: %+v", st)
	}
	if _, err := peer.Send(ctx, &wire.Ping{Token: "ok"}); err != nil {
		t.Fatalf("the session after a timeout: %v", err)
	}

	// A member that accepts and then never answers the upgrade holds a
	// Send no longer than the bound either.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		var held []net.Conn
		defer func() {
			for _, conn := range held {
				_ = conn.Close()
			}
		}()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, conn)
		}
	}()
	mute, err := DialPeer("http://"+ln.Addr().String(), "router/2", 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mute.Close() }()
	start = time.Now()
	if _, err := mute.Send(ctx, &wire.Ping{Token: "ok"}); err == nil {
		t.Fatal("a mute member answered")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("a mute member held the send for %v", took)
	}
}

// TestServerShutdownDrains: Shutdown stops reading requests but lets a
// dispatch already taken write its reply before the stream closes, and
// takes no request after; a dispatch that outlives ctx is severed.
func TestServerShutdownDrains(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var dispatched atomic.Int64
	rig := newMemberRig(t, func(ctx context.Context, m wire.Message) (wire.Message, error) {
		dispatched.Add(1)
		if p, ok := m.(*wire.Ping); ok && p.Token != "ok" {
			entered <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &wire.Ack{OK: true, Code: 200, Message: "pong"}, nil
	})
	peer := dialPeerRig(t, rig, "router/1")
	ctx := context.Background()
	if _, err := peer.Send(ctx, &wire.Ping{Token: "ok"}); err != nil {
		t.Fatal(err)
	}

	replied := make(chan error, 1)
	go func() {
		resp, err := peer.Send(ctx, &wire.Ping{Token: "slow"})
		if ack, ok := resp.(*wire.Ack); err == nil && (!ok || ack.Message != "pong") {
			err = fmt.Errorf("answered %+v", resp)
		}
		replied <- err
	}()
	<-entered
	shut := make(chan error, 1)
	go func() { shut <- rig.peers.Shutdown(ctx) }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		rig.peers.mu.Lock()
		closed := rig.peers.closed
		rig.peers.mu.Unlock()
		if closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never began")
		}
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) with a dispatch in flight", err)
	default:
	}
	close(release)
	if err := <-replied; err != nil {
		t.Fatalf("the request in flight at Shutdown: %v", err)
	}
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	if n := rig.peers.Registry().Count(); n != 0 {
		t.Fatalf("%d sessions after Shutdown", n)
	}
	if _, err := peer.Send(ctx, &wire.Ping{Token: "ok"}); err == nil {
		t.Fatal("a shut-down server took a request")
	}
	if n := dispatched.Load(); n != 2 {
		t.Fatalf("%d dispatches, want 2", n)
	}

	// A dispatch still running when ctx ends is severed.
	stuck := newMemberRig(t, func(ctx context.Context, m wire.Message) (wire.Message, error) {
		entered <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	peer = dialPeerRig(t, stuck, "router/2")
	go func() {
		_, err := peer.Send(ctx, &wire.Ping{Token: "stuck"})
		replied <- err
	}()
	<-entered
	sctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := stuck.peers.Shutdown(sctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown past its ctx = %v, want DeadlineExceeded", err)
	}
	if err := <-replied; !errors.Is(err, ErrSessionLost) {
		t.Fatalf("the severed request ended with %v, want ErrSessionLost", err)
	}
}
