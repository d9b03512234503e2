package session

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"

	"sor/internal/transport"
)

// Peer sessions ride the member's HTTP wire port: a peer (a router
// forwarding phone traffic) sends one HTTP/1.1 request asking to switch
// to UpgradeProtocol, the member answers 101 and hijacks the connection,
// and from then on the socket carries the same hello/welcome handshake
// and multiplexed frames a device stream does. No second listener, and
// every forward after the first costs one frame each way instead of an
// HTTP exchange.
const (
	// UpgradePath is where a member accepts session upgrades.
	UpgradePath = "/sor/session"
	// UpgradeProtocol is the Upgrade token a peer asks for.
	UpgradeProtocol = "sor-session"
)

const upgradeResponse = "HTTP/1.1 101 Switching Protocols\r\n" +
	"Connection: Upgrade\r\nUpgrade: " + UpgradeProtocol + "\r\n\r\n"

// UpgradeHandler serves UpgradePath: a request carrying `Connection:
// Upgrade` and `Upgrade: sor-session` is answered 101, hijacked, and run
// by ServeConn until the peer hangs up or the server closes; any other
// request is refused 426. Bytes the peer pipelined behind its request are
// served, not lost.
func (s *Server) UpgradeHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !hasToken(r.Header["Connection"], "upgrade") || !hasToken(r.Header["Upgrade"], UpgradeProtocol) {
			w.Header().Set("Connection", "Upgrade")
			w.Header().Set("Upgrade", UpgradeProtocol)
			http.Error(w, "session: this path only upgrades to "+UpgradeProtocol, http.StatusUpgradeRequired)
			return
		}
		hj, ok := w.(http.Hijacker)
		if !ok {
			http.Error(w, "session: connection cannot be upgraded", http.StatusInternalServerError)
			return
		}
		conn, rw, err := hj.Hijack()
		if err != nil {
			return
		}
		// The HTTP server's header-read deadline must not outlive the
		// request it was set for.
		_ = conn.SetDeadline(time.Time{})
		if _, err := io.WriteString(conn, upgradeResponse); err != nil {
			_ = conn.Close()
			return
		}
		_ = s.ServeConn(&bufferedConn{Conn: conn, r: rw.Reader})
	})
}

// upgradeDialer returns a Dialer that reaches the member at baseURL
// (http://host:port, as cluster maps advertise members) and upgrades a
// fresh TCP connection at UpgradePath. A ctx deadline bounds the dial and
// the upgrade exchange; the session handshake then runs on the result.
func upgradeDialer(baseURL string) (Dialer, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("session: member address: %w", err)
	}
	if u.Scheme != "http" || u.Host == "" {
		return nil, fmt.Errorf("session: cannot upgrade %q (want http://host:port)", baseURL)
	}
	hostport := u.Host
	if u.Port() == "" {
		hostport = net.JoinHostPort(u.Hostname(), "80")
	}
	req := "GET " + strings.TrimSuffix(u.EscapedPath(), "/") + UpgradePath + " HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\nConnection: Upgrade\r\nUpgrade: " + UpgradeProtocol + "\r\n\r\n"
	var d net.Dialer
	return func(ctx context.Context) (net.Conn, error) {
		conn, err := d.DialContext(ctx, "tcp", hostport)
		if err != nil {
			return nil, err
		}
		if dl, ok := ctx.Deadline(); ok {
			_ = conn.SetDeadline(dl)
		}
		upgraded, err := upgrade(conn, req)
		if err != nil {
			_ = conn.Close()
			return nil, err
		}
		_ = conn.SetDeadline(time.Time{})
		return upgraded, nil
	}, nil
}

// DialPeer builds the client half of a peer session to the member at
// baseURL, authenticating as token. The connection is made on the first
// Send. Each Send is exactly one attempt (the caller owns retries) and
// must end within timeout of the call, a dial and handshake it makes
// included; a missing reply fails it with ErrRequestTimeout. A zero
// timeout leaves each Send bounded by its context alone.
func DialPeer(baseURL, token string, timeout time.Duration) (*Client, error) {
	dial, err := upgradeDialer(baseURL)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(dial, token, WithClientRetry(transport.Retry{Attempts: -1}))
	if err != nil {
		return nil, err
	}
	c.timeout = timeout
	return c, nil
}

// upgrade sends the upgrade request on conn and reads the member's answer.
func upgrade(conn net.Conn, req string) (net.Conn, error) {
	if _, err := io.WriteString(conn, req); err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, fmt.Errorf("session: upgrade: %w", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || !hasToken(resp.Header["Upgrade"], UpgradeProtocol) {
		return nil, fmt.Errorf("session: upgrade refused: %s", resp.Status)
	}
	return &bufferedConn{Conn: conn, r: br}, nil
}

// bufferedConn is a net.Conn read through the bufio.Reader the HTTP
// exchange was parsed with: frames that arrived with it are not lost,
// and each later read takes a frame's header and body (often more than
// one frame) in one syscall.
type bufferedConn struct {
	net.Conn
	r *bufio.Reader
}

func (c *bufferedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// hasToken reports whether any comma-separated element of the header
// values equals token, ignoring case.
func hasToken(values []string, token string) bool {
	for _, v := range values {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}
