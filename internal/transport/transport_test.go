package transport

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sor/internal/wire"
)

func echoHandler(_ context.Context, m wire.Message) (wire.Message, error) {
	switch msg := m.(type) {
	case *wire.Ping:
		return &wire.Ack{OK: true, Code: 200, Message: "pong:" + msg.Token}, nil
	case *wire.Leave:
		return nil, errors.New("leave rejected for test")
	default:
		return &wire.Ack{OK: true, Code: 200}, nil
	}
}

func newServerAndClient(t *testing.T, h Handler, opts ...ClientOption) (*httptest.Server, *Client) {
	t.Helper()
	hh, err := NewHTTPHandler(h)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hh)
	t.Cleanup(srv.Close)
	c, err := NewClient(srv.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return srv, c
}

func TestNewHTTPHandlerNil(t *testing.T) {
	if _, err := NewHTTPHandler(nil); err == nil {
		t.Fatal("nil handler must error")
	}
}

func TestNewClientEmptyURL(t *testing.T) {
	if _, err := NewClient(""); err == nil {
		t.Fatal("empty URL must error")
	}
}

func TestRoundTrip(t *testing.T) {
	_, c := newServerAndClient(t, echoHandler)
	resp, err := c.Send(context.Background(), &wire.Ping{Token: "abc"})
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := resp.(*wire.Ack)
	if !ok || !ack.OK || ack.Message != "pong:abc" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestHandlerErrorBecomesAck(t *testing.T) {
	_, c := newServerAndClient(t, echoHandler)
	resp, err := c.Send(context.Background(), &wire.Leave{UserID: "u", AppID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := resp.(*wire.Ack)
	if !ok || ack.OK || !strings.Contains(ack.Message, "rejected") {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestNilHandlerResponseBecomesOKAck(t *testing.T) {
	_, c := newServerAndClient(t, func(context.Context, wire.Message) (wire.Message, error) {
		return nil, nil
	})
	resp, err := c.Send(context.Background(), &wire.Ping{Token: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := resp.(*wire.Ack); !ok || !ack.OK {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestServerRejectsGET(t *testing.T) {
	hh, err := NewHTTPHandler(echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hh)
	defer srv.Close()
	resp, err := http.Get(srv.URL + Path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestServerRejectsGarbageBody(t *testing.T) {
	hh, err := NewHTTPHandler(echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hh)
	defer srv.Close()
	resp, err := http.Post(srv.URL+Path, contentType, strings.NewReader("not a sor frame"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	hh, err := NewHTTPHandler(echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			// Kill the connection mid-flight.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			_ = conn.Close()
			return
		}
		hh.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(flaky)
	defer srv.Close()
	c, err := NewClient(srv.URL, WithRetry(Retry{Attempts: 3, Base: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Send(context.Background(), &wire.Ping{Token: "zz"})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); ack.Message != "pong:zz" {
		t.Fatalf("resp = %+v", ack)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
}

func TestClientGivesUpAfterRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj := w.(http.Hijacker)
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
	}))
	defer srv.Close()
	c, err := NewClient(srv.URL, WithRetry(Retry{Attempts: 1, Base: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Send(context.Background(), &wire.Ping{Token: "x"})
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("err = %v", err)
	}
}

func TestClientContextCancellation(t *testing.T) {
	// The handler parks on a test-owned channel — a condition, not a
	// timed sleep, so the test never races a timer. (Parking on
	// r.Context().Done() would deadlock: the server only watches for the
	// client disconnect once the request body has been consumed.)
	arrived := make(chan struct{})
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(arrived) // single attempt (Attempts: -1), so this runs once
		<-release
	}))
	defer srv.Close()
	c, err := NewClient(srv.URL, WithRetry(Retry{Attempts: -1}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Send(ctx, &wire.Ping{Token: "x"})
		done <- err
	}()
	<-arrived // the request is in flight on the server before we cancel
	cancel()
	if err := <-done; err == nil {
		t.Fatal("expected cancellation")
	}
	close(release) // unpark the handler so srv.Close can reap the connection
}

func TestSendBatch(t *testing.T) {
	var got atomic.Int64
	h := func(_ context.Context, m wire.Message) (wire.Message, error) {
		batch, ok := m.(*wire.DataUploadBatch)
		if !ok {
			return nil, errors.New("want a batch")
		}
		got.Store(int64(len(batch.Uploads)))
		return &wire.Ack{OK: true, Code: 200, Message: "stored"}, nil
	}
	_, c := newServerAndClient(t, h)
	uploads := []*wire.DataUpload{
		{TaskID: "t1", AppID: "a", UserID: "u1"},
		{TaskID: "t2", AppID: "a", UserID: "u2"},
		{TaskID: "t3", AppID: "b", UserID: "u3"},
	}
	ack, err := c.SendBatch(context.Background(), uploads)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.OK || got.Load() != 3 {
		t.Fatalf("ack=%+v, server saw %d uploads", ack, got.Load())
	}
}

func TestSendBatchRejectsEmptyAndOversized(t *testing.T) {
	_, c := newServerAndClient(t, echoHandler)
	if _, err := c.SendBatch(context.Background(), nil); err == nil {
		t.Fatal("empty batch must error")
	}
	big := make([]*wire.DataUpload, wire.MaxBatchReports+1)
	for i := range big {
		big[i] = &wire.DataUpload{TaskID: "t", AppID: "a", UserID: "u"}
	}
	if _, err := c.SendBatch(context.Background(), big); err == nil {
		t.Fatal("oversized batch must error")
	}
}
