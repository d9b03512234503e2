package transport

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"sor/internal/wire"
)

// countingHandler acks every message and counts how many reached it.
func countingHandler(n *atomic.Int64) Handler {
	return func(_ context.Context, m wire.Message) (wire.Message, error) {
		n.Add(1)
		return &wire.Ack{OK: true, Code: 200}, nil
	}
}

func TestFaultInjectorRequestLossNeverReachesServer(t *testing.T) {
	var served atomic.Int64
	hh, err := NewHTTPHandler(countingHandler(&served))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hh)
	defer srv.Close()
	fi := NewFaultInjector(FaultConfig{Seed: 1, RequestLoss: 1})
	c, err := NewClient(srv.URL, WithRetry(Retry{Attempts: -1}),
		WithHTTPClient(&http.Client{Transport: fi.Transport(nil)}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Send(context.Background(), &wire.Ping{Token: "x"})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want injected loss", err)
	}
	if served.Load() != 0 {
		t.Fatalf("server saw %d requests through a 100%% request-loss link", served.Load())
	}
	st := fi.Stats()
	if st.RequestsLost != 1 || st.Requests != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFaultInjectorResponseLossDeliversButDropsAck(t *testing.T) {
	var served atomic.Int64
	hh, err := NewHTTPHandler(countingHandler(&served))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hh)
	defer srv.Close()
	fi := NewFaultInjector(FaultConfig{Seed: 1, ResponseLoss: 1})
	c, err := NewClient(srv.URL, WithRetry(Retry{Attempts: -1}),
		WithHTTPClient(&http.Client{Transport: fi.Transport(nil)}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send(context.Background(), &wire.Ping{Token: "x"}); err == nil {
		t.Fatal("ack loss must surface as a send error")
	}
	// The nasty case: the client failed, yet the server handled the request.
	if served.Load() != 1 {
		t.Fatalf("server saw %d requests, want 1 (delivered-but-unacked)", served.Load())
	}
	if st := fi.Stats(); st.ResponsesLost != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFaultInjectorPartitionAndHeal(t *testing.T) {
	var served atomic.Int64
	hh, err := NewHTTPHandler(countingHandler(&served))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hh)
	defer srv.Close()
	fi := NewFaultInjector(FaultConfig{Seed: 7})
	c, err := NewClient(srv.URL, WithRetry(Retry{Attempts: -1}),
		WithHTTPClient(&http.Client{Transport: fi.Transport(nil)}))
	if err != nil {
		t.Fatal(err)
	}
	fi.StartPartition()
	if !fi.Partitioned() {
		t.Fatal("partition not reported")
	}
	if _, err := c.Send(context.Background(), &wire.Ping{Token: "x"}); err == nil {
		t.Fatal("send through a partition must fail")
	}
	fi.HealPartition()
	if _, err := c.Send(context.Background(), &wire.Ping{Token: "x"}); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	if served.Load() != 1 {
		t.Fatalf("server saw %d requests", served.Load())
	}
	if st := fi.Stats(); st.Partitioned != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFaultInjectorDisabledPassesThrough(t *testing.T) {
	var served atomic.Int64
	hh, err := NewHTTPHandler(countingHandler(&served))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hh)
	defer srv.Close()
	fi := NewFaultInjector(FaultConfig{Seed: 1, RequestLoss: 1, ResponseLoss: 1})
	fi.SetEnabled(false)
	c, err := NewClient(srv.URL, WithRetry(Retry{Attempts: -1}),
		WithHTTPClient(&http.Client{Transport: fi.Transport(nil)}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Send(context.Background(), &wire.Ping{Token: "x"}); err != nil {
			t.Fatalf("disabled injector interfered: %v", err)
		}
	}
	if served.Load() != 5 {
		t.Fatalf("server saw %d requests, want 5", served.Load())
	}
}

func TestFaultInjectorServerSideHandler(t *testing.T) {
	var served atomic.Int64
	hh, err := NewHTTPHandler(countingHandler(&served))
	if err != nil {
		t.Fatal(err)
	}
	fi := NewFaultInjector(FaultConfig{Seed: 3, ResponseLoss: 1})
	srv := httptest.NewServer(fi.Handler(hh))
	defer srv.Close()
	c, err := NewClient(srv.URL, WithRetry(Retry{Attempts: -1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send(context.Background(), &wire.Ping{Token: "x"}); err == nil {
		t.Fatal("server-side ack loss must surface as a send error")
	}
	if served.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1 (request delivered, ack dropped)", served.Load())
	}

	// Flip to request loss: the handler must not run at all.
	fi2 := NewFaultInjector(FaultConfig{Seed: 3, RequestLoss: 1})
	srv2 := httptest.NewServer(fi2.Handler(hh))
	defer srv2.Close()
	c2, err := NewClient(srv2.URL, WithRetry(Retry{Attempts: -1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Send(context.Background(), &wire.Ping{Token: "x"}); err == nil {
		t.Fatal("server-side request loss must surface as a send error")
	}
	if served.Load() != 1 {
		t.Fatalf("handler ran %d times total, want still 1", served.Load())
	}
}

func TestFaultInjectorRetriesRecoverLossyLink(t *testing.T) {
	var served atomic.Int64
	hh, err := NewHTTPHandler(countingHandler(&served))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hh)
	defer srv.Close()
	fi := NewFaultInjector(FaultConfig{Seed: 42, RequestLoss: 0.3, ResponseLoss: 0.3})
	c, err := NewClient(srv.URL,
		WithRetry(Retry{Attempts: 10, Base: time.Millisecond, Cap: 5 * time.Millisecond, Seed: 42}),
		WithHTTPClient(&http.Client{Transport: fi.Transport(nil)}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.Send(context.Background(), &wire.Ping{Token: "x"}); err != nil {
			t.Fatalf("send %d through 30%%/30%% lossy link with 10 retries: %v", i, err)
		}
	}
	if served.Load() < 20 {
		t.Fatalf("server saw %d requests, want ≥ 20", served.Load())
	}
	if st := fi.Stats(); st.RequestsLost == 0 && st.ResponsesLost == 0 {
		t.Fatalf("no faults injected at 30%%/30%%: %+v", st)
	}
}

func TestClientDoesNotRetry4xx(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no such endpoint", http.StatusNotFound)
	}))
	defer srv.Close()
	c, err := NewClient(srv.URL, WithRetry(Retry{Attempts: 5, Base: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Send(context.Background(), &wire.Ping{Token: "x"})
	var httpErr *HTTPError
	if !errors.As(err, &httpErr) || httpErr.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want HTTP 404", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("4xx retried: server hit %d times", hits.Load())
	}
	if st := c.Stats(); st.NonRetryable != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientRetries5xx(t *testing.T) {
	var hits atomic.Int64
	hh, err := NewHTTPHandler(func(_ context.Context, m wire.Message) (wire.Message, error) {
		return &wire.Ack{OK: true, Code: 200}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		hh.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c, err := NewClient(srv.URL, WithRetry(Retry{Attempts: 4, Base: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send(context.Background(), &wire.Ping{Token: "x"}); err != nil {
		t.Fatalf("5xx must be retried: %v", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("server hit %d times, want 3", hits.Load())
	}
	if st := c.Stats(); st.Retries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientBackoffFullJitterAndCap(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj := w.(http.Hijacker)
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		_ = conn.Close()
	}))
	defer srv.Close()
	type retry struct {
		attempt int
		delay   time.Duration
	}
	var observed []retry
	const base, maxDelay = 4 * time.Millisecond, 10 * time.Millisecond
	c, err := NewClient(srv.URL, WithRetry(Retry{Attempts: 6, Base: base, Cap: maxDelay, Seed: 99}))
	if err != nil {
		t.Fatal(err)
	}
	c.monitor.onRetry = func(attempt int, delay time.Duration, err error) {
		if err == nil {
			t.Error("retry observer called without a cause")
		}
		observed = append(observed, retry{attempt, delay})
	}
	if _, err := c.Send(context.Background(), &wire.Ping{Token: "x"}); err == nil {
		t.Fatal("expected eventual give-up")
	}
	if len(observed) != 6 {
		t.Fatalf("observed %d retries, want 6", len(observed))
	}
	for i, r := range observed {
		if r.attempt != i+1 {
			t.Fatalf("retry %d reported attempt %d", i, r.attempt)
		}
		// Full jitter: every delay is within [0, min(cap, base·2^(attempt-1))].
		ceil := base << (r.attempt - 1)
		if ceil > maxDelay {
			ceil = maxDelay
		}
		if r.delay < 0 || r.delay > ceil {
			t.Fatalf("retry %d delay %v outside [0, %v]", r.attempt, r.delay, ceil)
		}
	}
	if st := c.Stats(); st.Retries != 6 || st.Sends != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
