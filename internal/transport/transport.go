// Package transport binds the SOR wire protocol to HTTP (§II-A: "HTTP is
// used as the communication protocol; all SOR-specific information is
// encoded as binary data and stored in the message body"). It provides the
// server-side handler and a client with retry/backoff that the mobile
// frontend uses. The server's push channel to phones (the paper's Google
// Cloud Messaging wake-ups) is the session registry in the session
// subpackage; this package only names the interface it satisfies.
package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"sor/internal/obs"
	"sor/internal/wire"
)

// Path is the single SOR endpoint.
const Path = "/sor"

// contentType marks SOR binary bodies.
const contentType = "application/x-sor"

// maxBodyBytes bounds request bodies.
const maxBodyBytes = 16 << 20

// Handler is the server-side message dispatcher.
type Handler func(ctx context.Context, m wire.Message) (wire.Message, error)

// HandlerOption configures NewHTTPHandler.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	obsv *obs.Observer
}

// WithHandlerObserver instruments the HTTP endpoint: decode failures are
// counted and the trace RequestID carried by v2 frames is placed on the
// request context before dispatch.
func WithHandlerObserver(o *obs.Observer) HandlerOption {
	return func(cfg *handlerConfig) { cfg.obsv = o }
}

// NewHTTPHandler wraps a Handler into an http.Handler serving Path. The
// trace RequestID of version-2 frames is always propagated onto the
// handler's context; an observer (WithHandlerObserver) additionally
// counts endpoint-level requests and decode rejections.
func NewHTTPHandler(h Handler, opts ...HandlerOption) (http.Handler, error) {
	if h == nil {
		return nil, errors.New("transport: nil handler")
	}
	var cfg handlerConfig
	for _, o := range opts {
		o(&cfg)
	}
	reg := cfg.obsv.Metrics()
	httpRequests := reg.Counter("sor_http_requests_total")
	httpDecodeErrs := reg.Counter("sor_http_decode_errors_total")
	mux := http.NewServeMux()
	mux.HandleFunc(Path, func(w http.ResponseWriter, r *http.Request) {
		httpRequests.Inc()
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
		if err != nil {
			http.Error(w, "read error", http.StatusBadRequest)
			return
		}
		if len(body) > maxBodyBytes {
			http.Error(w, "body too large", http.StatusRequestEntityTooLarge)
			return
		}
		msg, requestID, err := wire.DecodeTraced(body)
		if err != nil {
			httpDecodeErrs.Inc()
			http.Error(w, fmt.Sprintf("bad message: %v", err), http.StatusBadRequest)
			return
		}
		ctx := r.Context()
		if requestID != "" {
			ctx = obs.WithRequestID(ctx, obs.RequestID(requestID))
		}
		resp, err := h(ctx, msg)
		if err != nil {
			// Application errors still travel as Acks so the client can
			// decode them uniformly.
			resp = &wire.Ack{OK: false, Code: 500, Message: err.Error()}
		}
		if resp == nil {
			resp = &wire.Ack{OK: true, Code: 200}
		}
		out, err := wire.Encode(resp)
		if err != nil {
			http.Error(w, "encode error", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(out)
	})
	return mux, nil
}

// HTTPError is a non-200 HTTP status from the server. 4xx statuses are
// refusals — the request itself is defective — so Send does not retry
// them; 5xx and transport-level failures are retried.
type HTTPError struct {
	Status int
	Body   string
}

// Error implements error.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("transport: HTTP %d: %s", e.Status, e.Body)
}

// Retryable reports whether the status may succeed on resend.
func (e *HTTPError) Retryable() bool {
	return e.Status < 400 || e.Status >= 500
}

// Client sends SOR messages to a server URL. It implements the frontend's
// Sender interface. Safe for concurrent use.
type Client struct {
	url        string
	http       *http.Client
	retries    int
	backoff    time.Duration
	backoffCap time.Duration

	delay      *Backoff
	jitterSeed int64 // 0 = seed from the wall clock

	sends atomic.Int64

	// monitor is the shared retry-observation path (backoff.go): the
	// same series and hook the stream transport's reconnects report to.
	monitor *RetryMonitor

	obsv *obs.Observer
	met  clientMetrics
}

// clientMetrics are the client's constant-label handles; all nil (no-op)
// without an observer. Retry/backoff series live on the shared
// RetryMonitor, not here.
type clientMetrics struct {
	sends  *obs.Counter
	sendMs *obs.Histogram
}

func newClientMetrics(reg *obs.Registry) clientMetrics {
	return clientMetrics{
		sends:  reg.Counter("sor_client_sends_total"),
		sendMs: reg.LatencyHistogram("sor_client_send_ms"),
	}
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client.
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) { c.http = h }
}

// WithObserver instruments the client: sends/retries/backoff become
// metrics series and every attempt records a "client.send" span carrying
// the request's trace id.
func WithObserver(o *obs.Observer) ClientOption {
	return func(c *Client) { c.obsv = o }
}

// NewClient creates a client for a server base URL (e.g.
// "http://127.0.0.1:8080").
func NewClient(baseURL string, opts ...ClientOption) (*Client, error) {
	if baseURL == "" {
		return nil, errors.New("transport: empty base URL")
	}
	c := &Client{
		url:        baseURL + Path,
		http:       &http.Client{Timeout: 10 * time.Second},
		retries:    2,
		backoff:    50 * time.Millisecond,
		backoffCap: 2 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	c.delay = NewBackoff(c.backoff, c.backoffCap, Retry{Seed: c.jitterSeed}.ResolveSeed(time.Now().UnixNano()))
	if c.obsv != nil {
		c.met = newClientMetrics(c.obsv.Metrics())
	}
	c.monitor = NewRetryMonitor(c.obsv.Metrics())
	return c, nil
}

// ClientStats are the client's send/retry counters.
type ClientStats struct {
	// Sends counts Send calls.
	Sends int64
	// Retries counts resends beyond each call's first attempt.
	Retries int64
	// NonRetryable counts sends abandoned without retry (4xx refusals).
	NonRetryable int64
}

// Stats snapshots the retry counters (observability for tests and load
// tools).
func (c *Client) Stats() ClientStats {
	rs := c.monitor.Stats()
	return ClientStats{
		Sends:        c.sends.Load(),
		Retries:      rs.Retries,
		NonRetryable: rs.NonRetryable,
	}
}

// retryDelay computes the attempt's backoff with full jitter: a uniform
// draw from [0, min(cap, base·2^(attempt-1))] via the shared Backoff
// helper (attempt is 1-based here, so attempt n is jitter step n-1).
func (c *Client) retryDelay(attempt int) time.Duration {
	return c.delay.Delay(attempt - 1)
}

// Send encodes m, POSTs it, and decodes the response message. Transport
// failures and 5xx statuses are retried with capped, fully jittered
// exponential backoff; encode errors and 4xx refusals are returned
// immediately (resending an already-refused frame cannot succeed).
func (c *Client) Send(ctx context.Context, m wire.Message) (wire.Message, error) {
	// Each Send is one logical request: mint a trace RequestID unless the
	// caller brought one on the context. The id is encoded into the frame
	// once, before the retry loop, so every retransmission of this request
	// carries the same id — that is what lets the server-side spans of all
	// attempts stitch into one trace.
	requestID := obs.RequestIDFrom(ctx)
	if requestID == "" {
		requestID = obs.NewRequestID()
		ctx = obs.WithRequestID(ctx, requestID)
	}
	body, err := wire.EncodeTraced(m, string(requestID))
	if err != nil {
		return nil, fmt.Errorf("transport: encode: %w", err)
	}
	c.sends.Add(1)
	c.met.sends.Inc()
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			delay := c.retryDelay(attempt)
			c.monitor.ObserveRetry(attempt, delay, lastErr)
			wake := time.NewTimer(delay)
			select {
			case <-wake.C:
			case <-ctx.Done():
				wake.Stop()
				return nil, fmt.Errorf("transport: cancelled: %w", ctx.Err())
			}
		}
		var span *obs.Span
		var t0 time.Time
		if c.obsv != nil {
			t0 = time.Now()
			span = c.obsv.StartSpan(ctx, "client.send")
			span.Annotate("type", m.Type().String())
			span.Annotate("attempt", fmt.Sprintf("%d", attempt+1))
		}
		resp, err := c.post(ctx, body)
		if c.obsv != nil {
			c.met.sendMs.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
			if err != nil {
				span.Annotate("error", err.Error())
			}
			span.End()
		}
		if err != nil {
			var httpErr *HTTPError
			if errors.As(err, &httpErr) && !httpErr.Retryable() {
				c.monitor.ObserveNonRetryable()
				return nil, err
			}
			lastErr = err
			continue
		}
		return resp, nil
	}
	c.monitor.ObserveExhausted()
	return nil, fmt.Errorf("transport: giving up after %d attempts: %w", c.retries+1, lastErr)
}

// SendBatch coalesces up to wire.MaxBatchReports reports into one
// DataUploadBatch message — the burst-ingest path load generators and
// store-and-forward phones use. It returns the server's batch Ack.
func (c *Client) SendBatch(ctx context.Context, uploads []*wire.DataUpload) (*wire.Ack, error) {
	if len(uploads) == 0 {
		return nil, errors.New("transport: empty upload batch")
	}
	if len(uploads) > wire.MaxBatchReports {
		return nil, fmt.Errorf("transport: batch of %d exceeds %d reports",
			len(uploads), wire.MaxBatchReports)
	}
	batch := &wire.DataUploadBatch{Uploads: make([]wire.DataUpload, len(uploads))}
	for i, up := range uploads {
		if up == nil {
			return nil, fmt.Errorf("transport: nil upload at %d", i)
		}
		batch.Uploads[i] = *up
	}
	resp, err := c.Send(ctx, batch)
	if err != nil {
		return nil, err
	}
	ack, ok := resp.(*wire.Ack)
	if !ok {
		return nil, fmt.Errorf("transport: batch response was %s, want ack", resp.Type())
	}
	return ack, nil
}

func (c *Client) post(ctx context.Context, body []byte) (wire.Message, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &HTTPError{Status: resp.StatusCode, Body: string(bytes.TrimSpace(respBody))}
	}
	msg, err := wire.Decode(respBody)
	if err != nil {
		return nil, fmt.Errorf("transport: decoding response: %w", err)
	}
	return msg, nil
}
