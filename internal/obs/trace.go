package obs

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sor/internal/vclock"
)

// RequestID names one logical request end to end: minted once by the
// client, carried on the context, encoded into the wire envelope, and
// stamped on every span the request produces — across retries, the
// server handler, the dedup decision, and the asynchronous processor
// fold. An empty RequestID means "untraced".
type RequestID string

type requestIDKey struct{}

// WithRequestID returns ctx carrying id.
func WithRequestID(ctx context.Context, id RequestID) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom extracts the RequestID from ctx ("" if absent).
func RequestIDFrom(ctx context.Context) RequestID {
	id, _ := ctx.Value(requestIDKey{}).(RequestID)
	return id
}

// idSeq and idBase make NewRequestID cheap (one atomic add, one small
// format) while still unique across processes with overwhelming
// likelihood: the base mixes the process start instant and the pid.
var (
	idSeq  atomic.Uint64
	idBase = fmt.Sprintf("%x-%x", time.Now().UnixNano(), os.Getpid())
)

// NewRequestID mints a fresh process-unique RequestID.
func NewRequestID() RequestID {
	return RequestID(fmt.Sprintf("%s-%x", idBase, idSeq.Add(1)))
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is a completed span as stored in the tracer's ring buffer.
type SpanRecord struct {
	RequestID RequestID     `json:"request_id,omitempty"`
	Name      string        `json:"name"`
	Start     time.Time     `json:"start"`
	Duration  time.Duration `json:"duration_ns"`
	Attrs     []Attr        `json:"attrs,omitempty"`
}

// Span is an in-flight timed operation. It belongs to the goroutine
// that started it; End publishes it into the tracer's buffer. A nil
// Span (from a nil tracer) absorbs every call.
type Span struct {
	tracer *Tracer
	rec    SpanRecord
}

// Annotate attaches a key/value pair to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Value: value})
}

// End stamps the duration and publishes the span. Calling End more than
// once publishes duplicate records; don't.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.Duration = s.tracer.now().Sub(s.rec.Start)
	s.tracer.record(s.rec)
}

// DefaultSpanBuffer is the tracer's default ring capacity.
const DefaultSpanBuffer = 4096

// Tracer keeps the most recent completed spans in a fixed-size ring:
// recording is O(1), memory is bounded, and old spans fall off the back.
type Tracer struct {
	mu      sync.Mutex
	ring    []SpanRecord
	next    int   // ring index of the next write
	total   int64 // spans ever recorded
	dropped int64 // spans overwritten before being read

	// clock stamps span start times and durations; nil means the wall
	// clock. Written once before spans flow (SetClock), read per span.
	clock vclock.Clock
}

// SetClock substitutes the clock stamping span times. Call before any
// spans are started; a simulation passes its *vclock.Virtual so trace
// timestamps are virtual — and therefore identical across same-seed
// runs.
func (t *Tracer) SetClock(clk vclock.Clock) {
	if t == nil {
		return
	}
	t.clock = clk
}

// now reads the tracer's clock; nil tracer or nil clock means wall time.
func (t *Tracer) now() time.Time {
	if t == nil || t.clock == nil {
		return time.Now()
	}
	return t.clock.Now()
}

// NewTracer returns a tracer holding up to capacity completed spans
// (DefaultSpanBuffer if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanBuffer
	}
	return &Tracer{ring: make([]SpanRecord, 0, capacity)}
}

// Start opens a span named name, inheriting the RequestID on ctx.
// Returns nil (a no-op span) on a nil tracer.
func (t *Tracer) Start(ctx context.Context, name string) *Span {
	if t == nil {
		return nil
	}
	return t.StartID(RequestIDFrom(ctx), name)
}

// StartID opens a span bound to an explicit RequestID — for code that
// has the id but no context, like the processor folding stored uploads.
// An empty id means the request is untraced: nothing could ever
// correlate the span, so StartID returns nil and the whole span —
// allocation, annotations, the ring write under the tracer lock — costs
// nothing. Every wire request carries a client-minted RequestID, so
// only direct internal calls (harnesses, benchmarks) take this path.
func (t *Tracer) StartID(id RequestID, name string) *Span {
	if t == nil || id == "" {
		return nil
	}
	return &Span{tracer: t, rec: SpanRecord{RequestID: id, Name: name, Start: t.now()}}
}

func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, rec)
		return
	}
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	t.dropped++
}

// Spans returns the buffered spans, oldest first.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// SpansFor returns the buffered spans carrying id, oldest first.
func (t *Tracer) SpansFor(id RequestID) []SpanRecord {
	var out []SpanRecord
	for _, rec := range t.Spans() {
		if rec.RequestID == id {
			out = append(out, rec)
		}
	}
	return out
}

// Stats reports lifetime totals: spans recorded and spans evicted from
// the ring before they could be read.
func (t *Tracer) Stats() (total, dropped int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total, t.dropped
}

// Observer bundles a metrics registry and a tracer behind one nil-safe
// handle — the single value components accept to become observable.
type Observer struct {
	reg    *Registry
	tracer *Tracer
	clock  vclock.Clock // pending tracer clock, installed by NewObserver
}

// ObserverOption customises NewObserver.
type ObserverOption func(*Observer)

// WithTracer substitutes a caller-owned tracer (e.g. a larger ring).
func WithTracer(t *Tracer) ObserverOption {
	return func(o *Observer) { o.tracer = t }
}

// WithClock stamps this observer's spans from clk instead of the wall
// clock (simulations pass a *vclock.Virtual). Applied after WithTracer,
// so it configures whichever tracer the observer ends up with.
func WithClock(clk vclock.Clock) ObserverOption {
	return func(o *Observer) { o.clock = clk }
}

// NewObserver returns an observer with a fresh registry and a
// default-sized tracer unless options substitute either.
func NewObserver(opts ...ObserverOption) *Observer {
	o := &Observer{reg: NewRegistry(), tracer: NewTracer(DefaultSpanBuffer)}
	for _, opt := range opts {
		opt(o)
	}
	if o.clock != nil {
		o.tracer.SetClock(o.clock)
	}
	return o
}

// Metrics returns the registry (nil on a nil observer; registry lookups
// on a nil registry yield nil no-op handles, so chaining is safe).
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the tracer (nil on a nil observer).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// StartSpan opens a span via the observer's tracer; nil-safe.
func (o *Observer) StartSpan(ctx context.Context, name string) *Span {
	return o.Tracer().Start(ctx, name)
}

// StartSpanID opens a span bound to an explicit RequestID; nil-safe.
func (o *Observer) StartSpanID(id RequestID, name string) *Span {
	return o.Tracer().StartID(id, name)
}
