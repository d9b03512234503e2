package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestNilHandlesAreNoOps pins the core contract: every handle in the
// package absorbs calls on a nil receiver, so instrumented code carries
// no enabled/disabled branches.
func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1.5)
	if h.Count() != 0 || h.Merged() != nil {
		t.Fatal("nil histogram recorded something")
	}
	var tr *Tracer
	sp := tr.Start(context.Background(), "noop")
	sp.Annotate("k", "v")
	sp.End()
	if tr.Spans() != nil {
		t.Fatal("nil tracer holds spans")
	}
	var o *Observer
	o.StartSpan(context.Background(), "noop").End()
	o.Metrics().Counter("x").Inc()
	if o.Metrics().Counter("x").Value() != 0 {
		t.Fatal("nil observer counted")
	}
	snap := o.Metrics().Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot non-empty")
	}
}

// TestRegistryHandlesAlias pins that equal name+labels — in any label
// order — return the same underlying series.
func TestRegistryHandlesAlias(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs", L("type", "ping"), L("zone", "a"))
	b := r.Counter("reqs", L("zone", "a"), L("type", "ping"))
	if a != b {
		t.Fatal("label order changed series identity")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("aliased handles diverged")
	}
	if r.Counter("reqs") == a {
		t.Fatal("unlabeled series collided with labeled one")
	}
	snap := r.Snapshot()
	if snap.Counters[`reqs{type="ping",zone="a"}`] != 1 {
		t.Fatalf("snapshot keys = %v, want canonical sorted-label key", snap.Counters)
	}
}

// TestConcurrentCountersAndHistograms hammers one counter and one
// histogram from many goroutines and checks nothing is lost (run under
// -race this also proves the striping is sound).
func TestConcurrentCountersAndHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	h := r.LatencyHistogram("lat_ms")
	g := r.Gauge("depth")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i % 100))
				// Interleave lookups with increments: registration is
				// concurrent-safe too.
				r.Counter("hits").Add(0)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	m := h.Merged()
	if m.N() != workers*per {
		t.Fatalf("merged N = %d, want %d", m.N(), workers*per)
	}
}

// TestTracerRingBounds fills the ring past capacity and checks the
// oldest spans are evicted, newest retained, and drops accounted.
func TestTracerRingBounds(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		sp := tr.StartID(RequestID("r"+string(rune('0'+i))), "step")
		sp.End()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	if spans[0].RequestID != RequestID("r6") || spans[3].RequestID != RequestID("r9") {
		t.Fatalf("ring kept %q..%q, want r6..r9 oldest-first", spans[0].RequestID, spans[3].RequestID)
	}
	total, dropped := tr.Stats()
	if total != 10 || dropped != 6 {
		t.Fatalf("stats = (%d,%d), want (10,6)", total, dropped)
	}
}

// TestIncSample pins the sampling contract: the first call fires (so
// low-traffic series still get data), 1 in 2^shift fire per stripe —
// at most stripes-1 extras overall, however calls spread across
// stripes — the counter still counts every call exactly, shift 0
// always fires, and a nil counter never does.
func TestIncSample(t *testing.T) {
	c := &Counter{}
	if !c.IncSample(3) {
		t.Fatal("first call did not fire")
	}
	fired := 1
	for i := 1; i < 800; i++ {
		if c.IncSample(3) {
			fired++
		}
	}
	if fired < 100 || fired > 100+counterStripes-1 {
		t.Fatalf("fired %d of 800 at shift 3, want 100..%d", fired, 100+counterStripes-1)
	}
	if c.Value() != 800 {
		t.Fatalf("count = %d, want 800 (sampling must not thin the count)", c.Value())
	}
	always := &Counter{}
	for i := 0; i < 5; i++ {
		if !always.IncSample(0) {
			t.Fatal("shift-0 sample skipped a call")
		}
	}
	var nilC *Counter
	if nilC.IncSample(3) {
		t.Fatal("nil counter fired")
	}
}

// TestUntracedSpansAreFree pins that spans for an empty RequestID are
// skipped entirely: tracing is request-scoped, an uncorrelatable span
// would only burn ring space and tracer-lock time on the hot path.
func TestUntracedSpansAreFree(t *testing.T) {
	tr := NewTracer(8)
	sp := tr.Start(context.Background(), "server.handle")
	if sp != nil {
		t.Fatal("untraced context produced a live span")
	}
	sp.Annotate("k", "v")
	sp.End()
	tr.StartID("", "direct").End()
	if got := tr.Spans(); len(got) != 0 {
		t.Fatalf("untraced spans recorded: %+v", got)
	}
	if total, _ := tr.Stats(); total != 0 {
		t.Fatalf("untraced spans counted: total = %d", total)
	}
	tr.StartID("req-1", "real").End()
	if got := tr.Spans(); len(got) != 1 || got[0].Name != "real" {
		t.Fatalf("traced span not recorded: %+v", got)
	}
}

// TestRequestIDContextRoundTrip pins the context plumbing and id
// uniqueness.
func TestRequestIDContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if RequestIDFrom(ctx) != "" {
		t.Fatal("fresh context carries a RequestID")
	}
	id := NewRequestID()
	if id == "" || id == NewRequestID() {
		t.Fatal("NewRequestID not unique")
	}
	ctx = WithRequestID(ctx, id)
	if RequestIDFrom(ctx) != id {
		t.Fatal("RequestID lost in context round trip")
	}
}

// TestSpanAttrsAndFilter pins span annotation and per-request filtering.
func TestSpanAttrsAndFilter(t *testing.T) {
	tr := NewTracer(16)
	ctx := WithRequestID(context.Background(), "req-1")
	sp := tr.Start(ctx, "server.handle")
	sp.Annotate("type", "data-upload")
	sp.End()
	tr.StartID("req-2", "other").End()

	got := tr.SpansFor("req-1")
	if len(got) != 1 || got[0].Name != "server.handle" {
		t.Fatalf("SpansFor(req-1) = %+v", got)
	}
	if len(got[0].Attrs) != 1 || got[0].Attrs[0] != (Attr{Key: "type", Value: "data-upload"}) {
		t.Fatalf("attrs = %+v", got[0].Attrs)
	}
	if got[0].Duration < 0 {
		t.Fatal("negative span duration")
	}
}

// TestDebugHandlers boots the debug mux and checks the JSON shapes the
// sorctl subcommands and the obs-smoke script depend on.
func TestDebugHandlers(t *testing.T) {
	o := NewObserver()
	o.Metrics().Counter("sor_test_total").Add(7)
	o.Metrics().LatencyHistogram("sor_test_ms").Observe(3)
	o.StartSpanID("req-9", "unit").End()

	mux := http.NewServeMux()
	RegisterDebug(mux, o)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var snap Snapshot
	res, err := http.Get(ts.URL + MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["sor_test_total"] != 7 {
		t.Fatalf("metrics endpoint counters = %v", snap.Counters)
	}
	if hs := snap.Histograms["sor_test_ms"]; hs.Count != 1 || len(hs.Bounds) == 0 {
		t.Fatalf("metrics endpoint histogram = %+v", hs)
	}

	var traces traceResponse
	res2, err := http.Get(ts.URL + TracePath + "?request_id=req-9")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	if err := json.NewDecoder(res2.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if len(traces.Spans) != 1 || traces.Spans[0].Name != "unit" {
		t.Fatalf("trace endpoint spans = %+v", traces.Spans)
	}

	res3, err := http.Get(ts.URL + PprofPrefix)
	if err != nil {
		t.Fatal(err)
	}
	defer res3.Body.Close()
	if res3.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", res3.StatusCode)
	}
}

// Count returns the total number of observations across stripes.
func (h *Histogram) Count() int {
	if h == nil {
		return 0
	}
	n := 0
	for i := range h.stripe {
		h.stripe[i].mu.Lock()
		n += h.stripe[i].h.N()
		h.stripe[i].mu.Unlock()
	}
	return n
}
