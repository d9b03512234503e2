// Package obs is the zero-dependency observability substrate: a sharded
// metrics registry with constant-label handles, a request-scoped tracer
// with a bounded span buffer, and JSON debug handlers to expose both.
//
// The design splits cost between registration and use. Looking a series
// up (Registry.Counter and friends) takes a shard lock and builds the
// canonical series key; that happens once, at wiring time. The returned
// handle then writes one atomic word — cache-line-striped for counters
// and histograms, a single word for gauges — so hot-path increments
// never touch a map or a lock shared with lookups; timed sections whose clock reads would dominate the
// work being timed thin themselves with Counter.IncSample. Every handle
// method is nil-safe: a nil *Counter, *Gauge,
// *Histogram, *Tracer, or *Observer is a no-op, so instrumented code
// needs no "is observability on?" branches of its own.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sor/internal/stats"
)

// Label is one constant key/value dimension of a series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// seriesKey renders name plus sorted labels into the canonical series
// identity, e.g. `sor_handler_ms{type="data-upload"}`.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// counterStripes spreads concurrent writers to one series over
// independent cache lines. Must be a power of two.
const counterStripes = 8

// counterStripe pads each slot to a full cache line; without the
// padding the stripes sit adjacent and the striping buys nothing.
type counterStripe struct {
	v atomic.Int64
	_ [56]byte
}

// stripeSeq hands each pooled hint a distinct starting stripe so hints
// cover the stripe space instead of clustering on slot 0.
var stripeSeq atomic.Uint32

// stripeHints caches a stripe index per P: Get on the hot path hits the
// pool's private per-P slot, so concurrent writers to a shared handle
// pick different stripes without touching any shared word to decide
// which. In a tight microbenchmark a single contended add looks cheap
// (~10 ns — the line stays resident); in the real ingest path the line
// is evicted between increments and every add pays a remote fetch
// (~55 ns), which is what the striping avoids.
var stripeHints = sync.Pool{New: func() any {
	h := new(uint32)
	*h = stripeSeq.Add(1)
	return h
}}

// Counter is a monotonically increasing series, striped across padded
// cache lines so concurrent writers on different Ps don't ping-pong a
// single line. Writes are one mostly-core-local atomic add; reads
// (rare: snapshots) sum the stripes. A nil Counter ignores everything.
type Counter struct {
	stripe [counterStripes]counterStripe
}

// Inc adds one.
func (c *Counter) Inc() {
	c.Add(1)
}

// IncSample adds one and reports whether this call is a uniform
// 1-in-2^shift sample of the series (shift 0: every call). The
// decision uses the stripe's own count — each stripe fires 1 in 2^shift
// of its calls, so the overall rate is exact without any shared cursor
// — and each stripe's first call fires, so low-traffic series still
// produce data. Use it to thin a measurement whose cost dwarfs the
// add, like the clock-read pair around a latency histogram (~110 ns on
// the target hardware). A nil counter never fires.
func (c *Counter) IncSample(shift uint32) bool {
	if c == nil {
		return false
	}
	h := stripeHints.Get().(*uint32)
	n := c.stripe[*h&(counterStripes-1)].v.Add(1)
	stripeHints.Put(h)
	if shift == 0 {
		return true
	}
	return n&(1<<shift-1) == 1
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	h := stripeHints.Get().(*uint32)
	c.stripe[*h&(counterStripes-1)].v.Add(n)
	stripeHints.Put(h)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.stripe {
		n += c.stripe[i].v.Load()
	}
	return n
}

// Gauge is a series that can go up and down (queue depths, pool sizes).
// Multiple components may share one handle and Add deltas; the series
// then reads as the aggregate.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the gauge.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add applies a delta.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histStripes spreads concurrent Observe calls over independent locks so
// the hot path contends only 1/histStripes of the time. Must be a power
// of two.
const histStripes = 4

// Histogram wraps stats.Histogram (which is single-goroutine by design)
// in lock stripes: writers round-robin across stripes, readers merge all
// stripes into one snapshot.
type Histogram struct {
	bounds []float64
	next   atomic.Uint64
	stripe [histStripes]struct {
		mu sync.Mutex
		h  *stats.Histogram
	}
}

func newHistogram(bounds []float64) (*Histogram, error) {
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	for i := range h.stripe {
		sh, err := stats.NewHistogram(bounds)
		if err != nil {
			return nil, err
		}
		h.stripe[i].h = sh
	}
	return h, nil
}

// Observe records one measurement.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	s := &h.stripe[h.next.Add(1)&(histStripes-1)]
	s.mu.Lock()
	s.h.Add(v)
	s.mu.Unlock()
}

// Merged folds all stripes into a fresh stats.Histogram.
func (h *Histogram) Merged() *stats.Histogram {
	if h == nil {
		return nil
	}
	out, err := stats.NewHistogram(h.bounds)
	if err != nil {
		return nil // bounds were validated at construction
	}
	for i := range h.stripe {
		h.stripe[i].mu.Lock()
		err = out.Merge(h.stripe[i].h)
		h.stripe[i].mu.Unlock()
		if err != nil {
			return nil
		}
	}
	return out
}

// registryShards bounds lock contention during handle lookups. Lookups
// are wiring-time operations, so a small power of two is plenty.
const registryShards = 16

type regShard struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// Registry owns every series. Handles returned from one Registry with
// the same name+labels alias the same underlying series.
type Registry struct {
	shards [registryShards]regShard
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		r.shards[i].counters = make(map[string]*Counter)
		r.shards[i].gauges = make(map[string]*Gauge)
		r.shards[i].histograms = make(map[string]*Histogram)
	}
	return r
}

func (r *Registry) shard(key string) *regShard {
	// FNV-1a over the key; inlined to avoid a hash.Hash allocation.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &r.shards[h&(registryShards-1)]
}

// Counter returns (creating if needed) the counter handle for
// name+labels. Nil receiver returns a nil (no-op) handle.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	s := r.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counters[key]
	if !ok {
		c = &Counter{}
		s.counters[key] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge handle for name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	s := r.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gauges[key]
	if !ok {
		g = &Gauge{}
		s.gauges[key] = g
	}
	return g
}

// LatencyHistogram returns (creating if needed) a histogram over the
// canonical millisecond-latency bounds.
func (r *Registry) LatencyHistogram(name string, labels ...Label) *Histogram {
	return r.Histogram(name, latencyBounds, labels...)
}

var latencyBounds = []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// Histogram returns (creating if needed) the histogram handle for
// name+labels. Bounds matter only on first creation; later lookups of
// the same series return the existing handle regardless of bounds.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	s := r.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.histograms[key]
	if !ok {
		var err error
		h, err = newHistogram(bounds)
		if err != nil {
			// Invalid bounds are a programming error at wiring time;
			// return a nil (no-op) handle rather than poisoning the map.
			return nil
		}
		s.histograms[key] = h
	}
	return h
}

// HistogramSnapshot is the JSON rendering of one histogram series.
type HistogramSnapshot struct {
	Count  int       `json:"count"`
	Mean   float64   `json:"mean"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	P50    float64   `json:"p50"`
	P99    float64   `json:"p99"`
	Bounds []float64 `json:"bounds"`
	Counts []int     `json:"counts"` // len(bounds)+1; last is overflow
}

// Snapshot is a point-in-time copy of every series in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every series. Safe to call concurrently with writers;
// each shard is locked independently, so the snapshot is per-shard (not
// globally) atomic — fine for dashboards and tests that quiesce first.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return snap
	}
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		counters := make(map[string]*Counter, len(s.counters))
		for k, c := range s.counters {
			counters[k] = c
		}
		gauges := make(map[string]*Gauge, len(s.gauges))
		for k, g := range s.gauges {
			gauges[k] = g
		}
		hists := make(map[string]*Histogram, len(s.histograms))
		for k, h := range s.histograms {
			hists[k] = h
		}
		s.mu.Unlock()
		for k, c := range counters {
			snap.Counters[k] = c.Value()
		}
		for k, g := range gauges {
			snap.Gauges[k] = g.Value()
		}
		for k, h := range hists {
			snap.Histograms[k] = histSnapshot(h)
		}
	}
	return snap
}

func histSnapshot(h *Histogram) HistogramSnapshot {
	m := h.Merged()
	if m == nil {
		return HistogramSnapshot{}
	}
	hs := HistogramSnapshot{
		Count:  m.N(),
		Mean:   m.Mean(),
		Min:    m.Min(),
		Max:    m.Max(),
		Bounds: m.Bounds(),
		Counts: m.Counts(),
	}
	if m.N() > 0 {
		hs.P50, _ = m.Quantile(0.5)
		hs.P99, _ = m.Quantile(0.99)
	}
	return hs
}

// WriteJSON renders the snapshot as indented JSON (map keys sort, so the
// output is deterministic for a quiesced registry).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
