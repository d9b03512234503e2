// Package sensors implements the Sensor Manager / Provider architecture of
// SOR's mobile frontend (Fig. 3). A Provider operates one embedded or
// external sensor; the Manager keeps the registry of providers keyed by
// the data-acquisition function names exposed to Lua scripts
// (get_light_readings, get_location, …), shares each provider's data
// buffer across concurrent tasks to save energy, performs acquisition
// asynchronously, and cancels it on timeout — all behaviours §II-A calls
// out explicitly.
package sensors

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sor/internal/geo"
)

// Source distinguishes embedded sensors from external (Bluetooth) ones.
type Source int

// Sources.
const (
	SourceEmbedded Source = iota + 1
	SourceExternal
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceEmbedded:
		return "embedded"
	case SourceExternal:
		return "external"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// Reading is one acquisition result: scalar values and/or located points
// taken within [At, At+Window].
type Reading struct {
	At     time.Time
	Window time.Duration
	Values []float64
	Points []geo.Point
}

// Request parameterizes an acquisition.
type Request struct {
	// At is the (simulated) time of the measurement.
	At time.Time
	// Count is how many readings to take within the window.
	Count int
	// Window is the paper's Δt.
	Window time.Duration
}

// Validate checks the request.
func (r Request) Validate() error {
	if r.Count <= 0 {
		return errors.New("sensors: request needs count > 0")
	}
	if r.Count > 1<<16 {
		return fmt.Errorf("sensors: request count %d unreasonably large", r.Count)
	}
	if r.Window < 0 {
		return errors.New("sensors: negative window")
	}
	return nil
}

// Provider operates one sensor.
type Provider interface {
	// Kind names the sensor ("light", "gps", ...).
	Kind() string
	// Source reports embedded vs external.
	Source() Source
	// Acquire performs one acquisition. Implementations must honour ctx.
	Acquire(ctx context.Context, req Request) (Reading, error)
}

// FuncProvider adapts a closure into a Provider; the device package uses
// it to wire the simulated world into the sensor architecture.
type FuncProvider struct {
	SensorKind   string
	SensorSource Source
	// Latency simulates acquisition time (e.g. Bluetooth round trips).
	Latency time.Duration
	// Sample produces the reading.
	Sample func(req Request) (Reading, error)
}

var _ Provider = (*FuncProvider)(nil)

// Kind implements Provider.
func (p *FuncProvider) Kind() string { return p.SensorKind }

// Source implements Provider.
func (p *FuncProvider) Source() Source { return p.SensorSource }

// Acquire implements Provider.
func (p *FuncProvider) Acquire(ctx context.Context, req Request) (Reading, error) {
	if err := req.Validate(); err != nil {
		return Reading{}, err
	}
	if p.Latency > 0 {
		select {
		case <-time.After(p.Latency):
		case <-ctx.Done():
			return Reading{}, fmt.Errorf("sensors: %s acquisition cancelled: %w", p.SensorKind, ctx.Err())
		}
	}
	if p.Sample == nil {
		return Reading{}, fmt.Errorf("sensors: provider %s has no sampler", p.SensorKind)
	}
	return p.Sample(req)
}

// Stats counts manager activity; BufferHits measure the energy saved by
// sharing buffered data across tasks.
type Stats struct {
	Acquisitions int
	BufferHits   int
	Timeouts     int
	Errors       int
}

// Manager is the provider registry (the Sensor Manager + Provider Register
// of Fig. 3).
type Manager struct {
	mu        sync.Mutex
	providers map[string]Provider // acquisition function name -> provider
	buffers   map[string]Reading  // last reading per function name
	bufferAge map[string]time.Time
	timeout   time.Duration
	stats     Stats
}

// bufferTTL is how long a buffered reading may be re-served, in simulated
// time relative to the request's At.
const bufferTTL = 5 * time.Second

// ManagerOption configures a Manager.
type ManagerOption func(*Manager)

// WithAcquireTimeout bounds each provider acquisition in wall-clock time
// (default 2 s) — the paper's "the manager can cancel data acquisition if
// timeout".
func WithAcquireTimeout(d time.Duration) ManagerOption {
	return func(m *Manager) { m.timeout = d }
}

// NewManager creates an empty manager.
func NewManager(opts ...ManagerOption) *Manager {
	m := &Manager{
		providers: make(map[string]Provider),
		buffers:   make(map[string]Reading),
		bufferAge: make(map[string]time.Time),
		timeout:   2 * time.Second,
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Register binds an acquisition function name to a provider (the Provider
// Register). Duplicate names are an error.
func (m *Manager) Register(funcName string, p Provider) error {
	if funcName == "" {
		return errors.New("sensors: empty acquisition function name")
	}
	if p == nil {
		return fmt.Errorf("sensors: nil provider for %q", funcName)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.providers[funcName]; dup {
		return fmt.Errorf("sensors: duplicate registration %q", funcName)
	}
	m.providers[funcName] = p
	return nil
}

// Provider returns the provider behind a function name.
func (m *Manager) Provider(funcName string) (Provider, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.providers[funcName]
	return p, ok
}

// Acquire resolves the function name, serves from the shared buffer when
// fresh, and otherwise acquires asynchronously with the configured
// timeout.
func (m *Manager) Acquire(ctx context.Context, funcName string, req Request) (Reading, error) {
	if err := req.Validate(); err != nil {
		return Reading{}, err
	}
	m.mu.Lock()
	p, ok := m.providers[funcName]
	if !ok {
		m.mu.Unlock()
		return Reading{}, fmt.Errorf("sensors: no provider for %q", funcName)
	}
	// Buffer sharing: a reading taken within ttl of the requested time
	// with at least as many values is reused.
	if buf, has := m.buffers[funcName]; has {
		age := req.At.Sub(m.bufferAge[funcName])
		if age >= 0 && age <= bufferTTL && len(buf.Values)+len(buf.Points) >= req.Count {
			m.stats.BufferHits++
			m.mu.Unlock()
			return buf, nil
		}
	}
	m.mu.Unlock()

	acquireCtx, cancel := context.WithTimeout(ctx, m.timeout)
	defer cancel()
	type result struct {
		r   Reading
		err error
	}
	ch := make(chan result, 1)
	go func() {
		r, err := p.Acquire(acquireCtx, req)
		ch <- result{r, err}
	}()
	select {
	case res := <-ch:
		m.mu.Lock()
		defer m.mu.Unlock()
		if res.err != nil {
			m.stats.Errors++
			return Reading{}, res.err
		}
		m.stats.Acquisitions++
		m.buffers[funcName] = res.r
		m.bufferAge[funcName] = req.At
		return res.r, nil
	case <-acquireCtx.Done():
		m.mu.Lock()
		m.stats.Timeouts++
		m.mu.Unlock()
		return Reading{}, fmt.Errorf("sensors: %s acquisition timed out", funcName)
	}
}

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
