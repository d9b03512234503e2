package sensors

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

var acqTime = time.Date(2013, time.November, 15, 11, 30, 0, 0, time.UTC)

func constantProvider(kind string, v float64) *FuncProvider {
	return &FuncProvider{
		SensorKind:   kind,
		SensorSource: SourceEmbedded,
		Sample: func(req Request) (Reading, error) {
			vals := make([]float64, req.Count)
			for i := range vals {
				vals[i] = v
			}
			return Reading{At: req.At, Window: req.Window, Values: vals}, nil
		},
	}
}

func TestRequestValidate(t *testing.T) {
	ok := Request{At: acqTime, Count: 5, Window: time.Second}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Request{
		{Count: 0},
		{Count: -1},
		{Count: 1 << 17},
		{Count: 1, Window: -time.Second},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Fatalf("bad case %d should fail", i)
		}
	}
}

func TestSourceString(t *testing.T) {
	if SourceEmbedded.String() != "embedded" || SourceExternal.String() != "external" {
		t.Fatal("source names wrong")
	}
	if !strings.Contains(Source(9).String(), "9") {
		t.Fatal("unknown source should include number")
	}
}

func TestFuncProviderAcquire(t *testing.T) {
	p := constantProvider("light", 400)
	r, err := p.Acquire(context.Background(), Request{At: acqTime, Count: 3, Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Values) != 3 || r.Values[0] != 400 {
		t.Fatalf("reading = %+v", r)
	}
	if _, err := p.Acquire(context.Background(), Request{Count: 0}); err == nil {
		t.Fatal("invalid request must error")
	}
	empty := &FuncProvider{SensorKind: "x"}
	if _, err := empty.Acquire(context.Background(), Request{At: acqTime, Count: 1}); err == nil {
		t.Fatal("provider without sampler must error")
	}
}

func TestFuncProviderLatencyCancellation(t *testing.T) {
	p := constantProvider("slow", 1)
	p.Latency = 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.Acquire(ctx, Request{At: acqTime, Count: 1})
	if err == nil {
		t.Fatal("expected cancellation")
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancellation took too long")
	}
}

func TestManagerRegisterValidation(t *testing.T) {
	m := NewManager()
	if err := m.Register("", constantProvider("x", 1)); err == nil {
		t.Fatal("empty name must error")
	}
	if _, ok := m.Provider(""); ok {
		t.Fatal("refused registration left a provider")
	}
	if err := m.Register("get_x", nil); err == nil {
		t.Fatal("nil provider must error")
	}
	if err := m.Register("get_x", constantProvider("x", 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("get_x", constantProvider("x", 1)); err == nil {
		t.Fatal("duplicate must error")
	}
	if _, ok := m.Provider("get_x"); !ok {
		t.Fatal("provider lookup failed")
	}
	if _, ok := m.Provider("nope"); ok {
		t.Fatal("phantom provider")
	}
}

func TestManagerAcquireUnknownFunction(t *testing.T) {
	m := NewManager()
	_, err := m.Acquire(context.Background(), "get_ghost", Request{At: acqTime, Count: 1})
	if err == nil || !strings.Contains(err.Error(), "no provider") {
		t.Fatalf("err = %v", err)
	}
}

func TestManagerBufferSharing(t *testing.T) {
	calls := 0
	p := &FuncProvider{
		SensorKind: "light", SensorSource: SourceEmbedded,
		Sample: func(req Request) (Reading, error) {
			calls++
			return Reading{At: req.At, Values: make([]float64, req.Count)}, nil
		},
	}
	m := NewManager()
	if err := m.Register("get_light", p); err != nil {
		t.Fatal(err)
	}
	req := Request{At: acqTime, Count: 5, Window: time.Second}
	if _, err := m.Acquire(context.Background(), "get_light", req); err != nil {
		t.Fatal(err)
	}
	// Second task asks within the TTL: buffer hit, no new acquisition.
	req2 := Request{At: acqTime.Add(3 * time.Second), Count: 5, Window: time.Second}
	if _, err := m.Acquire(context.Background(), "get_light", req2); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("provider called %d times, want 1 (buffer share)", calls)
	}
	// Past the TTL: re-acquire.
	req3 := Request{At: acqTime.Add(30 * time.Second), Count: 5, Window: time.Second}
	if _, err := m.Acquire(context.Background(), "get_light", req3); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("provider called %d times, want 2", calls)
	}
	// A bigger request cannot be served from the smaller buffer.
	req4 := Request{At: acqTime.Add(31 * time.Second), Count: 50, Window: time.Second}
	if _, err := m.Acquire(context.Background(), "get_light", req4); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("provider called %d times, want 3", calls)
	}
	st := m.Stats()
	if st.Acquisitions != 3 || st.BufferHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	m.InvalidateBuffers()
	if _, err := m.Acquire(context.Background(), "get_light", req4); err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatal("invalidate did not clear buffer")
	}
}

func TestManagerTimeout(t *testing.T) {
	p := constantProvider("slow", 1)
	p.Latency = time.Minute
	m := NewManager(WithAcquireTimeout(30 * time.Millisecond))
	if err := m.Register("get_slow", p); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := m.Acquire(context.Background(), "get_slow", Request{At: acqTime, Count: 1})
	if err == nil {
		t.Fatal("expected timeout")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout enforcement too slow")
	}
	if m.Stats().Timeouts == 0 && m.Stats().Errors == 0 {
		t.Fatalf("stats did not record the failure: %+v", m.Stats())
	}
}

func TestManagerErrorCounting(t *testing.T) {
	p := &FuncProvider{
		SensorKind: "bad", SensorSource: SourceEmbedded,
		Sample: func(Request) (Reading, error) {
			return Reading{}, errors.New("hardware fault")
		},
	}
	m := NewManager()
	if err := m.Register("get_bad", p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Acquire(context.Background(), "get_bad", Request{At: acqTime, Count: 1}); err == nil {
		t.Fatal("provider error must propagate")
	}
	if m.Stats().Errors != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestManagerConcurrentAcquire(t *testing.T) {
	p := constantProvider("light", 300)
	m := NewManager()
	if err := m.Register("get_light", p); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{At: acqTime.Add(time.Duration(i) * time.Minute), Count: 2}
			_, err := m.Acquire(context.Background(), "get_light", req)
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestBluetoothLinkConnectAndFail(t *testing.T) {
	link := NewBluetoothLink(1, 0, 0, 0)
	if err := link.use(context.Background()); err != nil {
		t.Fatal(err)
	}
	if link.Connects() != 1 {
		t.Fatalf("connects = %d", link.Connects())
	}
	// Second use keeps the connection.
	if err := link.use(context.Background()); err != nil {
		t.Fatal(err)
	}
	if link.Connects() != 1 {
		t.Fatal("reconnected unnecessarily")
	}
	link.Drop()
	if err := link.use(context.Background()); err != nil {
		t.Fatal(err)
	}
	if link.Connects() != 2 {
		t.Fatal("drop did not force reconnect")
	}
}

func TestBluetoothAlwaysFailing(t *testing.T) {
	link := NewBluetoothLink(1, 0, 0, 1.0) // always fails
	inner := constantProvider("temperature", 66)
	ext := WrapExternal(inner, link, 2)
	if ext.Source() != SourceExternal {
		t.Fatal("wrapped provider should be external")
	}
	if ext.Kind() != "temperature" {
		t.Fatal("kind should pass through")
	}
	_, err := ext.Acquire(context.Background(), Request{At: acqTime, Count: 1})
	if err == nil {
		t.Fatal("always-failing link must error")
	}
	if link.Failures() != 3 { // initial + 2 retries
		t.Fatalf("failures = %d, want 3", link.Failures())
	}
}

func TestBluetoothRetrySucceeds(t *testing.T) {
	// With a 50% failure rate and several retries, acquisition should
	// eventually succeed (deterministic seed).
	link := NewBluetoothLink(42, 0, 0, 0.5)
	inner := constantProvider("humidity", 55)
	ext := WrapExternal(inner, link, 10)
	r, err := ext.Acquire(context.Background(), Request{At: acqTime, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Values) != 2 || r.Values[0] != 55 {
		t.Fatalf("reading = %+v", r)
	}
}

func TestManagerWithExternalProvider(t *testing.T) {
	// Full stack: manager -> bluetooth wrapper -> provider.
	link := NewBluetoothLink(7, time.Millisecond, 0, 0.3)
	inner := constantProvider("temperature", 66)
	m := NewManager(WithAcquireTimeout(5 * time.Second))
	if err := m.Register("get_temperature_readings", WrapExternal(inner, link, 5)); err != nil {
		t.Fatal(err)
	}
	r, err := m.Acquire(context.Background(), "get_temperature_readings",
		Request{At: acqTime, Count: 4, Window: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Values) != 4 {
		t.Fatalf("reading = %+v", r)
	}
}

// InvalidateBuffers clears all shared buffers (e.g. after the phone
// moves).
func (m *Manager) InvalidateBuffers() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buffers = make(map[string]Reading)
	m.bufferAge = make(map[string]time.Time)
}

// Drop disconnects the link; the next use reconnects.
func (l *BluetoothLink) Drop() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.connected = false
}

// Connects reports how many handshakes have run.
func (l *BluetoothLink) Connects() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.connects
}
