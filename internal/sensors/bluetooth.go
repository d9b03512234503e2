package sensors

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// BluetoothLink simulates the Bluetooth connection between a phone and an
// external multisensor such as the Sensordrone: a connect handshake,
// per-request latency, and a configurable transient failure rate. External
// providers are wrapped with WrapExternal so data acquisition exercises the
// same failure paths real hardware produces.
type BluetoothLink struct {
	mu        sync.Mutex
	rng       *rand.Rand
	connected bool
	// ConnectLatency is paid on the first use (or after Drop).
	ConnectLatency time.Duration
	// RequestLatency is paid per acquisition.
	RequestLatency time.Duration
	// FailureRate is the probability a request fails transiently.
	FailureRate float64
	connects    int
	failures    int
}

// NewBluetoothLink builds a link with deterministic randomness.
func NewBluetoothLink(seed int64, connectLatency, requestLatency time.Duration, failureRate float64) *BluetoothLink {
	return &BluetoothLink{
		rng:            rand.New(rand.NewSource(seed)),
		ConnectLatency: connectLatency,
		RequestLatency: requestLatency,
		FailureRate:    failureRate,
	}
}

// Failures reports how many transient failures were injected.
func (l *BluetoothLink) Failures() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failures
}

// use pays the link costs for one request and possibly injects a failure.
func (l *BluetoothLink) use(ctx context.Context) error {
	l.mu.Lock()
	needConnect := !l.connected
	fail := l.rng.Float64() < l.FailureRate
	if needConnect {
		l.connects++
	}
	if fail {
		l.failures++
	}
	l.mu.Unlock()

	wait := l.RequestLatency
	if needConnect {
		wait += l.ConnectLatency
	}
	if wait > 0 {
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return fmt.Errorf("sensors: bluetooth wait cancelled: %w", ctx.Err())
		}
	}
	if fail {
		// A transient failure also drops the connection.
		l.mu.Lock()
		l.connected = false
		l.mu.Unlock()
		return fmt.Errorf("sensors: bluetooth transient failure")
	}
	l.mu.Lock()
	l.connected = true
	l.mu.Unlock()
	return nil
}

// externalProvider wraps a provider behind a Bluetooth link.
type externalProvider struct {
	inner Provider
	link  *BluetoothLink
	// retries is how many times a transient failure is retried.
	retries int
}

var _ Provider = (*externalProvider)(nil)

// WrapExternal puts a provider behind the Bluetooth link with the given
// number of retries for transient failures.
func WrapExternal(p Provider, link *BluetoothLink, retries int) Provider {
	return &externalProvider{inner: p, link: link, retries: retries}
}

// Kind implements Provider.
func (e *externalProvider) Kind() string { return e.inner.Kind() }

// Source implements Provider.
func (e *externalProvider) Source() Source { return SourceExternal }

// Acquire implements Provider.
func (e *externalProvider) Acquire(ctx context.Context, req Request) (Reading, error) {
	var lastErr error
	for attempt := 0; attempt <= e.retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return Reading{}, fmt.Errorf("sensors: external acquire cancelled: %w", err)
		}
		if err := e.link.use(ctx); err != nil {
			lastErr = err
			continue
		}
		return e.inner.Acquire(ctx, req)
	}
	return Reading{}, fmt.Errorf("sensors: external %s failed after %d attempts: %w",
		e.inner.Kind(), e.retries+1, lastErr)
}
