package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sor/internal/obs"
)

// Backoff draws capped full-jitter retry delays: step n is a uniform draw
// from [0, min(cap, base·2^n)]. Full jitter decorrelates a fleet of peers
// that all lost the same server — the device outbox, the client retry
// loop, and the replication stream share this one shape so their retry
// storms never arrive in synchronized waves. Safe for concurrent use.
type Backoff struct {
	base time.Duration
	cap  time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewBackoff builds a jitter source with the given envelope. The seed
// makes the draws deterministic (simulations, tests); a zero or negative
// base disables the delay entirely.
func NewBackoff(base, cap time.Duration, seed int64) *Backoff {
	return &Backoff{base: base, cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// Delay draws the delay for backoff step n (0-based: step 0 is capped at
// base). The doubling loop stops as soon as the ceiling reaches the cap,
// so large steps cannot overflow.
func (b *Backoff) Delay(step int) time.Duration {
	ceil := b.base
	for i := 0; i < step && ceil < b.cap; i++ {
		ceil *= 2
	}
	if ceil > b.cap {
		ceil = b.cap
	}
	if ceil <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return time.Duration(b.rng.Int63n(int64(ceil) + 1))
}

// RetryMonitor is the shared retry/backoff observation path. The HTTP
// client's Send loop and the stream session's reconnect loop both report
// through one of these, so every retry — whatever the transport — lands on
// the same obs series (sor_client_retries_total, sor_client_backoff_ms,
// ...), instead of each transport growing a parallel mechanism. All
// methods are safe for concurrent use and degrade to pure counting
// without a registry.
type RetryMonitor struct {
	// onRetry, when set, is called before each retry sleep (tests).
	onRetry func(attempt int, delay time.Duration, err error)

	retries      atomic.Int64
	nonRetryable atomic.Int64
	exhausted    atomic.Int64

	retriesC      *obs.Counter
	nonRetryableC *obs.Counter
	exhaustedC    *obs.Counter
	backoffMs     *obs.Histogram
}

// NewRetryMonitor builds a monitor registering the shared retry series on
// reg (nil reg = counters only, no metrics).
func NewRetryMonitor(reg *obs.Registry) *RetryMonitor {
	return &RetryMonitor{
		retriesC:      reg.Counter("sor_client_retries_total"),
		nonRetryableC: reg.Counter("sor_client_non_retryable_total"),
		exhaustedC:    reg.Counter("sor_client_exhausted_total"),
		backoffMs:     reg.LatencyHistogram("sor_client_backoff_ms"),
	}
}

// ObserveRetry records one retry about to happen: attempt is the upcoming
// attempt number (1-based), delay the jittered backoff about to be slept,
// err the failure that caused it.
func (m *RetryMonitor) ObserveRetry(attempt int, delay time.Duration, err error) {
	if m.onRetry != nil {
		m.onRetry(attempt, delay, err)
	}
	m.retries.Add(1)
	m.retriesC.Inc()
	m.backoffMs.Observe(float64(delay) / float64(time.Millisecond))
}

// ObserveNonRetryable records a send abandoned without retry (a refusal).
func (m *RetryMonitor) ObserveNonRetryable() {
	m.nonRetryable.Add(1)
	m.nonRetryableC.Inc()
}

// ObserveExhausted records a send that ran out of attempts.
func (m *RetryMonitor) ObserveExhausted() {
	m.exhausted.Add(1)
	m.exhaustedC.Inc()
}

// RetryStats snapshots the monitor's counters.
type RetryStats struct {
	Retries      int64
	NonRetryable int64
	Exhausted    int64
}

// Stats snapshots the retry counters.
func (m *RetryMonitor) Stats() RetryStats {
	return RetryStats{
		Retries:      m.retries.Load(),
		NonRetryable: m.nonRetryable.Load(),
		Exhausted:    m.exhausted.Load(),
	}
}
