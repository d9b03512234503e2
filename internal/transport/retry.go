package transport

import "time"

// Retry is the one retry/backoff envelope every layer accepts. The HTTP
// client (WithRetry), the stream session client (session.WithClientRetry),
// the device outbox (frontend.WithOutboxRetry), and the cluster router all
// consume the same four knobs; there is no other way to set them. Zero
// values keep the owning layer's default; Attempts < 0 disables retries
// entirely (exactly one attempt).
type Retry struct {
	// Attempts is how many times a failed send is retried beyond the
	// first attempt (0 = layer default, negative = no retries).
	Attempts int
	// Base / Cap are the capped full-jitter backoff envelope
	// (0 = layer default). A Base of exactly -1 disables backoff sleeps —
	// deterministic soak drivers use it so retries never consume clock.
	Base time.Duration
	Cap  time.Duration
	// Seed makes the jitter deterministic when nonzero (simulations,
	// tests). 0 is not a seed: it selects the layer's own source — the
	// wall clock, or for the outbox a hash of the device token — so a
	// driver that must replay may never pass 0, and one that derives
	// per-phone seeds (seed + i) must step over it.
	Seed int64
}

// ResolveAttempts resolves the retry count against a layer default.
func (r Retry) ResolveAttempts(def int) int {
	switch {
	case r.Attempts < 0:
		return 0
	case r.Attempts == 0:
		return def
	default:
		return r.Attempts
	}
}

// ResolveBase resolves the backoff base against a layer default; -1
// means no backoff at all.
func (r Retry) ResolveBase(def time.Duration) time.Duration {
	switch {
	case r.Base == -1:
		return 0
	case r.Base == 0:
		return def
	default:
		return r.Base
	}
}

// ResolveCap resolves the backoff cap against a layer default.
func (r Retry) ResolveCap(def time.Duration) time.Duration {
	if r.Cap == 0 {
		return def
	}
	return r.Cap
}

// ResolveSeed resolves the jitter seed; fallback supplies the layer's
// time-derived seed when the caller left it 0.
func (r Retry) ResolveSeed(fallback int64) int64 {
	if r.Seed == 0 {
		return fallback
	}
	return r.Seed
}

// WithRetry applies a Retry envelope to the HTTP client (defaults: 2
// retries, 50 ms base doubling per attempt before jitter, 2 s cap).
func WithRetry(r Retry) ClientOption {
	return func(c *Client) {
		c.retries = r.ResolveAttempts(c.retries)
		c.backoff = r.ResolveBase(c.backoff)
		c.backoffCap = r.ResolveCap(c.backoffCap)
		c.jitterSeed = r.ResolveSeed(c.jitterSeed)
	}
}
