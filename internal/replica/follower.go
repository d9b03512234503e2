package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sor/internal/obs"
	"sor/internal/server"
	"sor/internal/store"
	"sor/internal/transport"
	"sor/internal/vclock"
	"sor/internal/wal"
	"sor/internal/wire"
)

// ErrNeedsResync reports that the leader has compacted past this
// follower's position: the stream cannot resume, and the follower must
// be rebuilt from a fresh data directory (or a copy of the leader's).
var ErrNeedsResync = errors.New("replica: leader compacted past our position; full resync required")

// Sender is the one transport method the follower needs; *transport.Client
// satisfies it, and simulations substitute an in-process round trip.
type Sender interface {
	Send(ctx context.Context, m wire.Message) (wire.Message, error)
}

// Follower defaults.
const (
	// DefaultPullInterval paces pulls while caught up (each one doubles
	// as the heartbeat that keeps the staleness probe fresh).
	DefaultPullInterval = 500 * time.Millisecond
	// Reconnect backoff envelope (capped full jitter, shared helper).
	defaultBackoffBase = 100 * time.Millisecond
	defaultBackoffCap  = 10 * time.Second
)

// FollowerOption tunes a Follower.
type FollowerOption func(*Follower)

// WithFollowerClock substitutes the clock (simulations pass a
// *vclock.Virtual).
func WithFollowerClock(clk vclock.Clock) FollowerOption {
	return func(f *Follower) { f.clock = vclock.Or(clk) }
}

// WithPullInterval overrides the caught-up pull cadence.
func WithPullInterval(d time.Duration) FollowerOption {
	return func(f *Follower) { f.interval = d }
}

// WithFollowerBackoff overrides the reconnect backoff envelope; seed
// makes the jitter reproducible.
func WithFollowerBackoff(base, cap time.Duration, seed int64) FollowerOption {
	return func(f *Follower) { f.backoff = transport.NewBackoff(base, cap, seed) }
}

// WithFollowerMetrics publishes sor_replica_* follower series into reg.
func WithFollowerMetrics(reg *obs.Registry) FollowerOption {
	return func(f *Follower) { f.reg = reg }
}

// Follower pulls the leader's WAL and applies it to the local store.
// PullOnce/NextDelay are the event-driven core (the simulation drives
// them directly on virtual time); Run wraps them in a goroutine loop for
// production.
type Follower struct {
	id         string
	st         *store.Store
	send       Sender
	clock      vclock.Clock
	interval   time.Duration
	backoff    *transport.Backoff
	maxRecords int // DefaultBatchRecords; tests pull in smaller steps
	reg        *obs.Registry
	// tail is the CRC of the last record in the local log, which each
	// pull sends for log matching; PullOnce alone touches it.
	tail recordCRC

	mu          sync.Mutex
	lastContact time.Time
	leaderLSN   uint64
	failures    int
	needsResync bool

	appliedGauge *obs.Gauge
	leaderGauge  *obs.Gauge
	lagGauge     *obs.Gauge
	connGauge    *obs.Gauge
	applied      *obs.Counter
	pullFailures *obs.Counter
}

// NewFollower builds a follower applying the leader's stream (reached
// via send) onto st, which must be a store opened by the follower's own
// DurableBackend — bootstrap is its local autosnapshot plus WAL tail,
// done by Open, before any pull.
func NewFollower(id string, st *store.Store, send Sender, opts ...FollowerOption) *Follower {
	f := &Follower{
		id:         id,
		st:         st,
		send:       send,
		clock:      vclock.Real{},
		interval:   DefaultPullInterval,
		maxRecords: DefaultBatchRecords,
	}
	for _, opt := range opts {
		opt(f)
	}
	if f.backoff == nil {
		f.backoff = transport.NewBackoff(defaultBackoffBase, defaultBackoffCap, time.Now().UnixNano())
	}
	f.appliedGauge = f.reg.Gauge("sor_replica_applied_lsn")
	f.leaderGauge = f.reg.Gauge("sor_replica_leader_lsn")
	f.lagGauge = f.reg.Gauge("sor_replica_lag_records")
	f.connGauge = f.reg.Gauge("sor_replica_connected")
	f.applied = f.reg.Counter("sor_replica_applied_records_total")
	f.pullFailures = f.reg.Counter("sor_replica_pull_failures_total")
	f.appliedGauge.Set(int64(st.AppliedLSN()))
	return f
}

// PullOnce performs one pull round-trip: ack what is durably applied,
// append and apply what comes back, wait for it to be durable (the next
// pull's FromLSN is the ack — it must never claim records a crash could
// take back). Returns how many records advanced.
func (f *Follower) PullOnce(ctx context.Context) (int, error) {
	from := f.st.AppliedLSN() + 1
	pull := &wire.ReplPull{
		FollowerID: f.id,
		FromLSN:    from,
		MaxRecords: f.maxRecords,
		MaxBytes:   DefaultBatchBytes,
	}
	if f.tail.lsn != from-1 {
		crc, ok := f.st.RecordCRC(from - 1)
		f.tail = recordCRC{}
		if ok {
			f.tail = recordCRC{from - 1, crc}
		}
	}
	if f.tail.lsn != 0 {
		pull.PrevCRC, pull.HasPrevCRC = f.tail.crc, true
	}
	resp, err := f.send.Send(ctx, pull)
	if err != nil {
		return 0, f.fail(fmt.Errorf("replica: pull from %d: %w", from, err))
	}
	rr, ok := resp.(*wire.ReplRecords)
	if !ok {
		if ack, isAck := resp.(*wire.Ack); isAck {
			return 0, f.fail(fmt.Errorf("replica: leader refused pull: %d %s", ack.Code, ack.Message))
		}
		return 0, f.fail(fmt.Errorf("replica: unexpected %s reply to pull", resp.Type()))
	}
	if rr.Compacted {
		f.mu.Lock()
		f.needsResync = true
		f.mu.Unlock()
		f.connGauge.Set(0)
		return 0, ErrNeedsResync
	}
	if len(rr.Records) > 0 && rr.FirstLSN != from {
		return 0, f.fail(fmt.Errorf("replica: asked for LSN %d, got batch at %d", from, rr.FirstLSN))
	}
	for i, rec := range rr.Records {
		if err := f.st.ApplyReplicated(from+uint64(i), rec); err != nil {
			return i, f.fail(err)
		}
		f.tail = recordCRC{from + uint64(i), wal.Checksum(rec)}
	}
	n := len(rr.Records)
	if n > 0 {
		if err := f.st.WaitDurable(from + uint64(n) - 1); err != nil {
			return n, f.fail(fmt.Errorf("replica: waiting for durability: %w", err))
		}
	}
	applied := f.st.AppliedLSN()
	f.mu.Lock()
	f.lastContact = f.clock.Now()
	f.leaderLSN = rr.LeaderLSN
	f.failures = 0
	f.mu.Unlock()
	f.applied.Add(int64(n))
	f.appliedGauge.Set(int64(applied))
	f.leaderGauge.Set(int64(rr.LeaderLSN))
	if rr.LeaderLSN > applied {
		f.lagGauge.Set(int64(rr.LeaderLSN - applied))
	} else {
		f.lagGauge.Set(0)
	}
	f.connGauge.Set(1)
	return n, nil
}

func (f *Follower) fail(err error) error {
	f.mu.Lock()
	f.failures++
	f.mu.Unlock()
	f.pullFailures.Inc()
	f.connGauge.Set(0)
	return err
}

// NextDelay says how long to wait before the next PullOnce: nothing
// while catching up, the heartbeat interval while caught up, and the
// shared capped full-jitter backoff while the leader is unreachable.
func (f *Follower) NextDelay() time.Duration {
	applied := f.st.AppliedLSN()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failures > 0 {
		return f.backoff.Delay(f.failures - 1)
	}
	if f.leaderLSN > applied {
		return 0
	}
	return f.interval
}

// Run pulls until the context ends or the stream becomes unresumable
// (ErrNeedsResync). Transient errors only back off.
func (f *Follower) Run(ctx context.Context) error {
	for {
		_, err := f.PullOnce(ctx)
		if errors.Is(err, ErrNeedsResync) {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		d := f.NextDelay()
		if d > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-f.clock.After(d):
			}
		}
	}
}

// LagProbe adapts the follower's liveness view to the server's rank
// staleness gate.
func (f *Follower) LagProbe() server.ReplicaLagProbe {
	return func() (time.Duration, uint64) {
		applied := f.st.AppliedLSN()
		f.mu.Lock()
		defer f.mu.Unlock()
		var age time.Duration
		if f.lastContact.IsZero() {
			age = 1<<63 - 1 // never heard from the leader
		} else {
			age = f.clock.Since(f.lastContact)
		}
		var lag uint64
		if f.leaderLSN > applied {
			lag = f.leaderLSN - applied
		}
		return age, lag
	}
}

// Status reports the follower's own replication position.
func (f *Follower) Status() FollowerSelf {
	applied := f.st.AppliedLSN()
	f.mu.Lock()
	defer f.mu.Unlock()
	self := FollowerSelf{
		ID:          f.id,
		AppliedLSN:  applied,
		LeaderLSN:   f.leaderLSN,
		Failures:    f.failures,
		NeedsResync: f.needsResync,
		Connected:   f.failures == 0 && !f.lastContact.IsZero() && !f.needsResync,
	}
	if f.leaderLSN > applied {
		self.LagRecords = f.leaderLSN - applied
	}
	if !f.lastContact.IsZero() {
		self.LastContactMS = f.clock.Since(f.lastContact).Milliseconds()
	} else {
		self.LastContactMS = -1
	}
	return self
}
