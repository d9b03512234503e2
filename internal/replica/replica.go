// Package replica implements WAL-shipped replication: a leader streams
// its committed write-ahead log to followers over the ordinary wire
// codec, and each follower appends the records verbatim to its own log
// and applies them through the store's replay path — so every piece of
// derived state (feature matrix, dedup windows, rank epochs) rebuilds on
// the replica exactly as it did on the leader, and the replica's data
// directory is recoverable by the same machinery as the leader's.
//
// The protocol is pull-based and stateless per request: a follower's
// ReplPull carries its durably-applied position (the combined heartbeat,
// acknowledgement and fetch), the leader's ReplRecords reply carries the
// next contiguous run of records. The leader pins a retention floor per
// acked follower so checkpoints never truncate segments a live follower
// still needs; a follower that outlives the liveness TTL loses its pin
// and, if the tail it needs is later compacted, is told to resync from a
// fresh data directory (ReplRecords.Compacted).
//
// Failover is operator-triggered and planned: Demote the leader (it
// starts refusing writes), wait until the chosen follower's applied LSN
// reaches the old head, Promote the follower (it rebuilds scheduler
// state and starts accepting writes), and rejoin the old leader as a
// follower of the new one — its log is a byte-identical prefix of the
// new leader's, so it resumes from its own head.
package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sor/internal/obs"
	"sor/internal/vclock"
	"sor/internal/wal"
	"sor/internal/wire"
)

// Leader defaults.
const (
	// DefaultBatchRecords / DefaultBatchBytes bound one ReplRecords reply
	// unless the pull asks for less.
	DefaultBatchRecords = 1024
	DefaultBatchBytes   = 4 << 20
	// DefaultFollowerTTL is how long a silent follower keeps its
	// retention pin. Past it the leader assumes the follower is gone and
	// lets checkpoints reclaim its segments; a zombie coming back after
	// that may be told to resync.
	DefaultFollowerTTL = 10 * time.Minute
)

// stateFile is the leader-side follower-ack ledger, persisted in the
// data directory so retention floors survive a leader restart: a
// follower that has not re-pulled yet is still protected from the first
// post-restart checkpoint.
const stateFile = "replica_state.json"

// LeaderOption tunes a Leader.
type LeaderOption func(*Leader)

// WithLeaderClock substitutes the liveness clock (simulations pass a
// *vclock.Virtual).
func WithLeaderClock(clk vclock.Clock) LeaderOption {
	return func(ld *Leader) { ld.clock = vclock.Or(clk) }
}

// WithFollowerTTL overrides the follower liveness window.
func WithFollowerTTL(d time.Duration) LeaderOption {
	return func(ld *Leader) { ld.ttl = d }
}

// WithStateDir names the leader's data directory (the backend's), where
// it persists follower acks and whose checkpoint it ships to resyncing
// followers. Empty (the default) keeps acks in memory, refusing resyncs.
func WithStateDir(dir string) LeaderOption {
	return func(ld *Leader) { ld.dir, ld.statePath = dir, filepath.Join(dir, stateFile) }
}

// WithLeaderMetrics publishes sor_replica_* leader series into reg.
func WithLeaderMetrics(reg *obs.Registry) LeaderOption {
	return func(ld *Leader) { ld.reg = reg }
}

// followerState is one follower's leader-side record.
type followerState struct {
	ackLSN   uint64
	lastSeen time.Time
	// pos is where the last pull's read stopped: the next pull, acking
	// everything it shipped, resumes there instead of rescanning the
	// segment (any other ack makes the log fall back to a scan).
	pos wal.Pos
	// tail is the last record shipped to this follower, or checked
	// against its pull: a pull acking it compares its CRC with no read.
	tail     recordCRC
	ackGauge *obs.Gauge
	lagGauge *obs.Gauge
	// persistedAck is the ack the ledger holds for this follower, and
	// persistedSeg the segment pos pointed into when it was written.
	persistedAck, persistedSeg uint64
}

// recordCRC is the CRC-32C of a log's record at lsn; lsn 0 knows none.
type recordCRC struct {
	lsn uint64
	crc uint32
}

// Leader serves ReplPull requests off the local WAL and accounts for
// follower liveness and retention.
type Leader struct {
	log            *wal.Log
	clock          vclock.Clock
	ttl            time.Duration
	dir, statePath string
	reg            *obs.Registry

	mu        sync.Mutex
	followers map[string]*followerState
	resyncs   map[string]*resyncSession
	// ledgerStale marks a ledger write that failed: the next pull retries.
	ledgerStale bool

	followersGauge *obs.Gauge
	pulls          *obs.Counter
	shipped        *obs.Counter
	compactedPulls *obs.Counter
	resyncsStarted *obs.Counter
	snapChunks     *obs.Counter
	snapBytes      *obs.Counter
	stateDiscarded *obs.Counter
}

// NewLeader builds a Leader over an open log. With WithStateDir it
// re-pins every persisted follower ack before returning, so the window
// between a leader restart and the first re-pull cannot truncate a
// follower's tail.
func NewLeader(log *wal.Log, opts ...LeaderOption) (*Leader, error) {
	ld := &Leader{
		log:       log,
		clock:     vclock.Real{},
		ttl:       DefaultFollowerTTL,
		followers: make(map[string]*followerState),
		resyncs:   make(map[string]*resyncSession),
	}
	for _, opt := range opts {
		opt(ld)
	}
	ld.followersGauge = ld.reg.Gauge("sor_replica_followers")
	ld.pulls = ld.reg.Counter("sor_replica_pulls_total")
	ld.shipped = ld.reg.Counter("sor_replica_shipped_records_total")
	ld.compactedPulls = ld.reg.Counter("sor_replica_compacted_pulls_total")
	ld.resyncsStarted = ld.reg.Counter("sor_replica_resyncs_total")
	ld.snapChunks = ld.reg.Counter("sor_replica_snap_chunks_total")
	ld.snapBytes = ld.reg.Counter("sor_replica_snap_bytes_total")
	ld.stateDiscarded = ld.reg.Counter("sor_replica_state_discarded_total")
	if err := ld.loadState(); err != nil {
		return nil, err
	}
	return ld, nil
}

type persistedState struct {
	Followers map[string]uint64 `json:"followers"` // id -> acked LSN
}

// loadState re-pins the persisted follower acks. The ledger is
// best-effort, so one that does not decode — power loss can leave it
// empty or half-written — is discarded (logged and counted) rather than
// keeping a healthy leader from starting: its followers re-register on
// their next pull, and one that outlived its pin resyncs.
func (ld *Leader) loadState() error {
	if ld.statePath == "" {
		return nil
	}
	data, err := os.ReadFile(ld.statePath)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("replica: reading %s: %w", ld.statePath, err)
	}
	var ps persistedState
	if err := json.Unmarshal(data, &ps); err != nil {
		log.Printf("replica: discarding undecodable follower ledger %s: %v", ld.statePath, err)
		ld.stateDiscarded.Inc()
		return nil
	}
	now := ld.clock.Now()
	for id, lsn := range ps.Followers {
		ld.registerLocked(id, lsn, now).persistedAck = lsn
		ld.log.Retain(id, lsn)
	}
	return nil
}

// persistLocked writes the ack ledger atomically: temp file, fsync,
// rename, so a power cut leaves the old ledger or the new one. Best
// effort: a failed write costs durability of the pins across a restart,
// never correctness while this process lives, and the next pull retries.
func (ld *Leader) persistLocked() {
	if ld.statePath == "" {
		return
	}
	ps := persistedState{Followers: make(map[string]uint64, len(ld.followers))}
	for id, f := range ld.followers {
		ps.Followers[id] = f.ackLSN
	}
	ld.ledgerStale = true
	data, err := json.Marshal(&ps)
	if err != nil {
		return
	}
	tmp := ld.statePath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, ld.statePath)
	}
	if err != nil {
		return
	}
	ld.ledgerStale = false
	for _, f := range ld.followers {
		f.persistedAck, f.persistedSeg = f.ackLSN, f.pos.Segment()
	}
}

// ledgerBehindLocked reports whether follower f's ack must reach the
// ledger now. Truncation removes whole segments, and a persisted ack
// lower than the follower's only retains more, so the ledger is rewritten
// only when the ack falls below the persisted one (a follower that lost
// its unsynced tail) or the follower has moved into a later segment —
// not on every pull.
func (ld *Leader) ledgerBehindLocked(f *followerState) bool {
	return ld.ledgerStale || f.ackLSN < f.persistedAck || f.pos.Segment() > f.persistedSeg
}

// registerLocked records follower id's ack and liveness. The ack may
// move down as well as up: a follower that lost its unsynced tail in a
// crash legitimately resumes lower.
func (ld *Leader) registerLocked(id string, ack uint64, now time.Time) *followerState {
	f, ok := ld.followers[id]
	if !ok {
		f = &followerState{
			ackGauge: ld.reg.Gauge("sor_replica_follower_ack_lsn", obs.L("follower", id)),
			lagGauge: ld.reg.Gauge("sor_replica_follower_lag_records", obs.L("follower", id)),
		}
		ld.followers[id] = f
	}
	f.ackLSN, f.lastSeen = ack, now
	ld.followersGauge.Set(int64(len(ld.followers)))
	return f
}

// dropLocked forgets follower id: its state, its retention pin, and the
// resync session it may hold open.
func (ld *Leader) dropLocked(id string) {
	if f, ok := ld.followers[id]; ok {
		delete(ld.followers, id)
		f.ackGauge.Set(0)
		f.lagGauge.Set(0)
	}
	ld.endResyncLocked(id)
	ld.log.ReleaseRetain(id)
	ld.followersGauge.Set(int64(len(ld.followers)))
}

// HandlePull serves one follower pull: account the ack, pin retention,
// expire dead followers, and ship the next contiguous batch.
func (ld *Leader) HandlePull(p *wire.ReplPull) (*wire.ReplRecords, error) {
	now := ld.clock.Now()
	ack := p.FromLSN - 1
	if head := ld.log.LastLSN(); ack > head {
		// The follower holds records this leader never wrote (it followed
		// another leader further). Nothing here continues its log, so it
		// resyncs from the checkpoint, like a follower compacted past.
		ld.pulls.Inc()
		ld.compactedPulls.Inc()
		return &wire.ReplRecords{FirstLSN: p.FromLSN, LeaderLSN: head, Compacted: true}, nil
	}

	ld.mu.Lock()
	_, known := ld.followers[p.FollowerID]
	f := ld.registerLocked(p.FollowerID, ack, now)
	pos, tail := f.pos, f.tail
	persist := !known || ld.ledgerBehindLocked(f)
	// Expire followers silent past the TTL so one dead replica cannot
	// pin the log, or a resync session's fd, forever.
	for id, g := range ld.followers {
		if id != p.FollowerID && now.Sub(g.lastSeen) > ld.ttl {
			ld.dropLocked(id)
			persist = true
		}
	}
	if persist {
		ld.persistLocked()
	}
	ld.mu.Unlock()

	// Pin before reading: once Retain returns, no truncation can pass
	// the ack, so a non-compacted read here stays readable for resumes.
	ld.log.Retain(p.FollowerID, ack)
	ld.pulls.Inc()

	maxRecords := DefaultBatchRecords
	if p.MaxRecords > 0 && p.MaxRecords < maxRecords {
		maxRecords = p.MaxRecords
	}
	if maxRecords > wire.MaxReplBatchRecords {
		maxRecords = wire.MaxReplBatchRecords
	}
	maxBytes := int64(DefaultBatchBytes)
	if p.MaxBytes > 0 && p.MaxBytes < maxBytes {
		maxBytes = p.MaxBytes
	}
	// Log matching: the follower's record at its ack must be this log's,
	// or the logs forked (it acked records another leader wrote) and it
	// resyncs from the checkpoint. Unless the last pull left that record's
	// CRC in tail, the read starts one record early to fetch it. A record
	// this log no longer holds is trusted, as is a pull that names none.
	after := ack
	if p.HasPrevCRC && ack > 0 && tail.lsn != ack {
		after = ack - 1
	}
	recs, pos, err := ld.log.ReadFrom(pos, after, maxRecords+int(ack-after), maxBytes)
	switch {
	case after == ack:
	case err == nil && len(recs) > 0:
		tail, recs = recordCRC{ack, wal.Checksum(recs[0])}, recs[1:]
	case errors.Is(err, wal.ErrCompacted):
		recs, pos, err = ld.log.ReadFrom(pos, ack, maxRecords, maxBytes)
	}
	if p.HasPrevCRC && tail.lsn == ack && tail.crc != p.PrevCRC {
		ld.compactedPulls.Inc()
		return &wire.ReplRecords{FirstLSN: p.FromLSN, LeaderLSN: ld.log.LastLSN(), Compacted: true}, nil
	}
	head := ld.log.LastLSN()
	resp := &wire.ReplRecords{FirstLSN: p.FromLSN, LeaderLSN: head}
	switch {
	case err == nil:
		resp.Records = recs
		ld.shipped.Add(int64(len(recs)))
		if n := len(recs); n > 0 {
			tail = recordCRC{ack + uint64(n), wal.Checksum(recs[n-1])}
		}
	case errors.Is(err, wal.ErrCompacted):
		// The tail this follower needs is gone (it joined late or
		// outlived its TTL): it must resync from scratch.
		resp.Compacted = true
		ld.compactedPulls.Inc()
	default:
		return nil, fmt.Errorf("replica: reading wal after %d: %w", ack, err)
	}
	var lag uint64
	if head > ack {
		lag = head - ack
	}
	ld.mu.Lock()
	if f, ok := ld.followers[p.FollowerID]; ok {
		f.pos, f.tail = pos, tail
		f.ackGauge.Set(int64(ack))
		f.lagGauge.Set(int64(lag))
	}
	ld.mu.Unlock()
	return resp, nil
}

// Status reports the leader's view of its followers (the /debug/replica
// payload and the soak's convergence probe).
func (ld *Leader) Status() LeaderStatus {
	now := ld.clock.Now()
	head := ld.log.LastLSN()
	st := LeaderStatus{Role: "leader", LastLSN: head}
	ld.mu.Lock()
	defer ld.mu.Unlock()
	for id, f := range ld.followers {
		var lag uint64
		if head > f.ackLSN {
			lag = head - f.ackLSN
		}
		st.Followers = append(st.Followers, FollowerStatus{
			ID:          id,
			AckLSN:      f.ackLSN,
			LagRecords:  lag,
			SilentForMS: now.Sub(f.lastSeen).Milliseconds(),
			Live:        now.Sub(f.lastSeen) <= ld.ttl,
		})
	}
	sortFollowers(st.Followers)
	return st
}

// Forget drops one follower's retention pin and resync session
// immediately (operator decommission, without waiting for the TTL).
func (ld *Leader) Forget(id string) {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	ld.dropLocked(id)
	ld.persistLocked()
}
