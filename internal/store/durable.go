package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sor/internal/obs"
	"sor/internal/wal"
)

// Backend abstracts where a server's state lives. Open builds (or
// recovers) the store; Close shuts it down flushing whatever durability
// the backend promises; Kill abandons it without flushing, simulating a
// crash — recovery must cope with whatever Kill leaves on disk.
type Backend interface {
	Open() (*Store, error)
	Close() error
	Kill()
}

// MemoryBackend serves a plain in-memory store: no files, no recovery,
// state dies with the process. This is the old default behavior.
type MemoryBackend struct {
	st *Store
}

// NewMemoryBackend wraps st, or a fresh empty store when st is nil.
func NewMemoryBackend(st *Store) *MemoryBackend {
	return &MemoryBackend{st: st}
}

func (b *MemoryBackend) Open() (*Store, error) {
	if b.st == nil {
		b.st = New()
	}
	return b.st, nil
}

func (b *MemoryBackend) Close() error { return nil }
func (b *MemoryBackend) Kill()        {}

type durableOptions struct {
	snapshotInterval time.Duration
	sync             wal.SyncPolicy
	syncWait         time.Duration
	segmentBytes     int64
	metrics          *obs.Registry
}

// DurableOption tunes a DurableBackend.
type DurableOption func(*durableOptions)

// WithSnapshotInterval sets the checkpoint cadence (default 30s).
func WithSnapshotInterval(d time.Duration) DurableOption {
	return func(o *durableOptions) { o.snapshotInterval = d }
}

// WithWALSync selects the WAL acknowledgement policy (default
// wal.SyncOS: ack once the record is in the kernel page cache, fsync on
// a background cadence).
func WithWALSync(p wal.SyncPolicy) DurableOption {
	return func(o *durableOptions) { o.sync = p }
}

// WithWALSyncWait adds a fixed wait to every acked WAL flush, modeling
// a dedicated commit device with that service time (wal.Options.SyncWait).
// Capacity benchmarks on shared hosts use it; production configurations
// must not.
func WithWALSyncWait(d time.Duration) DurableOption {
	return func(o *durableOptions) { o.syncWait = d }
}

// WithSegmentBytes sets the WAL segment rotation threshold.
func WithSegmentBytes(n int64) DurableOption {
	return func(o *durableOptions) { o.segmentBytes = n }
}

// WithMetrics publishes WAL and checkpoint series into reg.
func WithMetrics(reg *obs.Registry) DurableOption {
	return func(o *durableOptions) { o.metrics = reg }
}

// DurableBackend persists the store under one directory:
//
//	<dir>/snapshot.json   periodic checkpoint, binary (snapshot.go; the
//	                      name predates the format), atomic rename, fsynced
//	<dir>/wal/            write-ahead log segments since that checkpoint
//
// Open recovers by loading the newest snapshot and replaying the WAL
// tail past its watermark; each checkpoint truncates the segments it
// made redundant.
type DurableBackend struct {
	dir  string
	opts durableOptions

	st   *Store
	log  *wal.Log
	stop chan struct{} // graceful: final checkpoint, close WAL
	kill chan struct{} // crash: stop the loop, abandon the WAL fd
	done chan struct{}
	end  sync.Once

	ckptMu sync.Mutex // serializes Checkpoint: cut → install → truncate

	recovered       *obs.Counter
	checkpoints     *obs.Counter
	checkpointMS    *obs.Histogram
	checkpointCutMS *obs.Histogram // how long mutators were parked
	snapshotBytes   *obs.Gauge
}

// NewDurableBackend stores everything under dir, creating it on Open.
func NewDurableBackend(dir string, opts ...DurableOption) *DurableBackend {
	o := durableOptions{
		snapshotInterval: 30 * time.Second,
		sync:             wal.SyncOS,
	}
	for _, opt := range opts {
		opt(&o)
	}
	b := &DurableBackend{dir: dir, opts: o}
	if reg := o.metrics; reg != nil {
		b.recovered = reg.Counter("sor_wal_recovered_records_total")
		b.checkpoints = reg.Counter("sor_store_checkpoints_total")
		b.checkpointMS = reg.LatencyHistogram("sor_store_checkpoint_ms")
		b.checkpointCutMS = reg.LatencyHistogram("sor_store_checkpoint_cut_ms")
		b.snapshotBytes = reg.Gauge("sor_store_snapshot_bytes")
	}
	return b
}

// WALDir is where the backend keeps its log segments.
func (b *DurableBackend) WALDir() string { return filepath.Join(b.dir, "wal") }

// WAL exposes the open log for the replication layer (leader-side
// shipping reads and retention floors). Nil before Open.
func (b *DurableBackend) WAL() *wal.Log { return b.log }

// Dir is the backend's data directory.
func (b *DurableBackend) Dir() string { return b.dir }

// SnapshotPath is where a data dir keeps its checkpoint. The name predates
// the binary format; bench reads the file at this path.
func SnapshotPath(dir string) string { return filepath.Join(dir, "snapshot.json") }

// Open recovers the store from disk and starts the checkpoint loop.
func (b *DurableBackend) Open() (*Store, error) {
	if b.st != nil {
		return nil, errors.New("store: backend already open")
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	// Restore and replay share one interner, dropped when Open returns: a
	// replayed participation, schedule or upload shares its app ID with
	// the restored ones.
	in := make(interner)
	st, err := load(SnapshotPath(b.dir), in)
	if err != nil {
		return nil, err
	}
	stats, err := wal.Replay(b.WALDir(), st.restoredLSN, func(lsn uint64, payload []byte) error {
		return st.applyWALRecord(payload, in)
	})
	if err != nil {
		return nil, fmt.Errorf("store: wal replay: %w", err)
	}
	b.recovered.Add(int64(stats.Records))
	log, err := wal.Open(b.WALDir(), wal.Options{
		Sync:         b.opts.sync,
		SyncWait:     b.opts.syncWait,
		SegmentBytes: b.opts.segmentBytes,
		Metrics:      walObsMetrics(b.opts.metrics),
		// A snapshot-shipped data dir has a snapshot watermark but no
		// segments: seed the fresh log so the first replicated append
		// lands at exactly the LSN the leader assigned it. A normal
		// recovery ignores this (its segments carry the numbering).
		FirstLSN: st.restoredLSN + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("store: wal open: %w", err)
	}
	b.log = log
	st.attachWAL(log)
	b.st = st
	b.stop = make(chan struct{})
	b.kill = make(chan struct{})
	b.done = make(chan struct{})
	go b.run()
	return st, nil
}

func (b *DurableBackend) run() {
	defer close(b.done)
	ticker := time.NewTicker(b.opts.snapshotInterval)
	defer ticker.Stop()
	for {
		select {
		case <-b.kill:
			return
		case <-b.stop:
			_ = b.Checkpoint() // flush the final state before Close returns
			return
		case <-ticker.C:
			_ = b.Checkpoint()
		}
	}
}

// Checkpoint writes a snapshot and truncates the WAL segments it covers.
// Mutators are parked only while capture copies the cut (exact: the
// image plus the records above its watermark partition history); sorting,
// encoding and the fsynced install run with them going again. ckptMu
// orders whole checkpoints — cut, install, truncate — so an image cut at
// a lower watermark can never be renamed over one whose truncation has
// already dropped the records between the two.
func (b *DurableBackend) Checkpoint() error {
	b.ckptMu.Lock()
	defer b.ckptMu.Unlock()
	start := time.Now()
	img := b.st.capture()
	b.checkpointCutMS.Observe(msSince(start))
	n, err := writeFileAtomic(SnapshotPath(b.dir), img.writeTo, nil)
	if err != nil {
		return err
	}
	// Best-effort: a failed truncation only leaves extra segments,
	// which the watermark makes harmless on replay.
	_ = b.log.TruncateThrough(img.watermark)
	b.checkpoints.Inc()
	b.snapshotBytes.Set(n)
	b.checkpointMS.Observe(msSince(start))
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// OpenSnapshot opens dir's checkpoint for shipping, reading only its
// magic and header: the open file (a later checkpoint renamed over the
// path changes none of its bytes), the watermark, and the size. No
// checkpoint yet is an error satisfying os.ErrNotExist.
func OpenSnapshot(dir string) (f *os.File, watermark uint64, size int64, err error) {
	if f, size, err = openSized(SnapshotPath(dir)); err != nil {
		return nil, 0, 0, err
	}
	info, err := walkSnapshot(f, size, 1, nil)
	if err == nil && (len(info.Sections) == 0 || info.Sections[0].Err != nil) {
		err = info.damage()
	}
	if err != nil {
		f.Close()
		return nil, 0, 0, err
	}
	return f, info.Watermark, size, nil
}

// InstallSnapshot makes the existing dir hold exactly the snapshot fill
// streams into a temp file. Only once that file validates whole (magic,
// every section's CRC, the end section, a header watermark equal to the
// one fill returns) are dir's WAL segments removed and the file renamed
// into place; otherwise dir is left as it was. The next Open restores
// from it with an empty log seeded at its watermark+1.
func InstallSnapshot(dir string, fill func(io.Writer) (watermark uint64, err error)) error {
	var watermark uint64
	_, err := writeFileAtomic(SnapshotPath(dir), func(w io.Writer) (n int64, err error) {
		watermark, err = fill(w)
		return 0, err
	}, func(tmp string) error {
		info, err := InspectSnapshot(tmp)
		if err == nil {
			err = info.damage()
		}
		if err == nil && info.Watermark != watermark {
			err = fmt.Errorf("header watermark %d, shipped as %d", info.Watermark, watermark)
		}
		if err == nil {
			err = os.RemoveAll(filepath.Join(dir, "wal"))
		}
		return err
	})
	return err
}

// Close checkpoints one final time and closes the WAL cleanly.
func (b *DurableBackend) Close() error {
	if b.st == nil {
		return nil
	}
	var err error
	b.end.Do(func() {
		close(b.stop)
		<-b.done
		err = b.log.Close()
	})
	return err
}

// Kill abandons the backend the way a crash would: the checkpoint loop
// stops without a final snapshot and the WAL mapping is dropped without
// flushing. Every record already memcpy'd into the segment mapping
// survives in the kernel page cache; the rest is the torn tail recovery
// must tolerate.
func (b *DurableBackend) Kill() {
	if b.st == nil {
		return
	}
	b.end.Do(func() {
		close(b.kill)
		<-b.done
		b.log.Kill()
	})
}

// walObsMetrics adapts an obs registry to the wal package's callbacks.
func walObsMetrics(reg *obs.Registry) wal.Metrics {
	if reg == nil {
		return wal.Metrics{}
	}
	appends := reg.Counter("sor_wal_appends_total")
	bytes := reg.Counter("sor_wal_append_bytes_total")
	fsyncs := reg.Counter("sor_wal_fsyncs_total")
	seals := reg.Counter("sor_wal_segment_seals_total")
	truncates := reg.Counter("sor_wal_truncated_segments_total")
	return wal.Metrics{
		Appends:   func(n int) { appends.Add(int64(n)) },
		Bytes:     func(n int) { bytes.Add(int64(n)) },
		Fsyncs:    fsyncs.Inc,
		Seals:     seals.Inc,
		Truncates: func(n int) { truncates.Add(int64(n)) },
	}
}
