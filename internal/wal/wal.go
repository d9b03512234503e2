// Package wal implements the segmented write-ahead log under the durable
// store backend.
//
// Segments are preallocated, memory-mapped files. An append frames its
// record straight into the live segment's MAP_SHARED mapping with a
// memcpy under the log mutex — no syscall, no goroutine handoff. Dirty
// pages of a shared file mapping belong to the kernel page cache, so by
// the time Enqueue returns the record survives a process crash exactly
// as a completed write(2) would. Three sync policies then trade latency
// for machine-crash durability:
//
//   - SyncOS (default): Append returns once the memcpy lands. A
//     background loop fsyncs on an interval to bound the machine-crash
//     window.
//   - SyncGrouped: Append returns after an fsync covering the record.
//     The syncer lingers a group window and issues one fsync per batch,
//     so N concurrent appenders share one disk flush (group commit).
//   - SyncEach: one fsync per record, inline. Exists as the baseline
//     that BenchmarkWALAppend compares group commit against.
//
// Preallocation means a segment's tail is zero bytes, and a zero length
// field marks end-of-data; appending an empty record is therefore
// refused. It also changes what a crash leaves behind: instead of a file
// ending mid-record, a torn append is a final record whose frame claims
// more than was memcpy'd, with nothing but zeros after it. The scan side
// (read.go) classifies exactly that shape as a tear and anything else
// undecodable as corruption.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// SyncPolicy selects when Append acknowledges durability.
type SyncPolicy int

const (
	SyncOS      SyncPolicy = iota // ack after the memcpy; background fsync loop
	SyncGrouped                   // ack after a coalesced fsync
	SyncEach                      // ack after a per-record fsync (benchmark baseline)
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncOS:
		return "os"
	case SyncGrouped:
		return "grouped"
	case SyncEach:
		return "each"
	}
	return "unknown"
}

// Lifecycle errors.
var (
	ErrClosed = errors.New("wal: log closed")
	ErrKilled = errors.New("wal: log killed")
)

// Metrics carries optional counter hooks; any field may be nil.
type Metrics struct {
	Appends   func(n int) // records landed in the live segment
	Bytes     func(n int) // bytes landed, framing included
	Fsyncs    func()      // fsync(2) calls on segment files
	Seals     func()      // segments sealed by rotation
	Truncates func(n int) // sealed segments deleted by TruncateThrough
}

func (m Metrics) appends(n int) {
	if m.Appends != nil {
		m.Appends(n)
	}
}
func (m Metrics) bytes(n int) {
	if m.Bytes != nil {
		m.Bytes(n)
	}
}
func (m Metrics) fsyncs() {
	if m.Fsyncs != nil {
		m.Fsyncs()
	}
}
func (m Metrics) seals() {
	if m.Seals != nil {
		m.Seals()
	}
}
func (m Metrics) truncates(n int) {
	if m.Truncates != nil {
		m.Truncates(n)
	}
}

// Options configures Open. The zero value is usable.
type Options struct {
	// SegmentBytes is the preallocated segment size. A record never
	// splits across segments; a record too big for an empty segment gets
	// a segment preallocated to its own size instead.
	SegmentBytes int64
	// Sync is the acknowledgement policy.
	Sync SyncPolicy
	// FlushInterval is the background fsync cadence under SyncOS.
	FlushInterval time.Duration
	// GroupWindow is how long the syncer lingers before an fsync under
	// SyncGrouped, letting appenders just acked by the previous sync get
	// their next record into this one. Costs one window of latency per
	// commit, buys near-full coalescing at saturation.
	GroupWindow time.Duration
	// SyncWait, when positive, adds a fixed wait to every acked flush
	// (the SyncEach inline fsync and the SyncGrouped batch fsync),
	// modeling a dedicated commit device with that service time.
	// Capacity benchmarks on shared hosts use it to measure software
	// scalability where the host's one disk would otherwise be a
	// bottleneck shared across logs that deploy to separate machines.
	// It has no place in production configurations.
	SyncWait time.Duration
	// Metrics receives counter callbacks.
	Metrics Metrics
	// FirstLSN seeds the log's numbering when the directory holds no
	// segments yet (0 means start at 1, the normal fresh-boot case).
	// A snapshot-shipped replica sets it to the shipped snapshot's
	// watermark + 1 so its first replicated append lands at exactly the
	// LSN the leader assigned it. Ignored whenever segments exist — an
	// established log already knows its own position.
	FirstLSN uint64
}

const (
	defaultSegmentBytes  = 8 << 20
	defaultFlushInterval = 50 * time.Millisecond
	defaultGroupWindow   = 100 * time.Microsecond
)

type segMeta struct {
	path     string
	firstLSN uint64
	lastLSN  uint64
}

// Log is a segmented write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	dir  string
	opts Options

	mu        sync.Mutex
	work      *sync.Cond // wakes the syncer
	progress  *sync.Cond // wakes Wait/Sync callers
	nextLSN   uint64     // next LSN to assign
	synced    uint64     // highest LSN covered by an fsync
	wantSync  uint64     // highest LSN someone wants fsynced
	err       error      // sticky; set on I/O failure, Close, or Kill
	closed    bool
	killed    bool
	lastBatch int       // records covered by the previous fsync
	sealed    []segMeta // full segments, oldest first
	// retained maps reader ids (replication followers) to the highest LSN
	// each has durably applied; TruncateThrough never removes a segment
	// holding records above the lowest of these floors (see ship.go).
	retained map[string]uint64
	// readBytes counts the bytes ReadFrom has pread from segment files,
	// so a test can bound what one pull touches.
	readBytes atomic.Int64

	// Live segment, guarded by mu. data is the MAP_SHARED mapping of f;
	// off is where the next record's frame begins.
	f        *os.File
	data     []byte
	off      int64
	segFirst uint64

	syncerDone chan struct{}
	flushStop  chan struct{}
}

func segName(firstLSN uint64) string { return fmt.Sprintf("%020d.wal", firstLSN) }

// listSegments returns the segment paths in dir with their firstLSNs,
// ordered by firstLSN.
func listSegments(dir string) ([]segMeta, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segMeta
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segMeta{path: filepath.Join(dir, name), firstLSN: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	// A sealed segment's lastLSN is one below its successor's firstLSN;
	// the live segment's lastLSN is filled in by scanning.
	for i := range segs {
		if i+1 < len(segs) {
			segs[i].lastLSN = segs[i+1].firstLSN - 1
		}
	}
	return segs, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Open opens (creating if needed) the log in dir. A torn record at the
// tail of the newest segment — the residue of a crash mid-append — is
// zeroed away; corruption anywhere else is an error.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = defaultFlushInterval
	}
	if opts.GroupWindow <= 0 && opts.Sync == SyncGrouped {
		opts.GroupWindow = defaultGroupWindow
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		dir:        dir,
		opts:       opts,
		syncerDone: make(chan struct{}),
		flushStop:  make(chan struct{}),
	}
	l.work = sync.NewCond(&l.mu)
	l.progress = sync.NewCond(&l.mu)

	if len(segs) == 0 {
		first := opts.FirstLSN
		if first == 0 {
			first = 1
		}
		if err := l.openSegment(first, 0); err != nil {
			return nil, err
		}
		l.nextLSN = first
	} else {
		l.sealed = segs[:len(segs)-1]
		live := segs[len(segs)-1]
		scan, err := scanSegment(live.path)
		if err != nil {
			return nil, err
		}
		if scan.Corrupt != nil {
			return nil, fmt.Errorf("wal: segment %s: %w at offset %d",
				filepath.Base(live.path), scan.Corrupt.Err, scan.Corrupt.Offset)
		}
		if scan.Torn {
			// Zero the residue so the next append starts on a clean
			// tail: shrinking deallocates the torn bytes, re-extending
			// restores the preallocated size as a hole of zeros.
			if err := os.Truncate(live.path, scan.GoodBytes); err != nil {
				return nil, err
			}
			if err := os.Truncate(live.path, scan.FileBytes); err != nil {
				return nil, err
			}
		}
		f, err := os.OpenFile(live.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		if scan.Torn {
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, err
			}
		}
		if err := l.mapSegment(f, scan.FileBytes, live.firstLSN, scan.GoodBytes); err != nil {
			f.Close()
			return nil, err
		}
		l.nextLSN = live.firstLSN + uint64(scan.Records)
	}
	l.synced = l.nextLSN - 1

	go l.runSyncer()
	if opts.Sync == SyncOS {
		go l.runFlusher()
	}
	return l, nil
}

// mapSegment installs f (size bytes, first record firstLSN, next append
// at off) as the live segment. MAP_POPULATE prefaults every page at map
// time, so appends never stall on a page fault mid-memcpy.
func (l *Log) mapSegment(f *os.File, size int64, firstLSN uint64, off int64) error {
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		return fmt.Errorf("wal: mmap %s: %w", f.Name(), err)
	}
	l.f = f
	l.data = data
	l.off = off
	l.segFirst = firstLSN
	return nil
}

// openSegment creates a fresh segment whose first record will carry
// firstLSN, preallocated to SegmentBytes (or the record that forced it,
// if bigger), writes its header, and fsyncs file and directory so an
// empty-but-named segment never greets recovery headerless.
func (l *Log) openSegment(firstLSN uint64, need int64) error {
	size := l.opts.SegmentBytes
	if headerSize+need > size {
		size = headerSize + need
	}
	path := filepath.Join(l.dir, segName(firstLSN))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := preallocate(f, size); err != nil {
		f.Close()
		return err
	}
	if err := l.mapSegment(f, size, firstLSN, headerSize); err != nil {
		f.Close()
		return err
	}
	copy(l.data, encodeHeader(firstLSN))
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	l.opts.Metrics.fsyncs()
	return syncDir(l.dir)
}

// Append logs one record and returns its LSN. The payload is copied; the
// caller may reuse it. When Append returns nil, the record is durable to
// the degree the sync policy promises.
func (l *Log) Append(payload []byte) (uint64, error) {
	lsn, err := l.Enqueue(payload)
	if err != nil {
		return 0, err
	}
	return lsn, l.Wait(lsn)
}

// Enqueue lands one record in the live segment and returns its assigned
// LSN without waiting for an fsync. It is the group-commit half-call: a
// caller ordering its records under its own locks enqueues inside them
// (LSN order = lock order) and calls Wait(lsn) after releasing them, so
// concurrent callers share one fsync instead of serializing on it. The
// payload is copied; once Enqueue returns, the record is in the kernel
// page cache and survives a process crash.
func (l *Log) Enqueue(payload []byte) (uint64, error) {
	if len(payload) == 0 {
		// A zero length field marks a segment's end-of-data.
		return 0, errors.New("wal: empty record")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	need := recordSize(payload)
	if l.off+need > int64(len(l.data)) {
		var err error
		if l.off == headerSize {
			err = l.growLocked(need) // oversize record on an empty segment
		} else {
			err = l.rotateLocked(need)
		}
		if err != nil {
			l.setErr(err)
			return 0, err
		}
	}
	lsn := l.nextLSN
	l.nextLSN++
	putRecord(l.data[l.off:], payload)
	l.off += need
	l.opts.Metrics.appends(1)
	l.opts.Metrics.bytes(int(need))
	switch l.opts.Sync {
	case SyncEach:
		if err := l.f.Sync(); err != nil {
			l.setErr(err)
			return 0, err
		}
		if l.opts.SyncWait > 0 {
			time.Sleep(l.opts.SyncWait)
		}
		l.opts.Metrics.fsyncs()
		l.synced = lsn
		l.progress.Broadcast()
	case SyncGrouped:
		if lsn > l.wantSync {
			l.wantSync = lsn
			l.work.Signal()
		}
	}
	return lsn, nil
}

// Wait blocks until lsn is covered by the sync policy's promise. Under
// SyncOS that held the moment Enqueue's memcpy returned; under the fsync
// policies it waits for a flush covering lsn. It returns nil if the
// record landed even when the log has since died.
func (l *Log) Wait(lsn uint64) error {
	if l.opts.Sync == SyncOS {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.synced < lsn && l.err == nil {
		l.progress.Wait()
	}
	if l.synced >= lsn {
		return nil // landed before the log died
	}
	return l.err
}

// Sync blocks until everything appended so far is fsynced.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.nextLSN - 1
	if target > l.wantSync {
		l.wantSync = target
		l.work.Signal()
	}
	for l.synced < target && l.err == nil {
		l.progress.Wait()
	}
	if l.synced >= target {
		return nil
	}
	return l.err
}

// LastLSN returns the highest LSN assigned so far (0 if none).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// TruncateThrough deletes sealed segments wholly at or below lsn. The
// live segment is never touched, so truncation granularity is a segment:
// a segment is removed only once a checkpoint covers its every record.
// Retained readers (replication followers, see Retain) clamp the cut: a
// checkpoint may cover LSN 900, but if the slowest follower has applied
// only 300, every segment holding records above 300 stays on disk.
func (l *Log) TruncateThrough(lsn uint64) error {
	l.mu.Lock()
	if floor, ok := l.retainFloorLocked(); ok && floor < lsn {
		lsn = floor
	}
	var victims []segMeta
	keep := l.sealed[:0]
	for _, s := range l.sealed {
		if s.lastLSN <= lsn {
			victims = append(victims, s)
		} else {
			keep = append(keep, s)
		}
	}
	l.sealed = keep
	l.mu.Unlock()
	for _, s := range victims {
		if err := os.Remove(s.path); err != nil {
			return err
		}
	}
	if len(victims) > 0 {
		l.opts.Metrics.truncates(len(victims))
		return syncDir(l.dir)
	}
	return nil
}

// Close fsyncs the log, then releases the mapping and the file. Further
// Appends fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed || l.killed {
		l.mu.Unlock()
		<-l.syncerDone
		return nil
	}
	l.closed = true
	if t := l.nextLSN - 1; t > l.wantSync {
		l.wantSync = t
	}
	l.work.Signal()
	l.mu.Unlock()
	close(l.flushStop)
	<-l.syncerDone
	l.mu.Lock()
	defer l.mu.Unlock()
	l.releaseLocked()
	if l.err == nil || errors.Is(l.err, ErrClosed) {
		l.setErr(ErrClosed)
		return nil
	}
	return l.err
}

// Kill simulates a crash: the mapping is dropped with no fsync. Dirty
// pages of a MAP_SHARED mapping stay in the kernel page cache, so every
// record whose Enqueue returned survives — exactly what a SIGKILL
// leaves behind.
func (l *Log) Kill() {
	l.mu.Lock()
	if l.closed || l.killed {
		l.mu.Unlock()
		<-l.syncerDone
		return
	}
	l.killed = true
	l.err = ErrKilled
	l.releaseLocked()
	l.work.Signal()
	l.progress.Broadcast()
	l.mu.Unlock()
	close(l.flushStop)
	<-l.syncerDone
}

// releaseLocked unmaps and closes the live segment. Called with mu held.
func (l *Log) releaseLocked() {
	if l.data != nil {
		_ = syscall.Munmap(l.data)
		l.data = nil
	}
	if l.f != nil {
		_ = l.f.Close()
		l.f = nil
	}
}

func (l *Log) setErr(err error) {
	if l.err == nil {
		l.err = err
	}
	l.progress.Broadcast()
	l.work.Signal()
}

// runFlusher periodically fsyncs under SyncOS, bounding the machine-crash
// window to roughly one FlushInterval.
func (l *Log) runFlusher() {
	t := time.NewTicker(l.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-t.C:
			if l.Sync() != nil {
				return
			}
		}
	}
}

// runSyncer is the goroutine that performs coalesced fsyncs: group
// commits under SyncGrouped, background and explicit Sync flushes under
// SyncOS. Rotation seals segments inline on the append path, so the
// syncer's only job is flushing the live segment.
func (l *Log) runSyncer() {
	defer close(l.syncerDone)
	lingered := false // one group window spent since the last fsync
	l.mu.Lock()
	for {
		for l.wantSync <= l.synced && !l.closed && !l.killed && l.err == nil {
			l.work.Wait()
		}
		if l.killed || l.err != nil {
			break
		}
		if l.wantSync > l.synced {
			if l.opts.GroupWindow > 0 && !lingered && !l.closed {
				lingered = true
				l.lingerLocked()
				continue // pick up records that arrived during the window
			}
			l.fsyncLocked()
			lingered = false
			continue
		}
		if l.closed {
			break
		}
	}
	l.mu.Unlock()
}

// growLocked re-preallocates an empty live segment to fit one oversize
// record: rotating would seal a record-less segment, whose name would
// collide with its successor's. Called with mu held.
func (l *Log) growLocked(need int64) error {
	f, first := l.f, l.segFirst
	if err := syscall.Munmap(l.data); err != nil {
		return err
	}
	l.data = nil
	if err := preallocate(f, headerSize+need); err != nil {
		return err
	}
	return l.mapSegment(f, headerSize+need, first, headerSize)
}

// preallocate sizes a fresh segment. fallocate gives it real extents up
// front, so appends dirty already-allocated pages and writeback never
// pays ext4 block allocation; filesystems without it (tmpfs) fall back
// to a sparse file, which costs nothing there anyway.
func preallocate(f *os.File, size int64) error {
	if err := syscall.Fallocate(int(f.Fd()), 0, 0, size); err == nil {
		return nil
	}
	return f.Truncate(size)
}

// rotateLocked seals the live segment (fsync + unmap + close) and opens
// the next one, preallocated to fit at least the record that triggered
// the rotation. Everything in the sealed segment is durable afterwards.
// Called with mu held; rotation is rare enough (once per SegmentBytes)
// that holding the lock across the fsync costs nothing measurable.
func (l *Log) rotateLocked(need int64) error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.opts.Metrics.fsyncs()
	path := l.f.Name()
	l.releaseLocked()
	last := l.nextLSN - 1
	l.sealed = append(l.sealed, segMeta{path: path, firstLSN: l.segFirst, lastLSN: last})
	if last > l.synced {
		l.synced = last
		l.progress.Broadcast()
	}
	l.opts.Metrics.seals()
	return l.openSegment(last+1, need)
}

// lingerLocked waits out the group-commit window before an fsync: the
// appenders acked by the previous sync are, at saturation, about to hand
// us their next record, and folding those in before flushing is what
// makes the commit "group". It exits early once as many records arrived
// as the previous fsync covered, so the window's full length is paid only
// when load drops. Yield-spins rather than time.Sleep because the sleep
// floor on common kernels (~1ms) dwarfs the window, and yielding is
// precisely what lets the parked appenders run. Called with mu held;
// drops it around each yield.
func (l *Log) lingerLocked() {
	expect := uint64(l.lastBatch)
	deadline := time.Now().Add(l.opts.GroupWindow)
	for l.nextLSN-1-l.synced < expect && !l.closed && !l.killed {
		l.mu.Unlock()
		runtime.Gosched()
		if !time.Now().Before(deadline) {
			l.mu.Lock()
			return
		}
		l.mu.Lock()
	}
}

// fsyncLocked flushes the live segment; every record appended before the
// call is durable afterwards (sealed segments were flushed when sealed).
// Called with mu held; drops it around the fsync so appends keep landing
// while the disk works — a record arriving mid-flush has an LSN above
// covered and waits for the next one.
func (l *Log) fsyncLocked() {
	covered := l.nextLSN - 1
	f := l.f
	l.mu.Unlock()
	err := f.Sync()
	if err == nil && l.opts.SyncWait > 0 {
		time.Sleep(l.opts.SyncWait)
	}
	l.mu.Lock()
	if err != nil {
		// ErrClosed means rotation sealed the segment mid-flush — and
		// rotation fsyncs before it closes, so every record this flush
		// claims is already down. A killed log closes without syncing;
		// there the claim must not be made.
		if !errors.Is(err, os.ErrClosed) {
			l.setErr(err)
			return
		}
		if l.killed {
			return
		}
	} else {
		l.opts.Metrics.fsyncs()
	}
	if covered > l.synced {
		l.lastBatch = int(covered - l.synced)
		l.synced = covered
	}
	l.progress.Broadcast()
}
