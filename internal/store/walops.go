package store

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sor/internal/wal"
	"sor/internal/wire"
)

// walOp is one logged mutation: tag names the table it writes and the
// field matching the tag holds the row. One record is written per
// mutation, before the mutation is applied; replay (applyWALRecord)
// re-applies them in LSN order onto a restored snapshot. Drains and reads
// are operational, not state, and are never logged.
type walOp struct {
	tag    byte
	user   User
	app    Application
	part   Participation
	feat   FeatureRow
	sched  ScheduleRow
	anchor AnchorRow
	ingest ingestOp
}

// ingestOp is the atomic image of one Ingest call: only the bodies that
// survived dedup, their window marks, and the first sequence number. A
// crash between ack and anything else cannot split the mark from the
// body — both ride one CRC-framed record. It is encoded straight from
// Ingest's arguments by appendIngestRecord, the one high-rate op; decoded,
// its byte fields alias the record, and applying it copies them into the
// tables.
type ingestOp struct {
	AppID     string
	BaseSeq   int64 // Seq of Bodies[i] is BaseSeq+i+1
	Received  time.Time
	RequestID []byte
	Bodies    [][]byte
	ReportIDs [][]byte // parallel to Bodies; empty = unmarked
}

// appendTo renders a cold op (every tag but ingestTag) as a WAL record.
func (op *walOp) appendTo(b []byte) []byte {
	w := wire.NewWriter(append(b, op.tag))
	switch op.tag {
	case userTag:
		putUser(w, &op.user)
	case appTag:
		putApp(w, &op.app)
	case partTag:
		putPart(w, &op.part)
	case featTag:
		putFeat(w, &op.feat)
	case schedTag:
		putSched(w, &op.sched)
	case anchorTag:
		putAnchor(w, &op.anchor)
	default:
		panic(fmt.Sprintf("store: no wal encoding for %s", tagName(op.tag)))
	}
	return w.Bytes()
}

// encPool recycles WAL record encode buffers: the ingest hot path runs
// per report, and per-op buffer churn is pure GC pressure.
var encPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// attachWAL binds a log to the store: subsequent mutations are logged
// write-ahead, and drained uploads are archived instead of discarded so
// recovery can refold them. Must run before the store is shared.
func (s *Store) attachWAL(l *wal.Log) {
	s.wal = l
	s.archive = true
}

// logOp appends one record, or no-ops for in-memory stores. Callers hold
// the table lock serializing the keys the op touches across the append
// and the apply, so per-key WAL order equals apply order.
func (s *Store) logOp(op *walOp) error {
	if s.wal == nil {
		return nil
	}
	buf := encPool.Get().(*[]byte)
	payload := op.appendTo((*buf)[:0])
	_, err := s.wal.Append(payload)
	*buf = payload[:0] // Append copied the payload
	encPool.Put(buf)
	if err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	return nil
}

// decodeWALRecord parses and fully validates one logged record without
// touching the store, so callers can reject a malformed record before
// committing to anything (ApplyReplicated must not let one into the local
// log): an unknown tag, a short or overlong row, an out-of-range field
// and a JSON record from before the row codec are all refused. A decoded
// application's strings but its ID, and a feature row's, alias payload, as
// an ingest op's bytes do. in, when
// set, shares strings across the records of one recovery, as restore does.
func decodeWALRecord(payload []byte, in interner) (walOp, error) {
	var op walOp
	if len(payload) == 0 {
		return op, errors.New("store: empty wal record")
	}
	op.tag = payload[0]
	r := wire.NewReader(payload[1:])
	switch op.tag {
	case ingestTag:
		op.ingest = readIngest(r)
	case userTag:
		op.user = readUser(r)
	case appTag:
		op.app = readApp(r)
	case partTag:
		op.part = readPart(r, in)
	case featTag:
		op.feat = readFeat(r)
	case schedTag:
		op.sched = readSched(r, in)
	case anchorTag:
		op.anchor = readAnchor(r)
	case '{':
		return op, fmt.Errorf("store: JSON wal record %w", errUpgrade)
	default:
		return op, fmt.Errorf("store: unknown wal record %s", tagName(op.tag))
	}
	return op, finish(r, tagName(op.tag)+" wal record")
}

// applyDecoded writes one validated op into the tables. Callers either
// own the store exclusively (recovery) or hold the locks lockForOp picks.
func (s *Store) applyDecoded(op *walOp) {
	switch op.tag {
	case ingestTag:
		s.applyIngestOp(&op.ingest)
	case userTag:
		s.setUser(op.user)
	case appTag:
		s.putApp(&op.app)
	case partTag:
		s.setParticipation(op.part)
	case featTag:
		t := s.table(op.feat.Category)
		r, _ := t.put(&op.feat)
		t.bump(r)
	case schedTag:
		s.schedShards[shardIndex(op.sched.TaskID)].rows[op.sched.TaskID] = op.sched
	case anchorTag:
		s.anchors[op.anchor.AppID] = op.anchor.AnchorUnix
	}
}

// applyWALRecord applies one replayed op. Recovery runs single-threaded,
// before the store is shared, so it writes the tables directly.
func (s *Store) applyWALRecord(payload []byte, in interner) error {
	op, err := decodeWALRecord(payload, in)
	if err != nil {
		return err
	}
	s.applyDecoded(&op)
	return nil
}

// lockForOp takes the same table lock the live mutator for this op kind
// takes, returning the matching unlock. Replicated applies run under it
// so concurrent readers — rank serving, drains, the checkpoint snapshot —
// see the replica's tables exactly as they would a leader's.
func (s *Store) lockForOp(op *walOp) func() {
	switch op.tag {
	case ingestTag:
		sh := &s.uploadShards[shardIndex(op.ingest.AppID)]
		sh.mu.Lock()
		return sh.mu.Unlock
	case schedTag:
		sh := &s.schedShards[shardIndex(op.sched.TaskID)]
		sh.mu.Lock()
		return sh.mu.Unlock
	default:
		s.mu.Lock()
		return s.mu.Unlock
	}
}

// ErrReplicaGap reports a replicated record that does not extend the
// follower's log contiguously: applying it would diverge the replica's
// byte-for-byte copy of the leader's WAL.
var ErrReplicaGap = errors.New("store: replicated record out of sequence")

// ApplyReplicated lands one leader-shipped WAL record on a follower: the
// payload is appended verbatim to the follower's own log — so replica
// logs stay byte-identical to the leader's and local recovery needs no
// new machinery — then applied to the tables under the same locks the
// live mutators take. wantLSN is the record's LSN on the leader; the
// local append must produce exactly that LSN or nothing happens and
// ErrReplicaGap comes back. Callers feed records one LSN at a time from
// a single goroutine (the store refuses local mutations in replica mode,
// so nothing else appends).
func (s *Store) ApplyReplicated(wantLSN uint64, payload []byte) error {
	if s.wal == nil {
		return errors.New("store: replicated apply needs an attached WAL")
	}
	op, err := decodeWALRecord(payload, nil)
	if err != nil {
		return fmt.Errorf("store: replicated record: %w", err)
	}
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	if have := s.wal.LastLSN(); have+1 != wantLSN {
		return fmt.Errorf("%w: record %d onto log at %d", ErrReplicaGap, wantLSN, have)
	}
	unlock := s.lockForOp(&op)
	defer unlock()
	lsn, err := s.wal.Enqueue(payload)
	if err != nil {
		return fmt.Errorf("store: replica wal append: %w", err)
	}
	if lsn != wantLSN {
		// Unreachable while the single-appender contract holds; failing
		// loudly here stops replication before state can diverge.
		return fmt.Errorf("%w: append landed at %d, want %d", ErrReplicaGap, lsn, wantLSN)
	}
	s.applyDecoded(&op)
	return nil
}

// WaitDurable blocks until lsn is durable per the WAL's sync policy —
// the follower's ack gate: a pull's FromLSN must only ever admit records
// that survive a crash, or a restarted follower could ack below a floor
// the leader already truncated to.
func (s *Store) WaitDurable(lsn uint64) error {
	if s.wal == nil || lsn == 0 {
		return nil
	}
	return s.wal.Wait(lsn)
}

// RecordCRC returns the CRC-32C of the local log's record at lsn, and
// false when the log does not hold it (lsn 0, or a log that starts at an
// installed checkpoint past it).
func (s *Store) RecordCRC(lsn uint64) (uint32, bool) {
	if s.wal == nil || lsn == 0 {
		return 0, false
	}
	recs, err := s.wal.ReadAfter(lsn-1, 1, 0)
	if err != nil || len(recs) != 1 {
		return 0, false
	}
	return wal.Checksum(recs[0]), true
}

// AppliedLSN is the follower's replication high-water mark: the last LSN
// in its own log. ApplyReplicated keeps log and tables in lockstep, so
// this is also the last applied record.
func (s *Store) AppliedLSN() uint64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.LastLSN()
}

// applyIngestOp replays one Ingest record.
func (s *Store) applyIngestOp(in *ingestOp) {
	sh := &s.uploadShards[shardIndex(in.AppID)]
	for i, body := range in.Bodies {
		sh.add(sh.row(in.AppID, in.BaseSeq+int64(i)+1, in.Received, in.RequestID, body), false)
	}
	for _, id := range in.ReportIDs {
		if len(id) > 0 {
			sh.window(in.AppID).mark(id)
		}
	}
	if last := in.BaseSeq + int64(len(in.Bodies)); last > s.uploadSeq.Load() {
		s.uploadSeq.Store(last)
	}
}
