package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"sor/internal/wal"
)

// WAL op codes of the JSON-framed records. One record is written per
// mutation, before the mutation is applied; replay (applyWALRecord)
// re-applies them in LSN order onto a restored snapshot. Drains and reads
// are operational, not state, and are never logged. Ingest — dedup marks
// plus stored bodies, one atomic record — has no op code: it is the
// binary record below.
const (
	opUser   = "user"   // PutUser
	opApp    = "app"    // PutApp
	opPart   = "part"   // PutParticipation / UpdateParticipation (full row)
	opFeat   = "feat"   // UpsertFeature
	opSched  = "sched"  // PutSchedule
	opAnchor = "anchor" // PutAnchor
)

// walOp is one logged mutation. Exactly one payload field matching Op is
// set; the rest stay nil/zero and are elided from the JSON.
type walOp struct {
	Op         string         `json:"op"`
	User       *User          `json:"user,omitempty"`
	App        *Application   `json:"app,omitempty"`
	Part       *Participation `json:"part,omitempty"`
	Feat       *FeatureRow    `json:"feat,omitempty"`
	Sched      *ScheduleRow   `json:"sched,omitempty"`
	AppID      string         `json:"app_id,omitempty"`
	AnchorUnix int64          `json:"anchor_unix,omitempty"`
}

// ingestOp is the atomic image of one Ingest call: only the bodies that
// survived dedup, their window marks, and the first sequence number. A
// crash between ack and anything else cannot split the mark from the
// body — both ride one CRC-framed record.
type ingestOp struct {
	AppID     string
	BaseSeq   int64 // Seq of Bodies[i] is BaseSeq+i+1
	Received  time.Time
	RequestID string
	Bodies    [][]byte
	ReportIDs []string // parallel to Bodies; "" = unmarked
}

// Ingest records — the only high-rate op — use a compact binary encoding
// instead of JSON: raw bodies (no base64), no reflection, half the write
// volume. The first payload byte disambiguates: JSON records start with
// '{', binary ingest records with ingestTag.
const ingestTag = 0x01

// appendIngestRecord renders one Ingest call into buf as:
//
//	tag | appID | requestID | received unixnano | baseSeq | nbodies |
//	   bodies... | nids | ids...
//
// where strings and bodies are uvarint-length-prefixed and integers are
// varint. It appends (callers recycle the buffer through ingestEncPool;
// wal.Enqueue copies the payload before returning).
func appendIngestRecord(buf []byte, appID string, baseSeq int64, received time.Time, requestID string, rows []RawUpload, ids []string) []byte {
	buf = append(buf, ingestTag)
	buf = appendBytes(buf, appID)
	buf = appendBytes(buf, requestID)
	buf = binary.AppendVarint(buf, received.UnixNano())
	buf = binary.AppendVarint(buf, baseSeq)
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for i := range rows {
		buf = binary.AppendUvarint(buf, uint64(len(rows[i].Body)))
		buf = append(buf, rows[i].Body...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = appendBytes(buf, id)
	}
	return buf
}

// ingestEncPool recycles ingest-record encode buffers: the ingest hot
// path runs per report, and per-op buffer churn is pure GC pressure.
var ingestEncPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

func appendBytes(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

var errIngestRecord = errors.New("store: malformed binary ingest record")

func decodeIngestOp(payload []byte) (*ingestOp, error) {
	r := payload[1:] // caller checked the tag
	next := func() ([]byte, error) {
		n, used := binary.Uvarint(r)
		if used <= 0 || uint64(len(r)-used) < n {
			return nil, errIngestRecord
		}
		b := r[used : used+int(n)]
		r = r[used+int(n):]
		return b, nil
	}
	nextInt := func() (int64, error) {
		v, used := binary.Varint(r)
		if used <= 0 {
			return 0, errIngestRecord
		}
		r = r[used:]
		return v, nil
	}
	in := &ingestOp{}
	appID, err := next()
	if err != nil {
		return nil, err
	}
	in.AppID = string(appID)
	reqID, err := next()
	if err != nil {
		return nil, err
	}
	in.RequestID = string(reqID)
	recv, err := nextInt()
	if err != nil {
		return nil, err
	}
	in.Received = time.Unix(0, recv).UTC()
	if in.BaseSeq, err = nextInt(); err != nil {
		return nil, err
	}
	nb, used := binary.Uvarint(r)
	if used <= 0 || nb > uint64(len(r)) {
		return nil, errIngestRecord
	}
	r = r[used:]
	in.Bodies = make([][]byte, nb)
	for i := range in.Bodies {
		b, err := next()
		if err != nil {
			return nil, err
		}
		in.Bodies[i] = append([]byte(nil), b...)
	}
	ni, used := binary.Uvarint(r)
	if used <= 0 || ni > uint64(len(r)) {
		return nil, errIngestRecord
	}
	r = r[used:]
	in.ReportIDs = make([]string, ni)
	for i := range in.ReportIDs {
		id, err := next()
		if err != nil {
			return nil, err
		}
		in.ReportIDs[i] = string(id)
	}
	if len(r) != 0 {
		return nil, errIngestRecord
	}
	if ni == 0 {
		in.ReportIDs = nil
	}
	return in, nil
}

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
	payload, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("store: encoding wal op: %w", err)
	}
	if _, err := s.wal.Append(payload); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	return nil
}

// markLocked records an id in appID's window, creating the window on
// first use. Caller holds the dedup shard's lock (or owns the store
// exclusively, as replay does).
func (s *Store) markLocked(appID, id string) {
	sh := &s.dedupShards[shardIndex(appID)]
	w, ok := sh.apps[appID]
	if !ok {
		w = &reportWindow{seen: make(map[string]struct{})}
		sh.apps[appID] = w
	}
	w.mark(id)
}

// decodeWALRecord parses and fully validates one logged record without
// touching the store, so callers can reject a malformed record before
// committing to anything (ApplyReplicated must not let one into the local
// log). Exactly one of the returns is set: in for binary ingest records,
// op for JSON ops.
func decodeWALRecord(payload []byte) (op *walOp, in *ingestOp, err error) {
	if len(payload) > 0 && payload[0] == ingestTag {
		in, err = decodeIngestOp(payload)
		return nil, in, err
	}
	op = &walOp{}
	if err := json.Unmarshal(payload, op); err != nil {
		return nil, nil, fmt.Errorf("store: decoding wal record: %w", err)
	}
	var need bool
	switch op.Op {
	case opUser:
		need = op.User == nil
	case opApp:
		need = op.App == nil
	case opPart:
		need = op.Part == nil
	case opFeat:
		need = op.Feat == nil
	case opSched:
		need = op.Sched == nil
	case opAnchor:
	default:
		return nil, nil, fmt.Errorf("store: unknown wal op %q", op.Op)
	}
	if need {
		return nil, nil, fmt.Errorf("store: wal %s record without payload", op.Op)
	}
	return op, nil, nil
}

// applyDecoded writes one validated op into the tables. Callers either
// own the store exclusively (recovery) or hold the locks lockForOp picks.
func (s *Store) applyDecoded(op *walOp, in *ingestOp) {
	if in != nil {
		s.applyIngestOp(in)
		return
	}
	switch op.Op {
	case opUser:
		s.users[op.User.ID] = *op.User
	case opApp:
		s.apps[op.App.ID] = *op.App
		if op.App.Category != "" {
			s.bumpFeatureApp(op.App.Category)
		}
	case opPart:
		s.setParticipation(*op.Part)
	case opFeat:
		f := *op.Feat
		s.features[featureKey{f.Category, f.Place, f.Feature}] = f
		s.bumpFeaturePlace(f.Category, f.Place)
	case opSched:
		s.schedShards[shardIndex(op.Sched.TaskID)].rows[op.Sched.TaskID] = *op.Sched
	case opAnchor:
		s.anchors[op.AppID] = op.AnchorUnix
	}
}

// applyWALRecord applies one replayed op. Recovery runs single-threaded,
// before the store is shared, so it writes the tables directly.
func (s *Store) applyWALRecord(payload []byte) error {
	op, in, err := decodeWALRecord(payload)
	if err != nil {
		return err
	}
	s.applyDecoded(op, in)
	return nil
}

// lockForOp takes the same table locks the live mutator for this op kind
// takes (and in the same order — dedup shard before upload shard, as
// ingestLocked does), returning the matching unlock. Replicated applies
// run under these so concurrent readers — rank serving, drains, the
// checkpoint snapshot — see the replica's tables exactly as they would a
// leader's.
func (s *Store) lockForOp(op *walOp, in *ingestOp) func() {
	switch {
	case in != nil:
		dsh := &s.dedupShards[shardIndex(in.AppID)]
		ush := &s.uploadShards[shardIndex(in.AppID)]
		dsh.mu.Lock()
		ush.mu.Lock()
		return func() { ush.mu.Unlock(); dsh.mu.Unlock() }
	case op.Op == opSched:
		sh := &s.schedShards[shardIndex(op.Sched.TaskID)]
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
	op, in, err := decodeWALRecord(payload)
	if err != nil {
		return fmt.Errorf("store: replicated record: %w", err)
	}
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	if have := s.wal.LastLSN(); have+1 != wantLSN {
		return fmt.Errorf("%w: record %d onto log at %d", ErrReplicaGap, wantLSN, have)
	}
	unlock := s.lockForOp(op, in)
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
	s.applyDecoded(op, in)
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
		sh.put(RawUpload{
			Seq: in.BaseSeq + int64(i) + 1, AppID: in.AppID,
			Received: in.Received, Body: body, RequestID: in.RequestID,
		})
		if i < len(in.ReportIDs) && in.ReportIDs[i] != "" {
			s.markLocked(in.AppID, in.ReportIDs[i])
		}
	}
	if last := in.BaseSeq + int64(len(in.Bodies)); last > s.uploadSeq.Load() {
		s.uploadSeq.Store(last)
	}
}
