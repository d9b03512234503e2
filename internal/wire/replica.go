package wire

import (
	"fmt"
	"math"
)

// MaxReplBatchRecords bounds how many WAL records one ReplRecords frame
// may carry — a codec sanity limit against hostile bodies and the batch
// ceiling the leader-side shipper respects.
const MaxReplBatchRecords = 8192

// ReplPull is a follower's combined heartbeat, acknowledgement, and fetch
// in one round-trip: "I have durably applied every record below FromLSN;
// send me what comes next." The leader registers FromLSN-1 as the
// follower's retention floor (segments above it stay on disk), so a
// reconnecting follower always resumes exactly where it left off.
type ReplPull struct {
	// FollowerID names the follower for retention accounting and the
	// sor_replica_* metrics.
	FollowerID string
	// FromLSN is the first LSN the follower wants; FromLSN-1 is its
	// durably-applied high-water mark.
	FromLSN uint64
	// MaxRecords / MaxBytes bound the reply batch (0 = leader default).
	MaxRecords int
	MaxBytes   int64
	// PrevCRC, when HasPrevCRC, is the CRC-32C of the follower's record at
	// FromLSN-1: a leader whose record there differs answers Compacted,
	// since the two logs forked. A follower that holds no record there
	// (FromLSN 1, or a log that starts at an installed checkpoint) sends
	// none. It travels as a trailing field, present only when set.
	PrevCRC    uint32
	HasPrevCRC bool
}

var _ Message = (*ReplPull)(nil)

// Type implements Message.
func (*ReplPull) Type() MsgType { return TypeReplPull }

func (m *ReplPull) encodePayload(w *Writer) {
	w.PutString(m.FollowerID)
	w.PutUvarint(m.FromLSN)
	w.PutUvarint(uint64(m.MaxRecords))
	w.PutUvarint(uint64(m.MaxBytes))
	if m.HasPrevCRC {
		w.PutUvarint(uint64(m.PrevCRC))
	}
}

func (m *ReplPull) decodePayload(r *Reader) {
	if m.FollowerID = r.String(); m.FollowerID == "" {
		r.Fail(fmt.Errorf("%w: empty follower id", ErrBadPayload))
	}
	if m.FromLSN = r.Uvarint(); m.FromLSN == 0 {
		r.Fail(fmt.Errorf("%w: repl pull from LSN 0 (LSNs start at 1)", ErrBadPayload))
	}
	maxRecords := r.Uvarint()
	if maxRecords > MaxReplBatchRecords {
		r.Fail(fmt.Errorf("%w: repl pull max records %d", ErrBadPayload, maxRecords))
	}
	maxBytes := r.Uvarint()
	if maxBytes > 1<<31 {
		r.Fail(fmt.Errorf("%w: repl pull max bytes %d", ErrBadPayload, maxBytes))
	}
	m.MaxRecords, m.MaxBytes = int(maxRecords), int64(maxBytes)
	if r.Remaining() > 0 {
		crc := r.Uvarint()
		if crc > math.MaxUint32 {
			r.Fail(fmt.Errorf("%w: repl pull crc %d", ErrBadPayload, crc))
		}
		m.PrevCRC, m.HasPrevCRC = uint32(crc), true
	}
}

// ReplRecords is the leader's reply to a ReplPull: a contiguous run of
// committed WAL records starting at FirstLSN (the pull's FromLSN), each
// payload exactly as the leader logged it — the follower appends them
// verbatim to its own log, so replica logs stay byte-identical to the
// leader's. An empty Records with LeaderLSN < FirstLSN means the follower
// is caught up; the reply then serves purely as a heartbeat.
type ReplRecords struct {
	// FirstLSN is the LSN of Records[0] (echoes the pull's FromLSN even
	// when Records is empty).
	FirstLSN uint64
	// LeaderLSN is the head of the leader's log at reply time; the
	// follower's lag in records is LeaderLSN - (FirstLSN-1+len(Records)).
	LeaderLSN uint64
	// Compacted reports that FirstLSN was already truncated away on the
	// leader: the tail cannot be shipped and the follower needs a full
	// resync from a fresh data directory. Records is empty when set.
	Compacted bool
	// Records are the shipped WAL record payloads, LSNs FirstLSN,
	// FirstLSN+1, ...
	Records [][]byte
}

var _ Message = (*ReplRecords)(nil)

// Type implements Message.
func (*ReplRecords) Type() MsgType { return TypeReplRecords }

func (m *ReplRecords) encodePayload(w *Writer) {
	w.PutUvarint(m.FirstLSN)
	w.PutUvarint(m.LeaderLSN)
	w.PutBool(m.Compacted)
	w.PutUvarint(uint64(len(m.Records)))
	for _, rec := range m.Records {
		w.PutBytes(rec)
	}
}

func (m *ReplRecords) decodePayload(r *Reader) {
	m.FirstLSN, m.LeaderLSN, m.Compacted = r.Uvarint(), r.Uvarint(), r.Bool()
	n := r.sliceLen()
	if n > MaxReplBatchRecords {
		r.Fail(fmt.Errorf("%w: repl batch of %d records", ErrBadPayload, n))
		return
	}
	if n > 0 {
		m.Records = make([][]byte, n)
		for i := range m.Records {
			if m.Records[i] = r.Bytes(); m.Records[i] == nil {
				r.Fail(fmt.Errorf("%w: empty repl record at index %d", ErrBadPayload, i))
				return
			}
		}
	}
}
