package wal

// This file is the log's replication surface: retention floors that keep
// TruncateThrough from dropping segments a follower still needs, and
// ReadAfter/ReadFrom, the torn-read-free record reader the leader-side
// WAL shipper streams from.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// ErrCompacted reports that the records a reader asked for were already
// truncated away: the reader is too far behind the retention floor and
// must rebuild from a snapshot instead of the log tail.
var ErrCompacted = errors.New("wal: records compacted")

// Retain registers reader id as having durably applied every record
// through lsn: TruncateThrough keeps every record above lsn on disk until
// the reader advances or is released. Re-registering may move the floor
// in either direction — a follower that lost its unsynced tail in a crash
// legitimately re-registers lower.
func (l *Log) Retain(id string, lsn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.retained == nil {
		l.retained = make(map[string]uint64)
	}
	l.retained[id] = lsn
}

// ReleaseRetain drops reader id's retention floor, letting truncation
// advance past whatever it was holding.
func (l *Log) ReleaseRetain(id string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.retained, id)
}

// retainFloorLocked returns the lowest applied LSN across registered
// readers. Called with mu held.
func (l *Log) retainFloorLocked() (uint64, bool) {
	var floor uint64
	ok := false
	for _, lsn := range l.retained {
		if !ok || lsn < floor {
			floor, ok = lsn, true
		}
	}
	return floor, ok
}

// shipSpan is one file's worth of a ReadFrom plan, captured under mu.
// For the live segment, end is the append offset at capture time: every
// byte below it was fully memcpy'd before the lock was released (Enqueue
// writes the frame and advances off under the same mu), and later appends
// only touch bytes at or beyond it — which is why reading the file after
// unlocking can never observe a torn record, and why a position below it
// stays a record boundary for as long as the segment exists.
type shipSpan struct {
	path     string
	firstLSN uint64
	end      int64 // read only bytes below this offset; -1 = the whole file
}

// ReadAfter returns the payloads of up to maxRecords records (or maxBytes
// payload bytes, whichever limit lands first; at least one record is
// always returned when available) with LSNs strictly above after, in LSN
// order starting at after+1. Limits at or below zero mean unlimited.
// A nil slice with a nil error means the caller is caught up. If after+1
// was truncated away it returns ErrCompacted.
//
// File I/O happens outside the log's lock: the lock only captures the
// sealed-segment list and the live segment's append offset. Sealed
// segments are immutable, live bytes below the captured offset are
// immutable, and retention floors (Retain) keep the planned files on
// disk — a concurrent TruncateThrough past an unretained position is
// reported as ErrCompacted, never as a torn or partial read.
func (l *Log) ReadAfter(after uint64, maxRecords int, maxBytes int64) ([][]byte, error) {
	recs, _, err := l.ReadFrom(Pos{}, after, maxRecords, maxBytes)
	return recs, err
}

// ReadFrom is ReadAfter resumed at pos, the position an earlier ReadFrom
// on this log returned; it returns the position just past its last
// record for the next call. A resumed read preads only from pos up to the
// records it returns (plus at most one chunk), whatever the segment's
// size. A pos that does not hold record after+1 — the zero Pos, an ack
// that moved, a segment sealed or compacted behind it — is ignored and
// the read walks from the segment header instead, with the same records
// and errors.
func (l *Log) ReadFrom(pos Pos, after uint64, maxRecords int, maxBytes int64) ([][]byte, Pos, error) {
	if maxRecords <= 0 {
		maxRecords = math.MaxInt
	}
	if maxBytes <= 0 {
		maxBytes = math.MaxInt64
	}
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return nil, Pos{}, err
	}
	last := l.nextLSN - 1
	if after >= last {
		l.mu.Unlock()
		return nil, pos, nil
	}
	oldest := l.segFirst
	if len(l.sealed) > 0 {
		oldest = l.sealed[0].firstLSN
	}
	if after+1 < oldest {
		l.mu.Unlock()
		return nil, Pos{}, fmt.Errorf("%w: need LSN %d, oldest on disk is %d", ErrCompacted, after+1, oldest)
	}
	var spans [4]shipSpan
	plan := spans[:0]
	for _, s := range l.sealed {
		if s.lastLSN > after {
			plan = append(plan, shipSpan{path: s.path, firstLSN: s.firstLSN, end: -1})
		}
	}
	if l.off > headerSize {
		plan = append(plan, shipSpan{path: l.f.Name(), firstLSN: l.segFirst, end: l.off})
	}
	l.mu.Unlock()

	var c cursor
	defer func() {
		c.close()
		l.readBytes.Add(c.read)
	}()
	var out [][]byte
	var outBytes int64
	want := after + 1
	for i, sp := range plan {
		if err := c.open(sp.path, sp.firstLSN, sp.end); err != nil {
			if os.IsNotExist(err) {
				// Truncated between planning and reading: the reader was
				// not retained at this position.
				return nil, Pos{}, fmt.Errorf("%w: segment %s removed mid-read", ErrCompacted, filepath.Base(sp.path))
			}
			return nil, Pos{}, err
		}
		if i == 0 && pos.lsn == want && pos.seg == sp.firstLSN && pos.off >= headerSize && pos.off <= c.end {
			c.Pos = pos // an earlier read checked every byte below it
		} else {
			_, hdrErr, err := c.header()
			if err != nil {
				return nil, Pos{}, err
			}
			if hdrErr != nil {
				return nil, Pos{}, fmt.Errorf("wal: segment %s: %w", filepath.Base(sp.path), hdrErr)
			}
		}
		for {
			at := c.Pos
			payload, ok, err := c.record()
			if err != nil {
				return nil, Pos{}, err
			}
			if !ok {
				// Zero-filled preallocated tail, or (on a just-sealed
				// segment read past the captured plan) the same clean end
				// the replayer tolerates. Records below the captured
				// offsets never decode short.
				break
			}
			if at.lsn <= after {
				continue
			}
			if at.lsn != want {
				return nil, Pos{}, fmt.Errorf("wal: segment %s: expected LSN %d, decoded %d", filepath.Base(sp.path), want, at.lsn)
			}
			if len(out) > 0 && (len(out) >= maxRecords || outBytes+int64(len(payload)) > maxBytes) {
				return out, at, nil
			}
			out = append(out, payload)
			c.pinned = true
			outBytes += int64(len(payload))
			want++
		}
	}
	return out, c.Pos, nil
}
