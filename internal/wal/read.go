package wal

// This file is the read side of the log: one cursor that walks a
// segment's records by pread in bounded chunks, and the three readers
// built on it — scanSegment (Open, Inspect), Replay (recovery) and
// ReadFrom (replication, ship.go). No reader loads a whole segment.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// CorruptInfo reports a record the scanner refused: where it sits and why.
type CorruptInfo struct {
	Offset int64 // byte offset of the bad record within the segment file
	Err    error
}

// chunkSize bounds one pread: a cursor holds at most this many bytes of a
// segment at a time, or one record when the record is bigger. A variable
// so tests can force records across chunk edges.
var chunkSize int64 = 64 << 10

// zeroChunk is what a clean preallocated tail compares equal to.
var zeroChunk [64 << 10]byte

// Pos is a reader's position in the log: the record with LSN lsn begins
// at byte off of the segment whose first LSN is seg. ReadFrom returns one
// for the next call to resume at; the zero Pos points nowhere.
type Pos struct {
	seg uint64
	off int64
	lsn uint64
}

// Segment returns the first LSN of the segment p points into (0 for the
// zero Pos).
func (p Pos) Segment() uint64 { return p.seg }

// cursor walks one segment file's records in order by pread. buf holds
// the file's bytes [at, at+len(buf)); no byte at or beyond end is read —
// end is the file's size for a sealed segment and the append offset
// captured under the log's lock for the live one.
type cursor struct {
	Pos
	f   *os.File
	end int64
	at  int64
	buf []byte
	// pinned marks buf as holding payloads the caller kept: the next
	// refill allocates instead of overwriting them.
	pinned bool
	// stop is the DecodeRecord error of the frame record stopped at; nil
	// at the bound or at a zero-length frame.
	stop error
	read int64 // bytes pread so far
}

// open points c at the segment file at path, whose name says its first
// LSN is seg, bounded at end (< 0: the file's size). The chunk buffer
// carries over from the previous segment unless pinned.
func (c *cursor) open(path string, seg uint64, end int64) error {
	c.close()
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if end < 0 {
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		end = st.Size()
	}
	c.f, c.end, c.at, c.buf, c.stop = f, end, 0, c.buf[:0], nil
	c.Pos = Pos{seg: seg}
	return nil
}

func (c *cursor) close() {
	if c.f != nil {
		_ = c.f.Close()
		c.f = nil
	}
}

// header reads the segment header — those bytes only — and leaves c at
// the first record. hdrErr is a header that does not decode; err is an
// I/O failure.
func (c *cursor) header() (first uint64, hdrErr, err error) {
	var hdr [headerSize]byte
	k, err := c.f.ReadAt(hdr[:min(headerSize, c.end)], 0)
	c.read += int64(k)
	if err != nil && err != io.EOF {
		return 0, nil, err
	}
	if first, hdrErr = decodeHeader(hdr[:k]); hdrErr != nil {
		return 0, hdrErr, nil
	}
	c.off, c.lsn = headerSize, first
	return first, nil, nil
}

// firstLSN reads the first LSN a segment's header declares; ok is false
// when the header cannot be read or does not decode.
func firstLSN(path string) (lsn uint64, ok bool) {
	var c cursor
	defer c.close()
	if c.open(path, 0, -1) != nil {
		return 0, false
	}
	lsn, hdrErr, err := c.header()
	return lsn, hdrErr == nil && err == nil
}

// window returns the file's bytes from off on — at least min(n, end-off)
// of them — refilling buf with one pread when it does not hold them.
func (c *cursor) window(off, n int64) ([]byte, error) {
	n = min(n, c.end-off)
	if off >= c.at && off+n <= c.at+int64(len(c.buf)) {
		return c.buf[off-c.at:], nil
	}
	size := min(max(n, chunkSize), c.end-off)
	if c.pinned || int64(cap(c.buf)) < size {
		c.buf, c.pinned = make([]byte, size), false
	}
	k, err := c.f.ReadAt(c.buf[:size], off)
	c.read += int64(k)
	if err == io.EOF {
		c.end, err = off+int64(k), nil // the file ends before the bound
	}
	if err != nil {
		return nil, err
	}
	c.buf, c.at = c.buf[:k], off
	return c.buf, nil
}

// record decodes the record at off and steps past it. ok is false where
// the records stop — at the bound, at a zero-length frame, or at a frame
// that does not decode, whose DecodeRecord error c.stop keeps. Each frame
// is checked exactly as DecodeRecord checks the whole file's bytes from
// off: the window holds the full frame, or everything up to the bound.
// The payload aliases the chunk buffer.
func (c *cursor) record() (payload []byte, ok bool, err error) {
	c.stop = nil
	if c.off >= c.end {
		return nil, false, nil
	}
	w, err := c.window(c.off, recHdrSize)
	if err != nil {
		return nil, false, err
	}
	if len(w) >= recHdrSize {
		if length := int64(binary.LittleEndian.Uint32(w)); length <= MaxRecord {
			if w, err = c.window(c.off, recHdrSize+length); err != nil {
				return nil, false, err
			}
		}
	}
	payload, n, derr := DecodeRecord(w)
	if derr != nil || len(payload) == 0 {
		c.stop = derr
		return nil, false, nil
	}
	c.off += int64(n)
	c.lsn++
	return payload, true, nil
}

// tail classifies the bytes where record stopped: clean (zeros to the end
// of the file — a preallocated tail), torn (crash residue, see tornTail),
// or, when neither, corrupt, named by scanErr(c.stop).
func (c *cursor) tail() (clean, torn bool, err error) {
	if clean, err = c.zeroFrom(c.off); clean || err != nil {
		return clean, false, err
	}
	torn, err = c.tornTail()
	return false, torn, err
}

// tornTail reports whether the undecodable bytes at off look like the
// residue of one append cut short by a crash: a frame that claims more
// than was ever memcpy'd, with nothing but zeros after its claimed
// extent. Anything decodable-but-wrong that is FOLLOWED by more data is
// bit rot instead — a crash never writes past the record it tore. A nil
// c.stop means a zero-length frame decoded even though nonzero bytes
// follow it, which no writer produces (empty records are refused at
// Enqueue).
func (c *cursor) tornTail() (bool, error) {
	if errors.Is(c.stop, ErrTorn) {
		return true, nil // frame runs past the end of the file
	}
	if !errors.Is(c.stop, ErrCorrupt) {
		return false, nil // stray data after a zero frame
	}
	w, err := c.window(c.off, recHdrSize)
	if err != nil {
		return false, err
	}
	length := int64(binary.LittleEndian.Uint32(w))
	if length > MaxRecord {
		// A garbage length field: a tear only if nothing was written
		// beyond the header it mangled.
		return c.zeroFrom(c.off + recHdrSize)
	}
	end := c.off + recHdrSize + length
	if end >= c.end {
		return true, nil
	}
	return c.zeroFrom(end)
}

// zeroFrom reports whether the file holds only zero bytes from off to
// the bound, reading a chunk at a time.
func (c *cursor) zeroFrom(off int64) (bool, error) {
	for off < c.end {
		w, err := c.window(off, chunkSize)
		if err != nil {
			return false, err
		}
		for b := w; len(b) > 0; {
			k := min(len(b), len(zeroChunk))
			if !bytes.Equal(b[:k], zeroChunk[:k]) {
				return false, nil
			}
			b = b[k:]
		}
		off += int64(len(w))
	}
	return true, nil
}

// dataEnd returns the offset just past the file's last nonzero byte at
// or after off (off itself when there is none).
func (c *cursor) dataEnd(off int64) (int64, error) {
	last := off
	for off < c.end {
		w, err := c.window(off, chunkSize)
		if err != nil {
			return 0, err
		}
		for i := len(w) - 1; i >= 0; i-- {
			if w[i] != 0 {
				last = off + int64(i) + 1
				break
			}
		}
		off += int64(len(w))
	}
	return last, nil
}

// scanErr names the error for a record the scanner stopped at.
func scanErr(decodeErr error) error {
	if decodeErr != nil {
		return decodeErr
	}
	return fmt.Errorf("%w: stray data after zero-length frame", ErrCorrupt)
}

// segScan is the result of walking one segment file to its end.
type segScan struct {
	FirstLSN  uint64
	Records   int
	GoodBytes int64 // offset just past the last valid record
	FileBytes int64
	Torn      bool         // tail record torn by a crash (see tornTail)
	Corrupt   *CorruptInfo // CRC mismatch, insane length, or stray data
}

// scanSegment walks a whole segment's records. A short or bad header is
// reported as corruption at offset 0.
func scanSegment(path string) (segScan, error) {
	var c cursor
	defer c.close()
	if err := c.open(path, 0, -1); err != nil {
		return segScan{}, err
	}
	s := segScan{FileBytes: c.end}
	first, hdrErr, err := c.header()
	if err != nil {
		return segScan{}, err
	}
	if hdrErr != nil {
		s.Corrupt = &CorruptInfo{Offset: 0, Err: hdrErr}
		return s, nil
	}
	s.FirstLSN = first
	for {
		_, ok, err := c.record()
		if err != nil {
			return segScan{}, err
		}
		if !ok {
			break
		}
		s.Records++
	}
	clean, torn, err := c.tail()
	if err != nil {
		return segScan{}, err
	}
	if torn {
		s.Torn = true
	} else if !clean {
		s.Corrupt = &CorruptInfo{Offset: c.off, Err: scanErr(c.stop)}
	}
	s.GoodBytes = c.off
	return s, nil
}

// ReplayStats summarizes a Replay pass.
type ReplayStats struct {
	Segments  int
	Records   int   // records delivered to fn (after the `after` filter)
	TornBytes int64 // residue bytes of the torn record on the last segment
}

// Replay walks every record in dir in LSN order, calling fn for records
// with lsn > after; the payload is valid only until fn returns. A sealed
// segment wholly at or below after is read no further than its header. A
// torn record at the tail of the newest segment — a crash mid-append
// leaves one — is tolerated; a torn or corrupt record anywhere else
// aborts with an error naming the segment and byte offset, without
// calling fn for it or anything after it.
func Replay(dir string, after uint64, fn func(lsn uint64, payload []byte) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := listSegments(dir)
	if os.IsNotExist(err) {
		return stats, nil
	}
	if err != nil {
		return stats, err
	}
	var c cursor
	defer c.close()
	for i, seg := range segs {
		last := i == len(segs)-1
		name := filepath.Base(seg.path)
		if err := c.open(seg.path, seg.firstLSN, -1); err != nil {
			return stats, err
		}
		_, hdrErr, err := c.header()
		if err != nil {
			return stats, err
		}
		if hdrErr != nil {
			return stats, fmt.Errorf("wal: segment %s: %w", name, hdrErr)
		}
		stats.Segments++
		// A sealed segment ends just below where its successor's header
		// says the next record begins; one wholly at or below after is
		// read no further than its header.
		if !last {
			if next, ok := firstLSN(segs[i+1].path); ok && next <= after+1 {
				continue
			}
		}
		for {
			lsn := c.lsn
			payload, ok, err := c.record()
			if err != nil {
				return stats, err
			}
			if !ok {
				break
			}
			if lsn > after {
				if err := fn(lsn, payload); err != nil {
					return stats, err
				}
				stats.Records++
			}
		}
		clean, torn, err := c.tail()
		if err != nil {
			return stats, err
		}
		if clean {
			continue
		}
		if last && torn {
			end, err := c.dataEnd(c.off)
			if err != nil {
				return stats, err
			}
			stats.TornBytes = end - c.off
			break
		}
		return stats, fmt.Errorf("wal: segment %s: %w at offset %d", name, scanErr(c.stop), c.off)
	}
	return stats, nil
}

// SegmentInfo describes one segment for inspection tooling.
type SegmentInfo struct {
	Name     string
	FirstLSN uint64
	Records  int
	Bytes    int64
	Torn     bool
	TornAt   int64 // offset of the torn record, if Torn
	Corrupt  *CorruptInfo
}

// Inspect scans every segment in dir and reports headers, record counts,
// and the offset of any torn or corrupt record. Unlike Replay it never
// aborts: damage is recorded per segment so an operator sees all of it.
func Inspect(dir string) ([]SegmentInfo, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	infos := make([]SegmentInfo, 0, len(segs))
	for _, seg := range segs {
		scan, err := scanSegment(seg.path)
		if err != nil {
			return infos, err
		}
		info := SegmentInfo{
			Name:     filepath.Base(seg.path),
			FirstLSN: scan.FirstLSN,
			Records:  scan.Records,
			Bytes:    scan.FileBytes,
			Torn:     scan.Torn,
			Corrupt:  scan.Corrupt,
		}
		if scan.Torn {
			info.TornAt = scan.GoodBytes
		}
		infos = append(infos, info)
	}
	return infos, nil
}
