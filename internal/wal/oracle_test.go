package wal

// The whole-file walk the cursor replaced, kept as the differential
// oracle: every reader loads each segment with os.ReadFile and walks the
// bytes in memory. The cursor readers must return exactly what these do.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

func oracleZeroFrom(b []byte, off int64) bool {
	for _, c := range b[off:] {
		if c != 0 {
			return false
		}
	}
	return true
}

func oracleDataEnd(b []byte) int64 {
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0 {
			return int64(i + 1)
		}
	}
	return 0
}

func oracleTornTail(b []byte, off int64, decodeErr error) bool {
	if errors.Is(decodeErr, ErrTorn) {
		return true
	}
	if !errors.Is(decodeErr, ErrCorrupt) {
		return false
	}
	length := int64(binary.LittleEndian.Uint32(b[off : off+4]))
	if length > MaxRecord {
		return oracleZeroFrom(b, off+recHdrSize)
	}
	end := off + recHdrSize + length
	return end >= int64(len(b)) || oracleZeroFrom(b, end)
}

func oracleScanSegment(path string) (segScan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return segScan{}, err
	}
	s := segScan{FileBytes: int64(len(b))}
	first, err := decodeHeader(b)
	if err != nil {
		s.Corrupt = &CorruptInfo{Offset: 0, Err: err}
		return s, nil
	}
	s.FirstLSN = first
	off := int64(headerSize)
	for off < int64(len(b)) {
		payload, n, err := DecodeRecord(b[off:])
		if err == nil && len(payload) > 0 {
			off += int64(n)
			s.Records++
			continue
		}
		if oracleZeroFrom(b, off) {
			break
		}
		if oracleTornTail(b, off, err) {
			s.Torn = true
		} else {
			s.Corrupt = &CorruptInfo{Offset: off, Err: scanErr(err)}
		}
		break
	}
	s.GoodBytes = off
	return s, nil
}

func oracleInspect(dir string) ([]SegmentInfo, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	var infos []SegmentInfo
	for _, seg := range segs {
		scan, err := oracleScanSegment(seg.path)
		if err != nil {
			return infos, err
		}
		info := SegmentInfo{Name: filepath.Base(seg.path), FirstLSN: scan.FirstLSN,
			Records: scan.Records, Bytes: scan.FileBytes, Torn: scan.Torn, Corrupt: scan.Corrupt}
		if scan.Torn {
			info.TornAt = scan.GoodBytes
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// oracleReplay reads every segment whole, the sealed ones below after
// included.
func oracleReplay(dir string, after uint64, fn func(lsn uint64, payload []byte) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := listSegments(dir)
	if os.IsNotExist(err) {
		return stats, nil
	}
	if err != nil {
		return stats, err
	}
	for i, seg := range segs {
		last := i == len(segs)-1
		b, err := os.ReadFile(seg.path)
		if err != nil {
			return stats, err
		}
		first, err := decodeHeader(b)
		if err != nil {
			return stats, fmt.Errorf("wal: segment %s: %w", filepath.Base(seg.path), err)
		}
		stats.Segments++
		off := int64(headerSize)
		lsn := first
		for off < int64(len(b)) {
			payload, n, err := DecodeRecord(b[off:])
			if err == nil && len(payload) > 0 {
				if lsn > after {
					if err := fn(lsn, payload); err != nil {
						return stats, err
					}
					stats.Records++
				}
				off += int64(n)
				lsn++
				continue
			}
			if oracleZeroFrom(b, off) {
				break
			}
			if last && oracleTornTail(b, off, err) {
				stats.TornBytes = oracleDataEnd(b) - off
				break
			}
			return stats, fmt.Errorf("wal: segment %s: %w at offset %d",
				filepath.Base(seg.path), scanErr(err), off)
		}
	}
	return stats, nil
}

// oracleReadAfter plans under the log's lock exactly as ReadFrom does,
// then reads every planned segment whole and walks it from the header.
func oracleReadAfter(l *Log, after uint64, maxRecords int, maxBytes int64) ([][]byte, error) {
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
		return nil, err
	}
	last := l.nextLSN - 1
	if after >= last {
		l.mu.Unlock()
		return nil, nil
	}
	oldest := l.segFirst
	if len(l.sealed) > 0 {
		oldest = l.sealed[0].firstLSN
	}
	if after+1 < oldest {
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: need LSN %d, oldest on disk is %d", ErrCompacted, after+1, oldest)
	}
	var plan []shipSpan
	for _, s := range l.sealed {
		if s.lastLSN > after {
			plan = append(plan, shipSpan{path: s.path, firstLSN: s.firstLSN, end: -1})
		}
	}
	if l.off > headerSize {
		plan = append(plan, shipSpan{path: l.f.Name(), firstLSN: l.segFirst, end: l.off})
	}
	l.mu.Unlock()

	var out [][]byte
	var outBytes int64
	next := after + 1
	for _, sp := range plan {
		b, err := os.ReadFile(sp.path)
		if err != nil {
			if os.IsNotExist(err) {
				return nil, fmt.Errorf("%w: segment %s removed mid-read", ErrCompacted, filepath.Base(sp.path))
			}
			return nil, err
		}
		first, err := decodeHeader(b)
		if err != nil {
			return nil, fmt.Errorf("wal: segment %s: %w", filepath.Base(sp.path), err)
		}
		if sp.end >= 0 && sp.end < int64(len(b)) {
			b = b[:sp.end]
		}
		off := int64(headerSize)
		lsn := first
		for off < int64(len(b)) {
			payload, n, derr := DecodeRecord(b[off:])
			if derr != nil || len(payload) == 0 {
				break
			}
			if lsn > after {
				if lsn != next {
					return nil, fmt.Errorf("wal: segment %s: expected LSN %d, decoded %d", filepath.Base(sp.path), next, lsn)
				}
				if len(out) > 0 && (len(out) >= maxRecords || outBytes+int64(len(payload)) > maxBytes) {
					return out, nil
				}
				out = append(out, payload)
				outBytes += int64(len(payload))
				next++
			}
			off += int64(n)
			lsn++
		}
	}
	return out, nil
}
