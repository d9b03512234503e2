// Record and segment framing for the write-ahead log.
//
// A segment file is a fixed 16-byte header followed by back-to-back
// records:
//
//	header:  magic "SORWAL1\n" (8 bytes) | firstLSN uint64 LE
//	record:  length uint32 LE | crc32c(payload) uint32 LE | payload
//
// Records never span segments; a record's LSN is implicit — the segment's
// firstLSN plus its ordinal position — so the framing stays 8 bytes per
// record. The CRC is Castagnoli (the polynomial with hardware support on
// both amd64 and arm64), covering the payload only; the length field is
// implicitly validated by the CRC landing on the right bytes.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Segment header layout.
const (
	headerSize = 16
	recHdrSize = 8
)

var magic = [8]byte{'S', 'O', 'R', 'W', 'A', 'L', '1', '\n'}

// MaxRecord bounds one record's payload. Anything larger in the length
// field is corruption, not a record: the biggest legitimate payload is a
// full upload batch, far under this.
const MaxRecord = 64 << 20

// Framing errors. A torn record (clean truncation mid-record — the tail a
// crash leaves behind) is distinguished from corruption (CRC mismatch or
// an insane length — bit rot, overwritten bytes) because recovery
// tolerates the first silently and must report the second.
var (
	ErrTorn    = errors.New("wal: torn record (truncated mid-record)")
	ErrCorrupt = errors.New("wal: corrupt record")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C a record's frame stores for payload.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// AppendRecord appends the framed record to dst and returns the result.
// It is the one framer of every CRC-checked record SOR persists: WAL
// records and the store's snapshot sections alike.
func AppendRecord(dst []byte, payload []byte) []byte {
	var hdr [recHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], Checksum(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// recordSize returns the on-disk size of a record with this payload.
func recordSize(payload []byte) int64 { return int64(recHdrSize + len(payload)) }

// putRecord frames the record into dst, which the caller has sized to at
// least recordSize(payload). This is the append hot path: one header
// store and one memcpy into the live segment's mapping.
func putRecord(dst []byte, payload []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[4:8], Checksum(payload))
	copy(dst[recHdrSize:], payload)
}

// DecodeRecord decodes the first record in b. It returns the payload
// (aliasing b), the total bytes consumed, and an error: ErrTorn when b
// ends mid-record, ErrCorrupt when the length is implausible or the CRC
// does not match. An empty b is a clean end of stream (io-free: n == 0,
// err == nil, payload == nil).
func DecodeRecord(b []byte) (payload []byte, n int, err error) {
	if len(b) == 0 {
		return nil, 0, nil
	}
	if len(b) < recHdrSize {
		return nil, 0, ErrTorn
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	if length > MaxRecord {
		return nil, 0, fmt.Errorf("%w: length %d exceeds %d", ErrCorrupt, length, MaxRecord)
	}
	end := recHdrSize + int(length)
	if len(b) < end {
		return nil, 0, ErrTorn
	}
	payload = b[recHdrSize:end]
	want := binary.LittleEndian.Uint32(b[4:8])
	if Checksum(payload) != want {
		return nil, 0, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	return payload, end, nil
}

// encodeHeader renders a segment header.
func encodeHeader(firstLSN uint64) []byte {
	hdr := make([]byte, headerSize)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], firstLSN)
	return hdr
}

// decodeHeader parses a segment header.
func decodeHeader(b []byte) (firstLSN uint64, err error) {
	if len(b) < headerSize {
		return 0, fmt.Errorf("%w: short segment header", ErrCorrupt)
	}
	if [8]byte(b[:8]) != magic {
		return 0, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	return binary.LittleEndian.Uint64(b[8:16]), nil
}
