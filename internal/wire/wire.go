// Package wire implements SOR's binary message encoding. The paper (§II-A)
// sends all SOR-specific information as opaque binary data in the body of
// HTTP messages "to minimize traffic load and enhance security"; this
// package defines that format:
//
//	magic "SOR\x01" | message type (1 byte) | payload | CRC-32 (4 bytes)
//
// Version 2 frames ("SOR\x02") insert a length-prefixed trace RequestID
// between the type byte and the payload:
//
//	magic "SOR\x02" | type (1 byte) | request-id (string) | payload | CRC-32
//
// Encode always emits version 1 (bit-stable with older builds);
// EncodeTraced emits version 2 when a RequestID is present. Decode and
// DecodeTraced accept both versions, so old and new peers interoperate.
//
// Payload primitives are little-endian IEEE-754 float64s, unsigned and
// signed varints, booleans, and length-prefixed strings and byte slices.
// Every message type implements Message and round-trips exactly.
//
// Writer and Reader are the one primitive layer: the store writes its WAL
// records and snapshot rows with them and the session handshake uses them
// too. Reader is sticky-error: the first malformed field records its
// error (wrapping ErrTruncated or ErrBadPayload, or whatever a decoder
// passed to Fail) and empties the buffer, every later read returns a zero
// value, and a decoder checks Err once where it needs the result rather
// than after every field. An empty byte field decodes as nil.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// magic prefixes every frame (includes format version 1).
var magic = []byte{'S', 'O', 'R', 1}

// Frame versions: version 1 is the original envelope, version 2 carries
// a trace RequestID between the type byte and the payload.
const (
	version1 = 1
	version2 = 2
)

// MaxRequestIDLen bounds the trace id in a v2 frame; anything longer is
// hostile or broken.
const MaxRequestIDLen = 256

// MsgType identifies a message.
type MsgType byte

// Message types.
const (
	TypeParticipate MsgType = iota + 1
	TypeSchedule
	TypeDataUpload
	TypeAck
	TypeLeave
	TypePing
	TypeRankRequest
	TypeRankResponse
	TypeDataUploadBatch
	TypeReplPull
	TypeReplRecords
	TypeEpochInvalidate
	TypeSnapPull
	TypeSnapChunk
	TypeClusterHello
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case TypeParticipate:
		return "participate"
	case TypeSchedule:
		return "schedule"
	case TypeDataUpload:
		return "data-upload"
	case TypeAck:
		return "ack"
	case TypeLeave:
		return "leave"
	case TypePing:
		return "ping"
	case TypeRankRequest:
		return "rank-request"
	case TypeRankResponse:
		return "rank-response"
	case TypeDataUploadBatch:
		return "data-upload-batch"
	case TypeReplPull:
		return "repl-pull"
	case TypeReplRecords:
		return "repl-records"
	case TypeEpochInvalidate:
		return "epoch-invalidate"
	case TypeSnapPull:
		return "snap-pull"
	case TypeSnapChunk:
		return "snap-chunk"
	case TypeClusterHello:
		return "cluster-hello"
	default:
		return fmt.Sprintf("unknown(%d)", byte(t))
	}
}

// Errors returned by the codec.
var (
	ErrBadMagic   = errors.New("wire: bad magic or unsupported version")
	ErrBadCRC     = errors.New("wire: checksum mismatch")
	ErrTruncated  = errors.New("wire: truncated message")
	ErrBadPayload = errors.New("wire: malformed payload")
)

// limits guard against hostile inputs. A byte field has none beyond the
// remaining input, which already caps its allocation at the frame size.
const (
	maxStringLen = 1 << 20 // 1 MiB
	maxSliceLen  = 1 << 22 // 4M elements
)

// Message is any SOR wire message.
type Message interface {
	// Type returns the message's type tag.
	Type() MsgType
	// encodePayload appends the payload to w.
	encodePayload(w *Writer)
	// decodePayload parses the payload from r, leaving any failure in
	// r.Err().
	decodePayload(r *Reader)
}

// Writer builds a payload. The zero Writer starts an empty buffer;
// NewWriter appends to a caller's (recycled) buffer instead.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer appending to buf.
func NewWriter(buf []byte) *Writer { return &Writer{buf: buf} }

// Bytes returns the accumulated buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// PutUvarint appends an unsigned varint.
func (w *Writer) PutUvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// PutVarint appends a signed varint.
func (w *Writer) PutVarint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// PutFloat appends a float64 as its raw IEEE-754 bits (8 bytes LE), so
// NaN payloads, ±Inf and −0 survive bit for bit.
func (w *Writer) PutFloat(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

// PutString appends a length-prefixed string.
func (w *Writer) PutString(s string) {
	w.PutUvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// PutBool appends a boolean byte.
func (w *Writer) PutBool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// PutBytes appends a length-prefixed byte slice.
func (w *Writer) PutBytes(b []byte) {
	w.PutUvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader parses a payload with a sticky error: the first malformed field
// records its error and empties the buffer, every later read returns a
// zero value, and the caller checks Err once where it needs the result.
type Reader struct {
	buf []byte
	err error
}

// NewReader wraps a buffer.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err unless an earlier failure is already recorded, and
// empties the buffer. Decoders call it for a field that parsed but is out
// of range.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// Remaining reports unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.Fail(ErrTruncated)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.Fail(ErrTruncated)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Float reads a float64.
func (r *Reader) Float() float64 {
	if len(r.buf) < 8 {
		r.Fail(ErrTruncated)
		return 0
	}
	bits := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return math.Float64frombits(bits)
}

// Bool reads a boolean byte.
func (r *Reader) Bool() bool {
	if len(r.buf) < 1 {
		r.Fail(ErrTruncated)
		return false
	}
	b := r.buf[0]
	if b > 1 {
		r.Fail(fmt.Errorf("%w: bool byte %d", ErrBadPayload, b))
		return false
	}
	r.buf = r.buf[1:]
	return b == 1
}

// take returns the next n bytes, aliasing the input.
func (r *Reader) take(n uint64) []byte {
	if n > uint64(len(r.buf)) {
		r.Fail(ErrTruncated)
		return nil
	}
	p := r.buf[:n:n]
	r.buf = r.buf[n:]
	return p
}

// Raw returns the next length-prefixed field aliasing the input, bounded
// only by the remaining input.
func (r *Reader) Raw() []byte { return r.take(r.Uvarint()) }

// String reads a length-prefixed string of at most 1 MiB.
func (r *Reader) String() string { return r.reuseString("") }

// reuseString is String returning old itself when the field's bytes equal
// it, so decoding a run of equal values allocates once.
func (r *Reader) reuseString(old string) string {
	n := r.Uvarint()
	if n > maxStringLen {
		r.Fail(fmt.Errorf("%w: string of %d bytes", ErrBadPayload, n))
		return ""
	}
	if p := r.take(n); string(p) != old {
		return string(p)
	}
	return old
}

// Bytes reads a length-prefixed byte field as a copy; empty decodes as
// nil. Like Raw it is bounded only by the remaining input, which caps the
// allocation at the frame's size.
func (r *Reader) Bytes() []byte {
	p := r.Raw()
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

// Count reads the length of a run of elements, each at least one byte
// long: a count over max fails ErrBadPayload, and one the remaining input
// cannot hold fails ErrTruncated, so no caller sizes an allocation by a
// corrupt field.
func (r *Reader) Count(max int) int {
	n := r.Uvarint()
	switch {
	case n > uint64(max):
		r.Fail(fmt.Errorf("%w: slice of %d elements", ErrBadPayload, n))
		return 0
	case n > uint64(len(r.buf)):
		r.Fail(ErrTruncated)
		return 0
	}
	return int(n)
}

// sliceLen is Count under the wire's hostile-input bound.
func (r *Reader) sliceLen() int { return r.Count(maxSliceLen) }

// Encode frames a message: magic | type | payload | crc32(payload+type).
// The output is a version-1 frame, byte-identical to older builds.
func Encode(m Message) ([]byte, error) {
	return EncodeTraced(m, "")
}

// AppendEncode appends the frame Encode returns for m to dst, so a caller
// that only copies the frame can encode into a buffer it reuses.
func AppendEncode(dst []byte, m Message) ([]byte, error) {
	return appendTraced(dst, m, "")
}

// EncodeTraced frames a message carrying a trace RequestID. An empty id
// produces a version-1 frame (exactly Encode); a non-empty id produces a
// version-2 frame with the id between the type byte and the payload.
func EncodeTraced(m Message, requestID string) ([]byte, error) {
	// Typical messages are well under 256 bytes; pre-sizing keeps the hot
	// ingest path from growing the buffer several times per report.
	return appendTraced(make([]byte, 0, 256), m, requestID)
}

// appendTraced appends EncodeTraced's frame to dst.
func appendTraced(dst []byte, m Message, requestID string) ([]byte, error) {
	if m == nil {
		return nil, errors.New("wire: nil message")
	}
	if len(requestID) > MaxRequestIDLen {
		return nil, fmt.Errorf("%w: request id of %d bytes", ErrBadPayload, len(requestID))
	}
	start := len(dst)
	w := NewWriter(dst)
	w.buf = append(w.buf, 'S', 'O', 'R')
	if requestID == "" {
		w.buf = append(w.buf, version1)
	} else {
		w.buf = append(w.buf, version2)
	}
	w.buf = append(w.buf, byte(m.Type()))
	if requestID != "" {
		w.PutString(requestID)
	}
	m.encodePayload(w)
	sum := crc32.ChecksumIEEE(w.buf[start+len(magic):])
	w.buf = binary.LittleEndian.AppendUint32(w.buf, sum)
	return w.buf, nil
}

// Decode parses a framed message (either version), discarding any trace
// RequestID.
func Decode(b []byte) (Message, error) {
	m, _, err := DecodeTraced(b)
	return m, err
}

// DecodeTraced parses a framed message and returns the trace RequestID a
// version-2 frame carries ("" for version-1 frames).
func DecodeTraced(b []byte) (Message, string, error) {
	t, requestID, r, err := openFrame(b, 0)
	if err != nil {
		return nil, "", err
	}
	m, err := newMessage(t)
	if err != nil {
		return nil, "", err
	}
	m.decodePayload(&r)
	if err := r.finishFrame(t); err != nil {
		return nil, "", err
	}
	return m, requestID, nil
}

// DecodeUpload parses a framed DataUpload (either version) into up,
// reusing up's slices and every string field whose bytes are unchanged, so
// a caller decoding many uploads into one message allocates only for what
// grew or changed. Its checks are Decode's, and a frame of any other type
// is refused. On error up's contents are unspecified.
func DecodeUpload(b []byte, up *DataUpload) error {
	_, _, r, err := openFrame(b, TypeDataUpload)
	if err != nil {
		return err
	}
	up.decodePayload(&r)
	return r.finishFrame(TypeDataUpload)
}

// openFrame checks a frame's envelope — magic, version, CRC, the message
// type when want is not zero, the request-id bound — and returns the type,
// the trace RequestID and a Reader over the payload. The Reader is a value
// so a caller decoding into a concrete message keeps it off the heap.
func openFrame(b []byte, want MsgType) (MsgType, string, Reader, error) {
	if len(b) < len(magic)+1+4 {
		return 0, "", Reader{}, ErrTruncated
	}
	if b[0] != 'S' || b[1] != 'O' || b[2] != 'R' {
		return 0, "", Reader{}, ErrBadMagic
	}
	version := b[3]
	if version != version1 && version != version2 {
		return 0, "", Reader{}, ErrBadMagic
	}
	body := b[len(magic) : len(b)-4]
	wantSum := binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != wantSum {
		return 0, "", Reader{}, ErrBadCRC
	}
	t := MsgType(body[0])
	if want != 0 && t != want {
		return 0, "", Reader{}, fmt.Errorf("%w: %s frame, want %s", ErrBadPayload, t, want)
	}
	r := Reader{buf: body[1:]}
	requestID := ""
	if version == version2 {
		requestID = r.String()
		if err := r.Err(); err != nil {
			return 0, "", Reader{}, fmt.Errorf("wire: decoding request id: %w", err)
		}
		if len(requestID) > MaxRequestIDLen {
			return 0, "", Reader{}, fmt.Errorf("%w: request id of %d bytes", ErrBadPayload, len(requestID))
		}
	}
	return t, requestID, r, nil
}

// finishFrame refuses a payload of type t that did not parse or left
// trailing bytes.
func (r *Reader) finishFrame(t MsgType) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("wire: decoding %s: %w", t, err)
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in %s", ErrBadPayload, r.Remaining(), t)
	}
	return nil
}

func newMessage(t MsgType) (Message, error) {
	switch t {
	case TypeParticipate:
		return &Participate{}, nil
	case TypeSchedule:
		return &Schedule{}, nil
	case TypeDataUpload:
		return &DataUpload{}, nil
	case TypeAck:
		return &Ack{}, nil
	case TypeLeave:
		return &Leave{}, nil
	case TypePing:
		return &Ping{}, nil
	case TypeRankRequest:
		return &RankRequest{}, nil
	case TypeRankResponse:
		return &RankResponse{}, nil
	case TypeDataUploadBatch:
		return &DataUploadBatch{}, nil
	case TypeReplPull:
		return &ReplPull{}, nil
	case TypeReplRecords:
		return &ReplRecords{}, nil
	case TypeEpochInvalidate:
		return &EpochInvalidate{}, nil
	case TypeSnapPull:
		return &SnapPull{}, nil
	case TypeSnapChunk:
		return &SnapChunk{}, nil
	case TypeClusterHello:
		return &ClusterHello{}, nil
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", byte(t))
	}
}
