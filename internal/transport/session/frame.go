// Package session is the persistent framed-stream transport: one
// long-lived TCP connection per device, multiplexing uploads, acks,
// schedule pushes, epoch invalidations, and wake-up pings. It reuses the
// wire codec unchanged — every request, reply, and push payload is a
// complete wire frame (magic, type, CRC), so the stream is byte-compatible
// with what one-shot HTTP POSTs carry; the session layer only adds the
// envelope that lets many exchanges share a socket.
//
// The server side is a Registry of live sessions (bounded per-session
// send queues, server-initiated push — see registry.go) fed by
// a Server accept loop (server.go). The device side is a Client
// implementing transport.Conn with correlation-id multiplexing and
// automatic reconnect (client.go). Timers run on vclock.Clock throughout,
// so the fleet simulator drives the whole layer on virtual time.
package session

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sor/internal/wire"
)

// Frame kinds (the low 3 bits of the flags byte). Hello and Welcome are
// the handshake; Request/Reply carry correlated exchanges; Push is a
// server-initiated message with no reply.
const (
	KindHello byte = iota + 1
	KindWelcome
	KindRequest
	KindReply
	KindPush
)

// ProtoVersion is the session protocol version this build speaks. The
// handshake negotiates down to min(client, server).
const ProtoVersion = 1

// Capabilities this build understands; the handshake intersects the
// peers' lists. Unknown capabilities are dropped, never refused — a newer
// peer degrades gracefully.
var SupportedCaps = []string{"batch", "push", "resume"}

// maxFrameBody bounds one frame's body (flags + id + payload), matching
// the HTTP transport's 16 MiB request bound plus envelope slack.
const maxFrameBody = (16 << 20) + 64

// kindMask extracts the kind from the flags byte; the remaining high
// bits are reserved and must be zero.
const kindMask = 0x07

// Framing errors.
var (
	ErrFrameTooLarge = errors.New("session: frame exceeds size bound")
	ErrBadFrame      = errors.New("session: malformed frame")
)

// Frame is one unit on the stream:
//
//	length  uint32 (little-endian) — byte length of flags+id+payload
//	flags   byte — kind in the low 3 bits, high bits reserved (zero)
//	id      uvarint — correlation id (requests/replies), push sequence
//	        (pushes), zero in the handshake
//	payload kind-specific bytes
//
// Request, Reply, and Push payloads are complete wire-codec frames;
// Hello and Welcome payloads use the wire primitive encoding directly
// (EncodeHello / EncodeWelcome).
type Frame struct {
	Kind    byte
	ID      uint64
	Payload []byte
}

// AppendFrame appends f's encoding to dst and returns the extended slice.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if f.Kind < KindHello || f.Kind > KindPush {
		return dst, fmt.Errorf("%w: kind %d", ErrBadFrame, f.Kind)
	}
	var idBuf [binary.MaxVarintLen64]byte
	idLen := binary.PutUvarint(idBuf[:], f.ID)
	body := 1 + idLen + len(f.Payload)
	if body > maxFrameBody {
		return dst, ErrFrameTooLarge
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, f.Kind)
	dst = append(dst, idBuf[:idLen]...)
	dst = append(dst, f.Payload...)
	return dst, nil
}

// EncodeFrame encodes f into a fresh buffer.
func EncodeFrame(f Frame) ([]byte, error) {
	return AppendFrame(make([]byte, 0, 16+len(f.Payload)), f)
}

// DecodeFrame decodes one frame from the front of b, returning the frame
// and the number of bytes consumed. An incomplete prefix returns
// io.ErrUnexpectedEOF (callers with a stream use ReadFrame instead). The
// returned payload aliases b.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < 4 {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	body := int(binary.LittleEndian.Uint32(b))
	if body > maxFrameBody {
		return Frame{}, 0, ErrFrameTooLarge
	}
	if body < 2 { // at least flags + 1 id byte
		return Frame{}, 0, fmt.Errorf("%w: body of %d bytes", ErrBadFrame, body)
	}
	if len(b) < 4+body {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	return decodeBody(b[4 : 4+body])
}

func decodeBody(body []byte) (Frame, int, error) {
	flags := body[0]
	if flags&^byte(kindMask) != 0 {
		return Frame{}, 0, fmt.Errorf("%w: reserved flag bits set (0x%02x)", ErrBadFrame, flags)
	}
	kind := flags & kindMask
	if kind < KindHello || kind > KindPush {
		return Frame{}, 0, fmt.Errorf("%w: kind %d", ErrBadFrame, kind)
	}
	id, n := binary.Uvarint(body[1:])
	if n <= 0 {
		return Frame{}, 0, fmt.Errorf("%w: bad correlation id", ErrBadFrame)
	}
	return Frame{Kind: kind, ID: id, Payload: body[1+n:]}, 4 + len(body), nil
}

// ReadFrame reads one frame from a stream. io.EOF at a frame boundary is
// returned verbatim (clean close); EOF inside a frame is
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (Frame, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return Frame{}, err
	}
	body := int(binary.LittleEndian.Uint32(head[:]))
	if body > maxFrameBody {
		return Frame{}, ErrFrameTooLarge
	}
	if body < 2 {
		return Frame{}, fmt.Errorf("%w: body of %d bytes", ErrBadFrame, body)
	}
	buf := make([]byte, body)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	f, _, err := decodeBody(buf)
	return f, err
}

// WriteFrame encodes and writes one frame.
func WriteFrame(w io.Writer, f Frame) error {
	buf, err := EncodeFrame(f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Hello is the client's opening frame: the device token identifies the
// enrolled phone (the paper's barcode participation flow mints it), and
// the version/capability pair negotiates what the stream may carry.
type Hello struct {
	Proto uint64
	Token string
	Caps  []string
}

// Welcome is the server's handshake answer.
type Welcome struct {
	Proto uint64
	Caps  []string
	// Resumed reports that the registry displaced a previous live session
	// for this token: the device reconnected before the server noticed
	// the old stream die. The client drains its outbox on seeing it.
	Resumed bool
}

// maxCaps bounds the negotiated capability list against hostile hellos.
const maxCaps = 32

// EncodeHello encodes h with the wire primitives.
func EncodeHello(h Hello) []byte {
	var w wire.Writer
	w.PutUvarint(h.Proto)
	w.PutString(h.Token)
	putCaps(&w, h.Caps)
	return w.Bytes()
}

// DecodeHello decodes a Hello payload.
func DecodeHello(b []byte) (Hello, error) {
	r := wire.NewReader(b)
	h := Hello{Proto: r.Uvarint(), Token: r.String(), Caps: readCaps(r)}
	return h, finish(r, "hello")
}

// EncodeWelcome encodes w with the wire primitives.
func EncodeWelcome(wm Welcome) []byte {
	var w wire.Writer
	w.PutUvarint(wm.Proto)
	putCaps(&w, wm.Caps)
	w.PutBool(wm.Resumed)
	return w.Bytes()
}

// DecodeWelcome decodes a Welcome payload.
func DecodeWelcome(b []byte) (Welcome, error) {
	r := wire.NewReader(b)
	wm := Welcome{Proto: r.Uvarint(), Caps: readCaps(r), Resumed: r.Bool()}
	return wm, finish(r, "welcome")
}

func putCaps(w *wire.Writer, caps []string) {
	w.PutUvarint(uint64(len(caps)))
	for _, c := range caps {
		w.PutString(c)
	}
}

func readCaps(r *wire.Reader) []string {
	n := r.Uvarint()
	if n > maxCaps {
		r.Fail(fmt.Errorf("%w: %d capabilities", ErrBadFrame, n))
		return nil
	}
	caps := make([]string, n)
	for i := range caps {
		caps[i] = r.String()
	}
	return caps
}

// finish refuses trailing bytes — the handshake payloads are exact — and
// returns the first failure.
func finish(r *wire.Reader, what string) error {
	if r.Remaining() != 0 {
		r.Fail(fmt.Errorf("%w: %d trailing %s bytes", ErrBadFrame, r.Remaining(), what))
	}
	return r.Err()
}

// IntersectCaps returns the capabilities in theirs that this build also
// supports, in SupportedCaps order (deterministic).
func IntersectCaps(theirs []string) []string {
	has := make(map[string]bool, len(theirs))
	for _, c := range theirs {
		has[c] = true
	}
	var out []string
	for _, c := range SupportedCaps {
		if has[c] {
			out = append(out, c)
		}
	}
	return out
}
