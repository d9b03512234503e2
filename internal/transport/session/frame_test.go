package session

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"sor/internal/wire"
)

func TestFrameRoundTrip(t *testing.T) {
	wirePayload, err := wire.Encode(&wire.Ack{OK: true, Code: 200})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Frame{
		{Kind: KindHello, ID: 0, Payload: EncodeHello(Hello{Proto: 1, Token: "tok", Caps: SupportedCaps})},
		{Kind: KindWelcome, ID: 0, Payload: EncodeWelcome(Welcome{Proto: 1, Resumed: true})},
		{Kind: KindRequest, ID: 1, Payload: wirePayload},
		{Kind: KindReply, ID: 300, Payload: wirePayload},
		{Kind: KindPush, ID: math.MaxUint64, Payload: nil},
		{Kind: KindRequest, ID: 7, Payload: bytes.Repeat([]byte{0xab}, 4096)},
	}
	for _, f := range cases {
		buf, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("encode kind %d: %v", f.Kind, err)
		}
		got, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("decode kind %d: %v", f.Kind, err)
		}
		if n != len(buf) {
			t.Fatalf("kind %d consumed %d of %d bytes", f.Kind, n, len(buf))
		}
		if got.Kind != f.Kind || got.ID != f.ID || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("kind %d round trip mismatch: %+v vs %+v", f.Kind, got, f)
		}
		// Stream and buffer decoders must agree.
		rf, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("ReadFrame kind %d: %v", f.Kind, err)
		}
		if rf.Kind != f.Kind || rf.ID != f.ID || !bytes.Equal(rf.Payload, f.Payload) {
			t.Fatalf("ReadFrame kind %d mismatch", f.Kind)
		}
	}
}

func TestFrameRejectsMalformed(t *testing.T) {
	if _, err := EncodeFrame(Frame{Kind: 0}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("kind 0 encode: %v", err)
	}
	if _, err := EncodeFrame(Frame{Kind: KindPush + 1}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("kind 6 encode: %v", err)
	}
	if _, err := EncodeFrame(Frame{Kind: KindRequest, Payload: make([]byte, maxFrameBody)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized encode: %v", err)
	}

	good, err := EncodeFrame(Frame{Kind: KindRequest, ID: 5, Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	// Reserved flag bits must be zero.
	bad := append([]byte(nil), good...)
	bad[4] |= 0x80
	if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("reserved bits: %v", err)
	}
	// A length prefix past the bound is refused before allocation.
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge, maxFrameBody+1)
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("huge length: %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("huge length via stream: %v", err)
	}
	// Bodies too small to hold flags + id are refused.
	tiny := binary.LittleEndian.AppendUint32(nil, 1)
	tiny = append(tiny, KindPush)
	if _, _, err := DecodeFrame(tiny); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("tiny body: %v", err)
	}
}

func TestReadFrameEOFSemantics(t *testing.T) {
	// EOF at a frame boundary is a clean close, verbatim.
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	good, err := EncodeFrame(Frame{Kind: KindReply, ID: 9, Payload: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	// EOF inside the header or body is an unexpected EOF.
	for _, cut := range []int{1, 3, 4, len(good) - 1} {
		if _, err := ReadFrame(bytes.NewReader(good[:cut])); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	// DecodeFrame reports a short buffer the same way.
	if _, _, err := DecodeFrame(good[:len(good)-1]); err != io.ErrUnexpectedEOF {
		t.Fatalf("short buffer: %v", err)
	}
}

func TestHelloWelcomeRoundTrip(t *testing.T) {
	h := Hello{Proto: 3, Token: "device-token-17", Caps: []string{"batch", "push", "future-cap"}}
	got, err := DecodeHello(EncodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("hello round trip: %+v vs %+v", got, h)
	}
	w := Welcome{Proto: 1, Caps: []string{"batch"}, Resumed: true}
	gw, err := DecodeWelcome(EncodeWelcome(w))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gw, w) {
		t.Fatalf("welcome round trip: %+v vs %+v", gw, w)
	}

	// Trailing bytes are refused: the handshake payloads are exact.
	if _, err := DecodeHello(append(EncodeHello(h), 0)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing hello bytes: %v", err)
	}
	if _, err := DecodeWelcome(append(EncodeWelcome(w), 0)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing welcome bytes: %v", err)
	}
	// Hostile capability counts are bounded.
	var wr wire.Writer
	wr.PutUvarint(1)
	wr.PutString("tok")
	wr.PutUvarint(maxCaps + 1)
	if _, err := DecodeHello(wr.Bytes()); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("cap bound: %v", err)
	}
}

// Fixed handshake payloads for the truncation table and the fuzz corpus.
var (
	seedHello   = Hello{Proto: 1, Token: "tok", Caps: []string{"batch", "push"}}
	seedWelcome = Welcome{Proto: 1, Caps: []string{"batch"}, Resumed: true}
)

// cuts returns every strict prefix of p, then p plus one byte.
func cuts(p []byte) [][]byte {
	out := make([][]byte, 0, len(p)+1)
	for n := range p {
		out = append(out, p[:n])
	}
	return append(out, append(bytes.Clone(p), 0))
}

// TestHandshakeRejectsPayloadTruncation: every strict prefix of a hello
// and a welcome payload, and each payload plus one byte, is refused with
// the codec's or the framer's error class.
func TestHandshakeRejectsPayloadTruncation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		decode func([]byte) error
		full   []byte
	}{
		{"hello", func(b []byte) error { _, err := DecodeHello(b); return err }, EncodeHello(seedHello)},
		{"welcome", func(b []byte) error { _, err := DecodeWelcome(b); return err }, EncodeWelcome(seedWelcome)},
	} {
		for i, b := range cuts(tc.full) {
			if err := tc.decode(b); !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s cut %d (%d of %d bytes): err = %v, want ErrTruncated or ErrBadFrame", tc.name, i, len(b), len(tc.full), err)
			}
		}
	}
}

func TestIntersectCaps(t *testing.T) {
	// Result is in SupportedCaps order regardless of the peer's ordering,
	// and unknown capabilities are dropped, not refused.
	got := IntersectCaps([]string{"resume", "quantum", "batch"})
	want := []string{"batch", "resume"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("IntersectCaps = %v, want %v", got, want)
	}
	if IntersectCaps(nil) != nil {
		t.Fatal("empty intersection must be nil")
	}
}

// FuzzSessionFrame fuzzes the stream framing the same way wire's
// FuzzDecode fuzzes the codec: whatever the decoder accepts must survive
// an encode/decode round trip unchanged, and handshake payloads inside
// accepted hello/welcome frames must round-trip too. (Equality is
// structural, not byte-for-byte: varints admit non-minimal encodings,
// which re-encode canonically.)
func FuzzSessionFrame(f *testing.F) {
	ack, err := wire.Encode(&wire.Ack{OK: true, Code: 200})
	if err != nil {
		f.Fatal(err)
	}
	seedFrames := []Frame{
		{Kind: KindHello, Payload: EncodeHello(Hello{Proto: 1, Token: "tok", Caps: SupportedCaps})},
		{Kind: KindWelcome, Payload: EncodeWelcome(Welcome{Proto: 1, Caps: []string{"batch"}, Resumed: true})},
		{Kind: KindRequest, ID: 1, Payload: ack},
		{Kind: KindReply, ID: 2, Payload: ack},
		{Kind: KindPush, ID: 3, Payload: ack},
	}
	for _, p := range cuts(EncodeHello(seedHello)) {
		seedFrames = append(seedFrames, Frame{Kind: KindHello, Payload: p})
	}
	for _, p := range cuts(EncodeWelcome(seedWelcome)) {
		seedFrames = append(seedFrames, Frame{Kind: KindWelcome, Payload: p})
	}
	for _, sf := range seedFrames {
		buf, err := EncodeFrame(sf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		if err != nil {
			return // rejected input: only requirement is no panic
		}
		if n < 5 || n > len(b) {
			t.Fatalf("consumed %d bytes of %d", n, len(b))
		}
		re, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		fr2, n2, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if n2 != len(re) || fr2.Kind != fr.Kind || fr2.ID != fr.ID || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("frame not a round-trip fixpoint: %+v vs %+v", fr, fr2)
		}
		switch fr.Kind {
		case KindHello:
			if h, err := DecodeHello(fr.Payload); err == nil {
				h2, err := DecodeHello(EncodeHello(h))
				if err != nil || !reflect.DeepEqual(h, h2) {
					t.Fatalf("hello not a fixpoint: %+v vs %+v (%v)", h, h2, err)
				}
			}
		case KindWelcome:
			if w, err := DecodeWelcome(fr.Payload); err == nil {
				w2, err := DecodeWelcome(EncodeWelcome(w))
				if err != nil || !reflect.DeepEqual(w, w2) {
					t.Fatalf("welcome not a fixpoint: %+v vs %+v (%v)", w, w2, err)
				}
			}
		}
	})
}
