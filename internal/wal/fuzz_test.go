package wal

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzWALDecode feeds arbitrary bytes to the record decoder the way
// recovery does: walk the stream record by record. It must never panic,
// must never consume more bytes than exist, and must stop cleanly at the
// first torn or corrupt record.
func FuzzWALDecode(f *testing.F) {
	// Seed with a healthy stream, then damaged variants of it.
	var healthy []byte
	for _, p := range []string{"", "a", "hello world", string(make([]byte, 300))} {
		healthy = AppendRecord(healthy, []byte(p))
	}
	f.Add(healthy)
	f.Add(healthy[:len(healthy)-3]) // torn tail
	flipped := bytes.Clone(healthy)
	flipped[recHdrSize+1] ^= 0x01 // payload bit flip -> CRC mismatch
	f.Add(flipped)
	badLen := bytes.Clone(healthy)
	badLen[2] = 0xff // insane length field
	f.Add(badLen)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		for off <= len(data) {
			payload, n, err := DecodeRecord(data[off:])
			if err != nil {
				// Must stop at a classified error, never something else.
				if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("unclassified decode error at offset %d: %v", off, err)
				}
				if n != 0 {
					t.Fatalf("error with n=%d at offset %d, want 0", n, off)
				}
				return
			}
			if n == 0 {
				if len(data[off:]) != 0 {
					t.Fatalf("clean stop with %d bytes left at offset %d", len(data)-off, off)
				}
				return // clean end of stream
			}
			if n < recHdrSize || off+n > len(data) {
				t.Fatalf("decoder consumed %d bytes at offset %d of %d", n, off, len(data))
			}
			if len(payload) != n-recHdrSize {
				t.Fatalf("payload %d bytes for frame of %d", len(payload), n)
			}
			off += n
		}
	})
}
