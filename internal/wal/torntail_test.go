package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// segmentBytes builds a segment image: header (magic + firstLSN) followed
// by one framed record per payload.
func segmentBytes(firstLSN uint64, payloads ...string) []byte {
	b := make([]byte, 0, headerSize)
	b = append(b, magic[:]...)
	b = binary.LittleEndian.AppendUint64(b, firstLSN)
	for _, p := range payloads {
		b = AppendRecord(b, []byte(p))
	}
	return b
}

// TestTornTailClassification is the table-driven crash-residue taxonomy:
// every way a segment tail can end — clean boundary, preallocated zeros,
// a record cut mid-header or mid-payload, a mangled length field, bit rot
// mid-segment — and whether the scanner calls it torn (crash residue,
// recover silently) or corrupt (must be reported).
func TestTornTailClassification(t *testing.T) {
	base := segmentBytes(1, "alpha", "beta", "gamma")
	recOff := func(n int) int64 { // offset of record n (0-based)
		off := int64(headerSize)
		for _, p := range []string{"alpha", "beta", "gamma"}[:n] {
			off += recordSize([]byte(p))
		}
		return off
	}

	cases := []struct {
		name  string
		bytes func() []byte
		// expectations
		records   int
		torn      bool
		corruptAt int64 // -1 means no corruption
	}{
		{
			name:      "truncation exactly at record boundary",
			bytes:     func() []byte { return append([]byte(nil), base...) },
			records:   3,
			corruptAt: -1,
		},
		{
			name: "zero-length tail (preallocated zeros)",
			bytes: func() []byte {
				b := append([]byte(nil), base...)
				return append(b, make([]byte, 256)...)
			},
			records:   3,
			corruptAt: -1,
		},
		{
			name: "partial header at tail",
			bytes: func() []byte {
				b := append([]byte(nil), base...)
				// 3 bytes of a fourth record's header, then EOF.
				return append(b, 0xA1, 0xB2, 0xC3)
			},
			records:   3,
			torn:      true,
			corruptAt: -1,
		},
		{
			name: "partial payload at EOF",
			bytes: func() []byte {
				b := append([]byte(nil), base...)
				b = AppendRecord(b, []byte("delta-delta-delta"))
				// The crash cut the last record's payload short.
				return b[:len(b)-10]
			},
			records:   3,
			torn:      true,
			corruptAt: -1,
		},
		{
			name: "partial payload inside preallocated zeros",
			bytes: func() []byte {
				b := append([]byte(nil), base...)
				b = AppendRecord(b, []byte("delta-delta-delta"))
				cut := append(b[:len(b)-10:len(b)-10], make([]byte, 200)...)
				return cut
			},
			records:   3,
			torn:      true,
			corruptAt: -1,
		},
		{
			name: "garbage length field, nothing beyond",
			bytes: func() []byte {
				b := append([]byte(nil), base...)
				var hdr [recHdrSize]byte
				binary.LittleEndian.PutUint32(hdr[0:4], uint32(MaxRecord)+7)
				b = append(b, hdr[:]...)
				return append(b, make([]byte, 64)...)
			},
			records:   3,
			torn:      true,
			corruptAt: -1,
		},
		{
			name: "garbage length field with data beyond",
			bytes: func() []byte {
				b := append([]byte(nil), base...)
				var hdr [recHdrSize]byte
				binary.LittleEndian.PutUint32(hdr[0:4], uint32(MaxRecord)+7)
				b = append(b, hdr[:]...)
				b = append(b, make([]byte, 64)...)
				return append(b, 0xFF) // bit rot, not a tear
			},
			records:   3,
			corruptAt: recOff(3),
		},
		{
			name: "CRC mismatch mid-segment",
			bytes: func() []byte {
				b := append([]byte(nil), base...)
				// Flip one payload byte of "beta": records after it still
				// exist, so this is rot, never a tear.
				b[recOff(1)+recHdrSize] ^= 0xFF
				return b
			},
			records:   1,
			corruptAt: recOff(1),
		},
		{
			name: "stray data after zero-length frame",
			bytes: func() []byte {
				b := append([]byte(nil), base...)
				b = append(b, make([]byte, recHdrSize)...) // zero length, zero CRC
				return append(b, "junk"...)
			},
			records:   3,
			corruptAt: recOff(3),
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "000001.wal")
			if err := os.WriteFile(path, tc.bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			scan, err := scanSegment(path)
			if err != nil {
				t.Fatalf("scanSegment: %v", err)
			}
			if scan.Records != tc.records {
				t.Errorf("records = %d, want %d", scan.Records, tc.records)
			}
			if scan.Torn != tc.torn {
				t.Errorf("torn = %t, want %t", scan.Torn, tc.torn)
			}
			switch {
			case tc.corruptAt < 0 && scan.Corrupt != nil:
				t.Errorf("unexpected corruption: %+v", scan.Corrupt)
			case tc.corruptAt >= 0 && scan.Corrupt == nil:
				t.Errorf("corruption at %d not detected", tc.corruptAt)
			case tc.corruptAt >= 0 && scan.Corrupt.Offset != tc.corruptAt:
				t.Errorf("corruption at %d, want %d", scan.Corrupt.Offset, tc.corruptAt)
			}

			// The cursor must classify every shape as the whole-file walk
			// does, wherever its chunk edges fall.
			for _, chunk := range []int64{1, 5, 13, 64 << 10} {
				setChunkSize(t, chunk)
				matchOracle(t, dir, 0, 2)
			}

			// Replay must mirror the classification: torn tails replay
			// silently up to the tear, corruption refuses the whole replay.
			var got int
			stats, err := Replay(dir, 0, func(lsn uint64, payload []byte) error {
				got++
				return nil
			})
			if tc.corruptAt >= 0 {
				if err == nil {
					t.Fatalf("replay accepted a corrupt segment")
				}
				return
			}
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if got != tc.records || stats.Records != tc.records {
				t.Errorf("replayed %d (stats %d), want %d", got, stats.Records, tc.records)
			}
			if tc.torn && stats.TornBytes == 0 {
				t.Errorf("torn tail not reflected in stats: %+v", stats)
			}
			if !tc.torn && stats.TornBytes != 0 {
				t.Errorf("phantom torn bytes: %+v", stats)
			}
		})
	}
}

// TestTornBoundarySegmentPair pins the multi-segment boundary case: a
// sealed segment that ends exactly at a record boundary followed by a
// torn final segment replays everything good and reports only the tear.
func TestTornBoundarySegmentPair(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "000001.wal"),
		segmentBytes(1, "one", "two"), 0o644); err != nil {
		t.Fatal(err)
	}
	torn := segmentBytes(3, "three", "four-four-four")
	torn = torn[:len(torn)-5]
	if err := os.WriteFile(filepath.Join(dir, "000002.wal"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	stats, err := Replay(dir, 0, func(lsn uint64, payload []byte) error {
		lsns = append(lsns, lsn)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(lsns) != 3 || lsns[0] != 1 || lsns[2] != 3 {
		t.Fatalf("replayed lsns %v, want [1 2 3]", lsns)
	}
	if stats.TornBytes == 0 {
		t.Fatalf("tear on the final segment not reported: %+v", stats)
	}
	segs, err := Inspect(dir)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if len(segs) != 2 || segs[0].Torn || !segs[1].Torn {
		t.Fatalf("inspect = %+v, want tear only on the second segment", segs)
	}
	for _, chunk := range []int64{1, 5, 13, 64 << 10} {
		setChunkSize(t, chunk)
		matchOracle(t, dir, 0, 1, 2, 3)
	}
}
