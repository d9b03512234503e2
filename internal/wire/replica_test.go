package wire

import (
	"errors"
	"reflect"
	"testing"
)

func TestReplPullRoundTrip(t *testing.T) {
	for _, m := range []*ReplPull{
		{FollowerID: "node-b", FromLSN: 4096, MaxRecords: 256, MaxBytes: 1 << 20},
		{FollowerID: "node-b", FromLSN: 4096, PrevCRC: 0, HasPrevCRC: true},
		{FollowerID: "node-b", FromLSN: 2, PrevCRC: 0xffffffff, HasPrevCRC: true},
	} {
		got := roundTrip(t, m).(*ReplPull)
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("round trip changed message:\n%+v\n%+v", m, got)
		}
	}
}

func TestReplPullRejectsBadFields(t *testing.T) {
	cases := []struct {
		name string
		m    *ReplPull
	}{
		{"empty-follower", &ReplPull{FollowerID: "", FromLSN: 1}},
		{"lsn-zero", &ReplPull{FollowerID: "f", FromLSN: 0}},
		{"huge-batch", &ReplPull{FollowerID: "f", FromLSN: 1, MaxRecords: MaxReplBatchRecords + 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := Encode(tc.m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(b); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("decode = %v, want ErrBadPayload", err)
			}
		})
	}
}

func TestReplRecordsRoundTrip(t *testing.T) {
	m := &ReplRecords{
		FirstLSN:  101,
		LeaderLSN: 104,
		Records:   [][]byte{{0x01, 0xff, 0x00, 0x17}, []byte(`{"op":"user"}`), {0x7f}},
	}
	got := roundTrip(t, m).(*ReplRecords)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip changed message:\n%+v\n%+v", m, got)
	}
}

func TestReplRecordsHeartbeatRoundTrip(t *testing.T) {
	// Caught-up reply: no records, purely a heartbeat with the head LSN.
	m := &ReplRecords{FirstLSN: 55, LeaderLSN: 54}
	got := roundTrip(t, m).(*ReplRecords)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip changed message:\n%+v\n%+v", m, got)
	}
	c := &ReplRecords{FirstLSN: 2, LeaderLSN: 90, Compacted: true}
	if got := roundTrip(t, c).(*ReplRecords); !got.Compacted {
		t.Fatal("compacted flag lost in round trip")
	}
}

func TestReplRecordsRejectsEmptyRecord(t *testing.T) {
	// An empty WAL record is unrepresentable (Enqueue refuses them); a
	// frame claiming one is hostile or corrupt.
	var w Writer
	w.PutUvarint(1)  // FirstLSN
	w.PutUvarint(2)  // LeaderLSN
	w.PutBool(false) // Compacted
	w.PutUvarint(1)  // one record
	w.PutBytes(nil)  // ... of zero length
	frame := reframe(TypeReplRecords, w.Bytes())
	if _, err := Decode(frame); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("decode = %v, want ErrBadPayload", err)
	}
}
