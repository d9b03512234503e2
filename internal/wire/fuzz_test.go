package wire

// FuzzDecode throws arbitrary bytes at the frame decoder. The decoder
// faces the open network (phones upload over plain HTTP), so it must
// never panic, never allocate proportionally to a hostile length prefix,
// and round-trip every frame it does accept.

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// fuzzSeeds returns one well-formed instance of every message type, so the
// fuzzer starts from frames that reach deep into each decodePayload.
func fuzzSeeds() []Message {
	return []Message{
		&Participate{
			UserID: "alice", Token: "tok-1", AppID: "app-sb",
			Loc:    Location{Lat: 43.0413, Lon: -76.1350, Alt: 120},
			Budget: 17, LeaveAfterSec: 3600,
		},
		&Schedule{
			TaskID: "task-1", AppID: "app-sb", UserID: "alice",
			Script: "return 1", AtUnix: []int64{1384513200, 1384513800},
		},
		&DataUpload{
			TaskID: "task-1", AppID: "app-sb", UserID: "alice",
			ReportID: "tok-1/task-1/1",
			Series: []SensorSeries{
				{Sensor: "temperature", Samples: []SensorSample{
					{AtUnixMilli: 1384513200000, WindowMilli: 5000, Readings: []float64{70.5, 71}},
				}},
			},
			Track: []GeoPoint{{AtUnixMilli: 1384513200000, Lat: 43.04, Lon: -76.13, Alt: 120}},
		},
		&DataUploadBatch{Uploads: []DataUpload{
			{TaskID: "task-1", AppID: "app-sb", UserID: "alice", ReportID: "tok-1/task-1/2"},
			{TaskID: "task-2", AppID: "app-th", UserID: "bob",
				Series: []SensorSeries{{Sensor: "wifi", Samples: []SensorSample{
					{AtUnixMilli: 1384513260000, WindowMilli: 1000, Readings: []float64{-52}},
				}}}},
		}},
		&Ack{OK: true, Code: 200, Message: "stored", Payload: []byte{1, 2, 3}},
		&Leave{UserID: "alice", AppID: "app-sb"},
		&Ping{Token: "tok-1"},
		&RankRequest{UserID: "alice", Category: "coffee-shop",
			Prefs: []PrefEntry{{Feature: "noise", Kind: 2, Weight: 2}}},
		&RankRequest{UserID: "bob", Category: "coffee-shop", TopK: 10,
			Prefs: []PrefEntry{{Feature: "temperature", Kind: 1, Value: 73, Weight: 5}}},
		&RankResponse{Category: "coffee-shop",
			Features: []string{"temperature", "noise"},
			Ranked: []RankedPlace{
				{Place: "Starbucks", FeatureValues: []float64{72.5, 0.2}},
			}},
		&RankResponse{Category: "coffee-shop", Epoch: 3, Stale: true,
			Features: []string{"noise"},
			Ranked:   []RankedPlace{{Place: "Freedom of Espresso", FeatureValues: []float64{0.4}}}},
		&ReplPull{FollowerID: "node-2", FromLSN: 17, MaxRecords: 64, MaxBytes: 1 << 16},
		&ReplRecords{FirstLSN: 17, LeaderLSN: 19,
			Records: [][]byte{{0x01, 0x02, 0x03}, []byte(`{"op":"feat"}`)}},
		&ReplRecords{FirstLSN: 3, LeaderLSN: 40, Compacted: true},
		&EpochInvalidate{Category: "coffee-shop", Epoch: 7},
		&SnapPull{FollowerID: "node-2", Offset: 4096, MaxBytes: 64 << 10},
		&SnapChunk{WalLSN: 40, TotalSize: 8, Offset: 4,
			Data: []byte{0x7b, 0x22, 0x76, 0x22}, Done: false},
		&SnapChunk{WalLSN: 40, TotalSize: 8, Offset: 4,
			Data: []byte{0x31, 0x32, 0x7d, 0x0a}, Done: true},
		&ClusterHello{Node: "shard-a-1", Role: "leader", AppliedLSN: 77},
	}
}

func FuzzDecode(f *testing.F) {
	for _, m := range fuzzSeeds() {
		frame, err := Encode(m)
		if err != nil {
			f.Fatalf("seeding %s: %v", m.Type(), err)
		}
		f.Add(frame)
		// Version-2 (traced) variant of every seed, so the fuzzer reaches
		// the request-id branch of the decoder from the first corpus.
		traced, err := EncodeTraced(m, "fuzz-req-1")
		if err != nil {
			f.Fatalf("seeding traced %s: %v", m.Type(), err)
		}
		f.Add(traced)
		// Mutated variants: flipped type byte and truncated tail give the
		// fuzzer a head start on the framing checks.
		if len(frame) > 8 {
			bad := append([]byte(nil), frame...)
			bad[4] ^= 0xff
			f.Add(bad)
			f.Add(frame[:len(frame)-3])
			f.Add(traced[:len(traced)-3])
		}
		// Payload cuts under a valid CRC reach the payload decoder's own
		// truncation handling.
		for _, cut := range truncatedFrames(m) {
			f.Add(cut)
		}
	}
	// Two more uploads, one larger and one smaller than the seed above, so
	// the reused decode below grows and shrinks every buffer.
	for _, m := range []Message{
		&DataUpload{
			TaskID: "task-1", AppID: "app-sb", UserID: "carol",
			ReportID: "tok-3/task-1/1",
			Series: []SensorSeries{
				{Sensor: "temperature", Samples: []SensorSample{
					{AtUnixMilli: 1384513205000, WindowMilli: 5000, Readings: []float64{70.5, 71, 69.75}},
					{AtUnixMilli: 1384513210000, WindowMilli: 5000, Readings: []float64{70}},
				}},
				{Sensor: "accelerometer", Samples: []SensorSample{
					{AtUnixMilli: 1384513205000, WindowMilli: 100, Readings: []float64{0.1, -9.8, 0.3, 0.2}},
				}},
			},
		},
		&DataUpload{TaskID: "task-2", AppID: "app-th", UserID: "bob",
			Series: []SensorSeries{{Sensor: "wifi"}},
			Track: []GeoPoint{
				{AtUnixMilli: 1384513260000, Lat: 43.05, Lon: -76.14, Alt: 118},
				{AtUnixMilli: 1384513261000, Lat: 43.06, Lon: -76.15, Alt: 119},
			}},
	} {
		frame, err := Encode(m)
		if err != nil {
			f.Fatalf("seeding %s: %v", m.Type(), err)
		}
		f.Add(frame)
	}
	// reused carries each input's DecodeUpload into the next one, so every
	// input decodes over whatever the previous one left behind.
	var reused DataUpload
	f.Fuzz(func(t *testing.T, data []byte) {
		m, requestID, err := DecodeTraced(data)
		// DecodeUpload into a reused message must agree with Decode: the
		// same upload field for field, and on a frame Decode refuses — or
		// one of another type — an error, the same one for an upload frame.
		upErr := DecodeUpload(data, &reused)
		if up, ok := m.(*DataUpload); ok {
			if upErr != nil {
				t.Fatalf("Decode accepted an upload DecodeUpload refused: %v", upErr)
			}
			if !sameUpload(up, &reused) {
				t.Fatalf("reused decode differs:\n Decode       %+v\n DecodeUpload %+v", up, &reused)
			}
		} else if upErr == nil {
			t.Fatalf("DecodeUpload accepted a frame Decode took as %v (error %v)", m, err)
		} else if err != nil && (len(data) <= len(magic) || MsgType(data[len(magic)]) == TypeDataUpload) && upErr.Error() != err.Error() {
			t.Fatalf("DecodeUpload refused with %q, Decode with %q", upErr, err)
		}
		if err != nil {
			if m != nil {
				t.Fatalf("DecodeTraced returned both a message and error %v", err)
			}
			return
		}
		if len(requestID) > MaxRequestIDLen {
			t.Fatalf("accepted oversized request id (%d bytes)", len(requestID))
		}
		// Anything accepted must re-encode — carrying its request id — and
		// the re-encoded frame must decode to an identical frame again
		// (full round-trip fixpoint, both envelope versions).
		out, err := EncodeTraced(m, requestID)
		if err != nil {
			t.Fatalf("re-encoding accepted %s: %v", m.Type(), err)
		}
		m2, id2, err := DecodeTraced(out)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", m.Type(), err)
		}
		if id2 != requestID {
			t.Fatalf("request id changed across round trip: %q vs %q", requestID, id2)
		}
		out2, err := EncodeTraced(m2, id2)
		if err != nil {
			t.Fatalf("second re-encode of %s: %v", m.Type(), err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("%s is not a round-trip fixpoint:\n first %x\nsecond %x", m.Type(), out, out2)
		}
	})
}

// sameUpload compares two uploads field for field, floats by their bits
// and slices by nil-ness as well as contents.
func sameUpload(a, b *DataUpload) bool {
	if a.TaskID != b.TaskID || a.AppID != b.AppID || a.UserID != b.UserID || a.ReportID != b.ReportID ||
		(a.Series == nil) != (b.Series == nil) || len(a.Series) != len(b.Series) ||
		(a.Track == nil) != (b.Track == nil) || len(a.Track) != len(b.Track) {
		return false
	}
	for i, as := range a.Series {
		bs := b.Series[i]
		if as.Sensor != bs.Sensor || (as.Samples == nil) != (bs.Samples == nil) || len(as.Samples) != len(bs.Samples) {
			return false
		}
		for j, x := range as.Samples {
			y := bs.Samples[j]
			if x.AtUnixMilli != y.AtUnixMilli || x.WindowMilli != y.WindowMilli ||
				(x.Readings == nil) != (y.Readings == nil) || !slices.EqualFunc(x.Readings, y.Readings, sameBits) {
				return false
			}
		}
	}
	for i, p := range a.Track {
		q := b.Track[i]
		if p.AtUnixMilli != q.AtUnixMilli || !sameBits(p.Lat, q.Lat) || !sameBits(p.Lon, q.Lon) || !sameBits(p.Alt, q.Alt) {
			return false
		}
	}
	return true
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
