package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b, err := Encode(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Type() != m.Type() {
		t.Fatalf("type changed: %v -> %v", m.Type(), got.Type())
	}
	return got
}

func TestParticipateRoundTrip(t *testing.T) {
	m := &Participate{
		UserID:        "alice",
		Token:         "device-token-123",
		AppID:         "coffee-shop-starbucks",
		Loc:           Location{Lat: 43.0481, Lon: -76.1474, Alt: 120.5},
		Budget:        17,
		LeaveAfterSec: 3600,
	}
	got := roundTrip(t, m).(*Participate)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip changed message:\n%+v\n%+v", m, got)
	}
}

func TestParticipateRejectsBadBudget(t *testing.T) {
	m := &Participate{UserID: "u", Token: "t", AppID: "a", Budget: -1}
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(b); err == nil {
		t.Fatal("negative budget must fail decode")
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	m := &Schedule{
		TaskID: "task-9",
		AppID:  "trail-cliff",
		UserID: "bob",
		Script: "local r = get_light_readings(5, 10)\nreturn r",
		AtUnix: []int64{1384707600, 1384707610, 1384707800},
	}
	got := roundTrip(t, m).(*Schedule)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip changed message:\n%+v\n%+v", m, got)
	}
}

func TestScheduleEmptyInstants(t *testing.T) {
	m := &Schedule{TaskID: "t", AppID: "a", UserID: "u", Script: "return 1"}
	got := roundTrip(t, m).(*Schedule)
	if len(got.AtUnix) != 0 {
		t.Fatalf("instants = %v", got.AtUnix)
	}
}

func TestDataUploadRoundTrip(t *testing.T) {
	m := &DataUpload{
		TaskID:   "task-1",
		AppID:    "app-1",
		UserID:   "chris",
		ReportID: "tok-1/task-1/7",
		Series: []SensorSeries{
			{
				Sensor: "temperature",
				Samples: []SensorSample{
					{AtUnixMilli: 1000, WindowMilli: 5000, Readings: []float64{46.2, 46.5}},
					{AtUnixMilli: 2000, WindowMilli: 5000, Readings: []float64{47.0}},
				},
			},
			{
				Sensor: "accelerometer",
				Samples: []SensorSample{
					{AtUnixMilli: 1500, WindowMilli: 2000, Readings: []float64{-0.3, 0.2, 0.9, math.Pi}},
				},
			},
		},
		Track: []GeoPoint{
			{AtUnixMilli: 1000, Lat: 43.05, Lon: -76.14, Alt: 120},
			{AtUnixMilli: 2000, Lat: 43.06, Lon: -76.15, Alt: 125},
		},
	}
	got := roundTrip(t, m).(*DataUpload)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip changed message:\n%+v\n%+v", m, got)
	}
}

func TestAckRoundTripWithNestedPayload(t *testing.T) {
	inner, err := Encode(&Schedule{TaskID: "t1", AppID: "a", UserID: "u", Script: "return 0"})
	if err != nil {
		t.Fatal(err)
	}
	m := &Ack{OK: true, Code: 200, Message: "scheduled", Payload: inner}
	got := roundTrip(t, m).(*Ack)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip changed message")
	}
	nested, err := Decode(got.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if nested.(*Schedule).TaskID != "t1" {
		t.Fatal("nested schedule corrupted")
	}
}

func TestLeavePingRoundTrip(t *testing.T) {
	l := roundTrip(t, &Leave{UserID: "u", AppID: "a"}).(*Leave)
	if l.UserID != "u" || l.AppID != "a" {
		t.Fatalf("leave = %+v", l)
	}
	p := roundTrip(t, &Ping{Token: "tok"}).(*Ping)
	if p.Token != "tok" {
		t.Fatalf("ping = %+v", p)
	}
}

func TestRankRequestResponseRoundTrip(t *testing.T) {
	req := &RankRequest{
		Category: "hiking-trail",
		UserID:   "alice",
		Prefs: []PrefEntry{
			{Feature: "roughness", Kind: 3, Weight: 5},
			{Feature: "temperature", Kind: 1, Value: 73, Weight: 2},
		},
	}
	gotReq := roundTrip(t, req).(*RankRequest)
	if !reflect.DeepEqual(req, gotReq) {
		t.Fatalf("rank request changed:\n%+v\n%+v", req, gotReq)
	}
	// TopK rides as an optional trailing field: it must round-trip when
	// set, and a TopK=0 request must stay byte-identical to the pre-TopK
	// frame layout (so old decoders accept it).
	req.TopK = 25
	gotReq = roundTrip(t, req).(*RankRequest)
	if gotReq.TopK != 25 {
		t.Fatalf("top-k lost in round trip: %+v", gotReq)
	}
	req.TopK = 0
	withDefault, err := Encode(req)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(withDefault)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.(*RankRequest).TopK != 0 {
		t.Fatalf("top-k default frame decoded as %+v", decoded)
	}
	resp := &RankResponse{
		Category: "hiking-trail",
		Features: []string{"temperature", "humidity"},
		Ranked: []RankedPlace{
			{Place: "Cliff Trail", FeatureValues: []float64{49, 50}},
			{Place: "Long Trail", FeatureValues: []float64{50, 55}},
		},
	}
	gotResp := roundTrip(t, resp).(*RankResponse)
	if !reflect.DeepEqual(resp, gotResp) {
		t.Fatalf("rank response changed:\n%+v\n%+v", resp, gotResp)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	b, err := Encode(&Ping{Token: "x"})
	if err != nil {
		t.Fatal(err)
	}
	b[0] = 'X'
	if _, err := Decode(b); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	b, err := Encode(&Ping{Token: "x"})
	if err != nil {
		t.Fatal(err)
	}
	b[3] = 3 // versions 1 and 2 are valid; 3 is from the future
	if _, err := Decode(b); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
}

func TestEncodeTracedRoundTrip(t *testing.T) {
	msg := &DataUpload{TaskID: "t1", AppID: "a1", UserID: "u1", ReportID: "r1"}
	b, err := EncodeTraced(msg, "req-42")
	if err != nil {
		t.Fatal(err)
	}
	if b[3] != 2 {
		t.Fatalf("traced frame version = %d, want 2", b[3])
	}
	m, id, err := DecodeTraced(b)
	if err != nil {
		t.Fatal(err)
	}
	if id != "req-42" {
		t.Fatalf("request id = %q, want req-42", id)
	}
	got, ok := m.(*DataUpload)
	if !ok || got.ReportID != "r1" || got.TaskID != "t1" {
		t.Fatalf("payload lost in traced round trip: %+v", m)
	}
	// Plain Decode accepts a traced frame, discarding the id.
	if m2, err := Decode(b); err != nil {
		t.Fatal(err)
	} else if m2.(*DataUpload).ReportID != "r1" {
		t.Fatalf("Decode on v2 frame: %+v", m2)
	}
}

func TestEncodeTracedEmptyIDIsVersion1(t *testing.T) {
	msg := &Ping{Token: "x"}
	plain, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := EncodeTraced(msg, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, traced) {
		t.Fatal("empty request id must produce the exact version-1 frame")
	}
	m, id, err := DecodeTraced(plain)
	if err != nil || id != "" {
		t.Fatalf("DecodeTraced(v1) = (%v, %q, %v)", m, id, err)
	}
}

func TestEncodeTracedRejectsOversizedID(t *testing.T) {
	long := strings.Repeat("x", MaxRequestIDLen+1)
	if _, err := EncodeTraced(&Ping{Token: "t"}, long); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("err = %v, want ErrBadPayload", err)
	}
	// A forged v2 frame declaring an oversized id must be rejected too,
	// not allocated.
	ok, err := EncodeTraced(&Ping{Token: "t"}, "req")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupting the id length varint breaks the CRC first; this pins that
	// some layer rejects it rather than silently misparsing.
	ok[5] ^= 0xFF
	if _, _, err := DecodeTraced(ok); err == nil {
		t.Fatal("corrupted id length accepted")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	b, err := Encode(&Participate{UserID: "u", Token: "t", AppID: "a", Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Flip every byte position one at a time; CRC (or magic) must catch it.
	for i := range b {
		c := bytes.Clone(b)
		c[i] ^= 0xFF
		if _, err := Decode(c); err == nil {
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	b, err := Encode(&Schedule{TaskID: "t", AppID: "a", UserID: "u", Script: "return 1", AtUnix: []int64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := Decode(b[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
}

func TestDecodeRejectsUnknownType(t *testing.T) {
	b, err := Encode(&Ping{Token: "x"})
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the type byte, keeping the CRC valid.
	if _, err := Decode(reframe(0xEE, payloadOf(b))); err == nil {
		t.Fatal("unknown type must fail")
	}
}

// reframe assembles a v1 frame with a valid CRC around a hand-built
// payload, so a test reaches the payload decoder past the checksum.
func reframe(typ MsgType, payload []byte) []byte {
	out := append(bytes.Clone(magic), byte(typ))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[len(magic):]))
}

// payloadOf returns the payload of a v1 frame.
func payloadOf(frame []byte) []byte { return frame[len(magic)+1 : len(frame)-4] }

// truncatedFrames re-frames, each with a valid CRC, every strict prefix of
// m's payload (index i holds the i-byte prefix) and, last, the payload
// plus one 0xff byte. (A 0x00 would be a valid explicit Stale=false after
// a RankResponse without the trailer.)
func truncatedFrames(m Message) [][]byte {
	frame, err := Encode(m)
	if err != nil {
		panic(err)
	}
	payload := payloadOf(frame)
	out := make([][]byte, 0, len(payload)+1)
	for cut := range payload {
		out = append(out, reframe(m.Type(), payload[:cut]))
	}
	return append(out, reframe(m.Type(), append(bytes.Clone(payload), 0xff)))
}

// withoutTrailer returns m minus its optional trailing field (RankRequest's
// TopK, RankResponse's Stale), or nil when m carries none.
func withoutTrailer(m Message) Message {
	switch m := m.(type) {
	case *RankRequest:
		if m.TopK > 0 {
			c := *m
			c.TopK = 0
			return &c
		}
	case *RankResponse:
		if m.Stale {
			c := *m
			c.Stale = false
			return &c
		}
	}
	return nil
}

// TestDecodeRejectsPayloadTruncation cuts the payload, not the frame: every
// strict prefix of every seed's payload and the payload plus one byte,
// each re-framed with a valid CRC so only the payload decoder can refuse
// it. Every case fails with the codec's error classes, except the two
// documented optional-trailer boundaries, which decode to the message
// minus its trailer.
func TestDecodeRejectsPayloadTruncation(t *testing.T) {
	for i, m := range fuzzSeeds() {
		boundary := -1
		stripped := withoutTrailer(m)
		if stripped != nil {
			frame, err := Encode(stripped)
			if err != nil {
				t.Fatal(err)
			}
			boundary = len(payloadOf(frame))
		}
		for cut, frame := range truncatedFrames(m) {
			got, err := Decode(frame)
			if cut == boundary {
				if err != nil || !reflect.DeepEqual(got, stripped) {
					t.Errorf("seed %d (%s) without its trailer = %+v, %v; want %+v", i, m.Type(), got, err, stripped)
				}
				continue
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadPayload) {
				t.Errorf("seed %d (%s) payload cut to %d bytes: err = %v, want ErrTruncated or ErrBadPayload", i, m.Type(), cut, err)
			}
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	b, err := Encode(&Ping{Token: "x"})
	if err != nil {
		t.Fatal(err)
	}
	// Splice extra payload bytes in and re-frame with a valid CRC.
	if _, err := Decode(reframe(TypePing, append(bytes.Clone(payloadOf(b)), 0x00, 0x01))); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

func TestEncodeNil(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Fatal("nil message must error")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	types := []MsgType{
		TypeParticipate, TypeSchedule, TypeDataUpload, TypeAck,
		TypeLeave, TypePing, TypeRankRequest, TypeRankResponse,
		TypeDataUploadBatch, MsgType(99),
	}
	seen := make(map[string]bool)
	for _, ty := range types {
		s := ty.String()
		if s == "" || seen[s] {
			t.Fatalf("type %d has bad/duplicate name %q", byte(ty), s)
		}
		seen[s] = true
	}
}

// Property: random DataUpload messages round-trip exactly.
func TestDataUploadRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &DataUpload{
			TaskID: randString(rng), AppID: randString(rng), UserID: randString(rng),
			ReportID: randString(rng),
		}
		for i := 0; i < rng.Intn(4); i++ {
			s := SensorSeries{Sensor: randString(rng)}
			for j := 0; j < rng.Intn(4); j++ {
				smp := SensorSample{
					AtUnixMilli: rng.Int63() - rng.Int63(),
					WindowMilli: rng.Int63n(10000),
				}
				for k := 0; k < rng.Intn(5); k++ {
					smp.Readings = append(smp.Readings, rng.NormFloat64()*100)
				}
				s.Samples = append(s.Samples, smp)
			}
			m.Series = append(m.Series, s)
		}
		for i := 0; i < rng.Intn(4); i++ {
			m.Track = append(m.Track, GeoPoint{
				AtUnixMilli: rng.Int63n(1 << 40),
				Lat:         rng.Float64()*180 - 90,
				Lon:         rng.Float64()*360 - 180,
				Alt:         rng.Float64() * 1000,
			})
		}
		b, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		return deepEqualUpload(m, got.(*DataUpload))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// deepEqualUpload compares treating nil and empty slices as equal.
func deepEqualUpload(a, b *DataUpload) bool {
	if a.TaskID != b.TaskID || a.AppID != b.AppID || a.UserID != b.UserID ||
		a.ReportID != b.ReportID {
		return false
	}
	if len(a.Series) != len(b.Series) || len(a.Track) != len(b.Track) {
		return false
	}
	for i := range a.Series {
		if a.Series[i].Sensor != b.Series[i].Sensor ||
			len(a.Series[i].Samples) != len(b.Series[i].Samples) {
			return false
		}
		for j := range a.Series[i].Samples {
			x, y := a.Series[i].Samples[j], b.Series[i].Samples[j]
			if x.AtUnixMilli != y.AtUnixMilli || x.WindowMilli != y.WindowMilli ||
				len(x.Readings) != len(y.Readings) {
				return false
			}
			for k := range x.Readings {
				if x.Readings[k] != y.Readings[k] {
					return false
				}
			}
		}
	}
	for i := range a.Track {
		if a.Track[i] != b.Track[i] {
			return false
		}
	}
	return true
}

func randString(rng *rand.Rand) string {
	n := rng.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(32 + rng.Intn(95))
	}
	return string(b)
}

// Property: Decode never panics on arbitrary bytes.
func TestDecodeFuzzSafety(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", b, r)
			}
		}()
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// And on frames with valid magic + CRC but garbage payloads.
	g := func(payload []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked: %v", r)
			}
		}()
		_, _ = Decode(reframe(TypeDataUpload, payload))
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeDataUpload(b *testing.B) {
	m := benchUpload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeDataUpload(b *testing.B) {
	m := benchUpload()
	buf, err := Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchUpload() *DataUpload {
	rng := rand.New(rand.NewSource(1))
	m := &DataUpload{TaskID: "task", AppID: "app", UserID: "user"}
	for s := 0; s < 4; s++ {
		series := SensorSeries{Sensor: "sensor"}
		for i := 0; i < 20; i++ {
			smp := SensorSample{AtUnixMilli: int64(i * 1000), WindowMilli: 5000}
			for j := 0; j < 10; j++ {
				smp.Readings = append(smp.Readings, rng.Float64())
			}
			series.Samples = append(series.Samples, smp)
		}
		m.Series = append(m.Series, series)
	}
	return m
}

// Property: every message type round-trips through Encode/Decode with
// randomized contents.
func TestAllMessageTypesRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		msgs := []Message{
			&Participate{
				UserID: randString(rng), Token: randString(rng), AppID: randString(rng),
				Loc:    Location{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180, Alt: rng.Float64() * 500},
				Budget: rng.Intn(1000), LeaveAfterSec: rng.Int63n(100000),
			},
			&Schedule{
				TaskID: randString(rng), AppID: randString(rng), UserID: randString(rng),
				Script: randString(rng), AtUnix: []int64{rng.Int63n(1 << 40), rng.Int63n(1 << 40)},
			},
			&Ack{OK: rng.Intn(2) == 0, Code: rng.Intn(600), Message: randString(rng)},
			&Leave{UserID: randString(rng), AppID: randString(rng)},
			&Ping{Token: randString(rng)},
			&RankRequest{
				Category: randString(rng), UserID: randString(rng),
				Prefs: []PrefEntry{{Feature: randString(rng), Kind: 1 + rng.Intn(4),
					Value: rng.NormFloat64() * 100, Weight: rng.Intn(6)}},
			},
			&RankResponse{
				Category: randString(rng),
				Features: []string{randString(rng)},
				Ranked: []RankedPlace{{Place: randString(rng),
					FeatureValues: []float64{rng.NormFloat64()}}},
			},
			&DataUploadBatch{Uploads: []DataUpload{
				{TaskID: randString(rng), AppID: randString(rng), UserID: randString(rng)},
				{TaskID: randString(rng), AppID: randString(rng), UserID: randString(rng),
					Track: []GeoPoint{{AtUnixMilli: rng.Int63n(1 << 41),
						Lat: rng.Float64(), Lon: rng.Float64(), Alt: rng.Float64()}}},
			}},
		}
		for _, m := range msgs {
			b, err := Encode(m)
			if err != nil {
				return false
			}
			got, err := Decode(b)
			if err != nil {
				return false
			}
			if got.Type() != m.Type() {
				return false
			}
			// Re-encode must be byte-identical (canonical encoding).
			b2, err := Encode(got)
			if err != nil || !bytes.Equal(b, b2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDataUploadBatchRoundTrip(t *testing.T) {
	m := &DataUploadBatch{Uploads: []DataUpload{
		{
			TaskID: "task-1", AppID: "app-1", UserID: "alice",
			Series: []SensorSeries{{Sensor: "temperature", Samples: []SensorSample{
				{AtUnixMilli: 1000, WindowMilli: 5000, Readings: []float64{70.5, 71.5}},
			}}},
		},
		{
			TaskID: "task-2", AppID: "app-2", UserID: "bob",
			Track: []GeoPoint{{AtUnixMilli: 2000, Lat: 43.0, Lon: -76.1, Alt: 120}},
		},
		{TaskID: "task-3", AppID: "app-1", UserID: "chris"},
	}}
	got := roundTrip(t, m).(*DataUploadBatch)
	if len(got.Uploads) != 3 {
		t.Fatalf("got %d uploads", len(got.Uploads))
	}
	if got.Uploads[0].Series[0].Samples[0].Readings[1] != 71.5 {
		t.Fatalf("sample readings corrupted: %+v", got.Uploads[0])
	}
	if got.Uploads[1].Track[0].Lon != -76.1 {
		t.Fatalf("track corrupted: %+v", got.Uploads[1])
	}
	if got.Uploads[2].TaskID != "task-3" || len(got.Uploads[2].Series) != 0 {
		t.Fatalf("empty upload corrupted: %+v", got.Uploads[2])
	}
}

func TestDataUploadBatchRejectsOversizedCount(t *testing.T) {
	// Hand-build a payload declaring more reports than MaxBatchReports:
	// the decoder must refuse before allocating.
	var w Writer
	w.PutUvarint(MaxBatchReports + 1)
	for i := 0; i < 8; i++ {
		w.buf = append(w.buf, 0) // a few empty-string bytes as filler
	}
	var m DataUploadBatch
	r := NewReader(w.Bytes())
	if m.decodePayload(r); r.Err() == nil {
		t.Fatal("oversized batch count must be rejected")
	}
}
