package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// FuzzSnapshotDecode feeds arbitrary bytes to Restore, as Open does with
// whatever a crash or bit rot left in snapshot.json. It must never
// panic, and anything it accepts must re-encode to an image that restores
// to the same tables (decode → encode → decode is stable).
func FuzzSnapshotDecode(f *testing.F) {
	s := New()
	populate(f, s)
	healthy, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	random, err := randomStore(rand.New(rand.NewSource(1))).Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	full := New() // one window full and evicting: its ring has wrapped
	for i := range reportWindowSize + 100 {
		full.uploadShards[shardIndex("a1")].window("a1").mark(fmt.Appendf(nil, "r-%d", i))
	}
	fullWindow, err := full.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	// A category whose feature rows came first, two apps on one place and
	// an app with no category.
	shapes := New()
	for _, err := range []error{
		shapes.UpsertFeature(FeatureRow{Category: "trail", Place: "ridge", Feature: "roughness", Value: 2, Updated: now}),
		shapes.PutApp(Application{ID: "a2", Category: "trail", Place: "ridge", Script: "return 1"}),
		shapes.PutApp(Application{ID: "a1", Category: "trail", Place: "ridge", Creator: "c"}),
		shapes.PutApp(Application{ID: "a3", Place: "nowhere"}),
	} {
		if err != nil {
			f.Fatal(err)
		}
	}
	appShapes, err := shapes.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(healthy)
	f.Add(fullWindow)
	f.Add(appShapes)
	f.Add(random[:min(len(random), 4096)])
	f.Add(healthy[:len(healthy)-3])
	flipped := bytes.Clone(healthy)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add([]byte(`{"users":[]}`))
	f.Add(snapMagic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Restore(data)
		if err != nil {
			if st != nil {
				t.Fatalf("Restore returned a store beside its error %v", err)
			}
			return
		}
		again, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		st2, err := Restore(again)
		if err != nil {
			t.Fatalf("re-encoded image does not restore: %v", err)
		}
		if d := diffTables(dumpTables(st), dumpTables(st2)); d != "" {
			t.Fatalf("decode → encode → decode moved a row: %s", d)
		}
	})
}

// encodeWALOp renders a decoded op the way the live store logs it.
func encodeWALOp(op *walOp) []byte {
	if op.tag != ingestTag {
		return op.appendTo(nil)
	}
	in := &op.ingest
	var ids []string
	for _, id := range in.ReportIDs {
		ids = append(ids, string(id))
	}
	return appendIngestRecord(nil, in.AppID, in.BaseSeq, in.Received, string(in.RequestID), in.Bodies, ids)
}

// FuzzWALOpDecode feeds arbitrary bytes to the WAL record decoder, as
// replay and ApplyReplicated do. It must never panic, and anything it
// accepts must re-encode to a record that decodes and re-encodes to the
// same bytes.
func FuzzWALOpDecode(f *testing.F) {
	for _, op := range []walOp{
		{tag: userTag, user: User{ID: "u1", Name: "Alice", Token: "tok"}},
		{tag: appTag, app: Application{ID: "a1", Category: "coffee-shop", Lat: 40.1, Lon: -88.2, RadiusM: 50, PeriodSec: 10800}},
		{tag: appTag, app: Application{ID: "a2", Creator: "c", Place: "nowhere", Script: "return 1"}}, // no category
		{tag: appTag, app: Application{ID: "a3", Category: "c", Place: "p"}},                          // the feature row's place
		{tag: partTag, part: Participation{TaskID: "t1", UserID: "u1", AppID: "a1", Budget: 17, Status: TaskRunning, Joined: now}},
		{tag: featTag, feat: FeatureRow{Category: "c", Place: "p", Feature: "f", Value: 73.5, Samples: 12, Updated: now}},
		{tag: schedTag, sched: ScheduleRow{TaskID: "t1", AppID: "a1", UserID: "u1", AtUnix: []int64{10, 20}}},
		{tag: anchorTag, anchor: AnchorRow{AppID: "a1", AnchorUnix: now.Unix()}},
		{tag: ingestTag, ingest: ingestOp{AppID: "a1", BaseSeq: 4, Received: now, RequestID: []byte("req"),
			Bodies: [][]byte{{1, 2}, nil}, ReportIDs: [][]byte{[]byte("r1"), nil}}},
	} {
		rec := encodeWALOp(&op)
		f.Add(rec)
		f.Add(rec[:len(rec)-1])
	}
	f.Add([]byte(`{"op":"user","user":{"id":"u1"}}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		op, err := decodeWALRecord(data, nil)
		if err != nil {
			return
		}
		enc := encodeWALOp(&op)
		op2, err := decodeWALRecord(enc, nil)
		if err != nil {
			t.Fatalf("re-encoded %s record does not decode: %v", tagName(op.tag), err)
		}
		if again := encodeWALOp(&op2); !bytes.Equal(enc, again) {
			t.Fatalf("decode → encode → decode moved a %s record:\n %x\n %x", tagName(op.tag), enc, again)
		}
	})
}
