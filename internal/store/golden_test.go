package store

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/rows.golden")

// TestRowsGolden pins the bytes the store persists: every WAL record a
// fixed sequence of mutations logs (one per op tag; ingest twice, around a
// drain) and the sha256 of the snapshot of the resulting store, which
// holds one row of every table — NaN, ±Inf and −0 floats, a zero and a
// non-UTC time, a nil body, and one archived beside one pending upload.
// Regenerate (only for a deliberate format change) with
// `go test ./internal/store -run TestRowsGolden -update`.
func TestRowsGolden(t *testing.T) {
	b := NewDurableBackend(t.TempDir(), WithSnapshotInterval(time.Hour))
	st, err := b.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	east := time.FixedZone("east", 5*3600+1800)
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(st.PutUser(User{ID: "u1", Name: "Alice", Token: "tok-1"}))
	must(st.PutApp(Application{ID: "a1", Creator: "owner", Category: "coffee-shop", Place: "B&N",
		Lat: nan, Lon: math.Inf(-1), RadiusM: 60, Script: "return 1", PeriodSec: 10800}))
	must(st.PutParticipation(Participation{TaskID: "t1", UserID: "u1", Token: "tok-1", AppID: "a1",
		Budget: 17, Status: TaskRunning, Joined: now.In(east).Add(123456789), LeaveBy: now.Add(time.Hour),
		LastErr: "x\x00y"}))
	must(st.UpsertFeature(FeatureRow{Category: "coffee-shop", Place: "B&N", Feature: "noise",
		Value: math.Copysign(0, -1), Samples: 12}))
	must(st.PutSchedule(ScheduleRow{TaskID: "t1", AppID: "a1", UserID: "u1", AtUnix: []int64{-5, 0, 1 << 40}}))
	must(st.PutAnchor("a1", now.In(east)))
	_, err = st.Ingest("a1", [][]byte{{0xde, 0xad}}, IngestOptions{
		Received: now.In(east), RequestID: "req-1", ReportIDs: []string{"r1"}})
	must(err)
	if got := len(st.DrainUploads()); got != 1 {
		t.Fatalf("drained %d uploads, want 1", got)
	}
	_, err = st.Ingest("a1", [][]byte{nil}, IngestOptions{ReportIDs: []string{"r2"}})
	must(err)

	recs, err := b.WAL().ReadAfter(0, 0, 0)
	must(err)
	var out strings.Builder
	for i, rec := range recs {
		fmt.Fprintf(&out, "wal %d %s %x\n", i+1, tagName(rec[0]), rec)
	}
	snap, err := st.Snapshot()
	must(err)
	fmt.Fprintf(&out, "snapshot %d bytes sha256 %x\n", len(snap), sha256.Sum256(snap))
	got := out.String()

	const golden = "testdata/rows.golden"
	if *update {
		must(os.MkdirAll("testdata", 0o755))
		must(os.WriteFile(golden, []byte(got), 0o644))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run: go test ./internal/store -run TestRowsGolden -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("persisted bytes differ from %s:\ngot:\n%s", golden, got)
	}
}
