package store

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// Heap budget of one stored report at the ingest benchmark's shape, beyond
// its body: the row, the RequestID and ReportID bytes, the window entry and
// the slack of the slabs and chunks that hold them.
const (
	reportHeapBytes   = 96
	reportHeapObjects = 0.05
)

// liveHeap is HeapAlloc and HeapObjects after two forced collections.
func liveHeap() (bytes, objects int64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc), int64(ms.HeapObjects)
}

// TestStoredReportHeap gates what a stored report costs the heap at the
// ingest benchmark's shape — 64 apps, one report per Ingest, 153-byte
// bodies, a ReportID and a RequestID each — on every path that fills the
// tables: live ingest, checkpoint + reopen (restore and WAL replay), and a
// follower fed by ApplyReplicated.
func TestStoredReportHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting")
	}
	const apps, perApp, bodyLen = 64, 690, 153
	const reports = apps * perApp
	body := make([]byte, bodyLen)
	check := func(path string, before, beforeObjs int64) {
		t.Helper()
		after, afterObjs := liveHeap()
		perReport := float64(after-before)/reports - bodyLen
		objs := float64(afterObjs-beforeObjs) / reports
		t.Logf("%s: %.1f B beyond the body and %.3f heap objects per stored report", path, perReport, objs)
		if perReport > reportHeapBytes || objs > reportHeapObjects {
			t.Errorf("%s: a stored report costs %.1f B beyond its body in %.3f objects, budget %d B in %.2f",
				path, perReport, objs, reportHeapBytes, reportHeapObjects)
		}
	}

	dir := t.TempDir()
	b := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	st, err := b.Open()
	if err != nil {
		t.Fatal(err)
	}
	before, beforeObjs := liveHeap()
	for k := 0; k < perApp; k++ {
		for a := 0; a < apps; a++ {
			n := k*apps + a
			body[0], body[1], body[2] = byte(n), byte(n>>8), byte(n>>16)
			if _, err := st.Ingest(fmt.Sprintf("app-%02d", a), [][]byte{body}, IngestOptions{
				Received:  now.Add(time.Duration(n) * time.Millisecond),
				RequestID: "op:" + strconv.Itoa(n&1) + "-" + strconv.Itoa(n) + "/0",
				ReportIDs: []string{strconv.Itoa(n&1) + "-" + strconv.Itoa(n)},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("live ingest", before, beforeObjs)
	runtime.KeepAlive(st)

	fb := NewDurableBackend(t.TempDir(), WithSnapshotInterval(time.Hour))
	follower, err := fb.Open()
	if err != nil {
		t.Fatal(err)
	}
	before, beforeObjs = liveHeap()
	for lsn := uint64(0); ; {
		recs, err := b.WAL().ReadAfter(lsn, 1024, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, rec := range recs {
			lsn++
			if err := follower.ApplyReplicated(lsn, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("ApplyReplicated", before, beforeObjs)
	runtime.KeepAlive(follower)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	fb, follower = nil, nil

	// Half the reports in the checkpoint, half in the WAL tail.
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b, st = nil, nil
	b2 := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	before, beforeObjs = liveHeap()
	reopened, err := b2.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if n := reopened.UploadCount(); n != reports {
		t.Fatalf("reopened store holds %d reports, want %d", n, reports)
	}
	check("checkpoint + reopen", before, beforeObjs)
	runtime.KeepAlive(reopened)
}

// Heap budget of one stored place at the rank benchmark's shape: four
// feature cells, the place's name, its row index slots and change stamp.
// Measured 182.8–211.2 B in 1.018–1.023 objects.
const (
	placeHeapBytes   = 243
	placeHeapObjects = 1.15
)

// TestStoredPlaceHeap gates what a place in the feature table costs the
// heap — 10 000 places of one category, four features each — on every
// path that fills the table: live upserts, a follower fed by
// ApplyReplicated, and checkpoint + reopen with half the places in the
// snapshot and half in the WAL tail.
func TestStoredPlaceHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting")
	}
	const places = 10000
	features := [...]string{"crowd", "noise", "temp", "wifi"}
	fill := func(st *Store, from, to int) {
		t.Helper()
		for p := from; p < to; p++ {
			for j, f := range features {
				if err := st.UpsertFeature(FeatureRow{Category: "cafe", Place: fmt.Sprintf("place-%05d", p), Feature: f,
					Value: float64(p*len(features) + j), Samples: 3, Updated: now.Add(time.Duration(p) * time.Second)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	check := func(path string, before, beforeObjs int64) {
		t.Helper()
		after, afterObjs := liveHeap()
		perPlace := float64(after-before) / places
		objs := float64(afterObjs-beforeObjs) / places
		t.Logf("%s: %.1f B in %.3f heap objects per stored place", path, perPlace, objs)
		if perPlace > placeHeapBytes || objs > placeHeapObjects {
			t.Errorf("%s: a stored place costs %.1f B in %.3f objects, budget %d B in %.2f",
				path, perPlace, objs, placeHeapBytes, placeHeapObjects)
		}
	}

	b := NewDurableBackend(t.TempDir(), WithSnapshotInterval(time.Hour))
	st, err := b.Open()
	if err != nil {
		t.Fatal(err)
	}
	before, beforeObjs := liveHeap()
	fill(st, 0, places)
	check("live upserts", before, beforeObjs)

	fb := NewDurableBackend(t.TempDir(), WithSnapshotInterval(time.Hour))
	follower, err := fb.Open()
	if err != nil {
		t.Fatal(err)
	}
	before, beforeObjs = liveHeap()
	for lsn := uint64(0); ; {
		recs, err := b.WAL().ReadAfter(lsn, 1024, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, rec := range recs {
			lsn++
			if err := follower.ApplyReplicated(lsn, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("ApplyReplicated", before, beforeObjs)
	runtime.KeepAlive(follower)
	for _, c := range []*DurableBackend{fb, b} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	b, st, fb, follower = nil, nil, nil, nil

	// Half the places in the checkpoint, half in the WAL tail.
	dir := t.TempDir()
	b = NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	if st, err = b.Open(); err != nil {
		t.Fatal(err)
	}
	fill(st, 0, places/2)
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fill(st, places/2, places)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b, st = nil, nil
	b2 := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	before, beforeObjs = liveHeap()
	reopened, err := b2.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if n := len(reopened.FeaturesByCategory("cafe")); n != places*len(features) {
		t.Fatalf("reopened store holds %d cells, want %d", n, places*len(features))
	}
	check("checkpoint + reopen", before, beforeObjs)
	runtime.KeepAlive(reopened)
}

// TestFeatureReadsAllocateNoRow: a row is materialised from the table
// without an allocation of its own, one at a time and a category at once.
func TestFeatureReadsAllocateNoRow(t *testing.T) {
	s := New()
	for p := 0; p < 1000; p++ {
		for _, f := range []string{"crowd", "noise", "temp", "wifi"} {
			if err := s.UpsertFeature(FeatureRow{Category: "cafe", Place: fmt.Sprintf("place-%04d", p), Feature: f,
				Value: float64(p), Samples: 3, Updated: now}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = s.Feature("cafe", "place-0500", "temp") }); n != 0 {
		t.Errorf("Feature allocates %.1f times", n)
	}
	// The result, the row order and the one row handed to each visit.
	if n := testing.AllocsPerRun(10, func() { _ = s.FeaturesByCategory("cafe") }); n > 3 {
		t.Errorf("FeaturesByCategory of 4 000 rows allocates %.0f times", n)
	}
}

// TestDrainedBodiesAreFreed: a memory store keeps nothing of a drained
// report but its ReportID in the window, so the bodies become garbage.
func TestDrainedBodiesAreFreed(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting")
	}
	const reports, bodyLen = 256, 16 << 10
	s := New()
	s.Ingest("warm", [][]byte{{1}}, IngestOptions{ReportIDs: []string{"warm"}})
	s.DrainUploads()
	before, _ := liveHeap()
	for i := 0; i < reports; i++ {
		body := make([]byte, bodyLen)
		body[0] = byte(i)
		if _, err := s.Ingest(fmt.Sprintf("app-%d", i%8), [][]byte{body, body[:100]}, IngestOptions{
			Received: now, ReportIDs: []string{fmt.Sprintf("r-%d", i), fmt.Sprintf("s-%d", i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.DrainUploads()); got != 2*reports {
		t.Fatalf("drained %d reports, stored %d", got, 2*reports)
	}
	after, _ := liveHeap()
	if held := after - before; held > 64<<10 {
		t.Fatalf("after the drain the store still holds %d KB; %d KB of bodies were drained", held>>10, reports*bodyLen>>10)
	}
	if !s.ReportSeen("app-3", "r-3") || !s.ReportSeen("app-3", "s-3") {
		t.Fatal("the drain dropped window entries")
	}
}

// Heap budget of one stored application at the rank benchmark's shape:
// its row, its ID and index slots, its place's name and row in the
// category's feature table, and its share of the category's app list.
// Measured 142.5–143.5 B in 2.018–2.023 objects.
const (
	appHeapBytes   = 165
	appHeapObjects = 2.33
)

// TestStoredAppHeap gates what an application costs the heap — 10 000
// apps of one category, one place each, one creator and one script — on
// every path that fills the apps table: live PutApp, a follower fed by
// ApplyReplicated, and checkpoint + reopen with half the apps in the
// snapshot and half in the WAL tail.
func TestStoredAppHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting")
	}
	const apps = 10000
	fill := func(st *Store, from, to int) {
		t.Helper()
		for p := from; p < to; p++ {
			if err := st.PutApp(Application{ID: fmt.Sprintf("cafe-app-%05d", p), Creator: "bench", Category: "cafe",
				Place: fmt.Sprintf("cafe-place-%05d", p), Lat: 43 + float64(p)*1e-4, Lon: -76, RadiusM: 500,
				Script: "return 1", PeriodSec: 3 * 3600}); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(path string, before, beforeObjs int64) {
		t.Helper()
		after, afterObjs := liveHeap()
		perApp := float64(after-before) / apps
		objs := float64(afterObjs-beforeObjs) / apps
		t.Logf("%s: %.1f B in %.3f heap objects per stored application", path, perApp, objs)
		if perApp > appHeapBytes || objs > appHeapObjects {
			t.Errorf("%s: a stored application costs %.1f B in %.3f objects, budget %d B in %.2f",
				path, perApp, objs, appHeapBytes, appHeapObjects)
		}
	}

	b := NewDurableBackend(t.TempDir(), WithSnapshotInterval(time.Hour))
	st, err := b.Open()
	if err != nil {
		t.Fatal(err)
	}
	before, beforeObjs := liveHeap()
	fill(st, 0, apps)
	check("live PutApp", before, beforeObjs)

	fb := NewDurableBackend(t.TempDir(), WithSnapshotInterval(time.Hour))
	follower, err := fb.Open()
	if err != nil {
		t.Fatal(err)
	}
	before, beforeObjs = liveHeap()
	for lsn := uint64(0); ; {
		recs, err := b.WAL().ReadAfter(lsn, 1024, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, rec := range recs {
			lsn++
			if err := follower.ApplyReplicated(lsn, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("ApplyReplicated", before, beforeObjs)
	runtime.KeepAlive(follower)
	for _, c := range []*DurableBackend{fb, b} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	b, st, fb, follower = nil, nil, nil, nil

	// Half the apps in the checkpoint, half in the WAL tail.
	dir := t.TempDir()
	b = NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	if st, err = b.Open(); err != nil {
		t.Fatal(err)
	}
	fill(st, 0, apps/2)
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fill(st, apps/2, apps)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b, st = nil, nil
	b2 := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	before, beforeObjs = liveHeap()
	reopened, err := b2.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if n := len(reopened.AppsByCategory("cafe")); n != apps {
		t.Fatalf("reopened store holds %d apps, want %d", n, apps)
	}
	check("checkpoint + reopen", before, beforeObjs)
	runtime.KeepAlive(reopened)
}
