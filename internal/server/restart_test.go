package server

import (
	"testing"
	"time"

	"sor/internal/store"
	"sor/internal/wire"
	"sor/internal/world"
)

// TestRestartFromSnapshot documents the restart semantics: durable state
// (users, apps, participations, schedules, features, raw uploads) survives
// through the store snapshot; the in-memory scheduling period state does
// not — uploads keep landing, features keep refining, ranking keeps
// working, but budget accounting for the interrupted period is
// best-effort, matching the paper's database-centric design.
func TestRestartFromSnapshot(t *testing.T) {
	s1, clock := newTestServer(t)
	if err := s1.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	sched := participate(t, s1, "alice", "tok-a", 6)

	// One upload lands before the crash and stays unprocessed.
	upload := &wire.DataUpload{
		TaskID: sched.TaskID, AppID: "app-sb", UserID: "alice",
		Series: []wire.SensorSeries{{
			Sensor: "temperature",
			Samples: []wire.SensorSample{
				{AtUnixMilli: t0.UnixMilli(), WindowMilli: 5000, Readings: []float64{72}},
			},
		}},
	}
	if _, err := s1.Handler()(nil, upload); err != nil {
		t.Fatal(err)
	}

	snap, err := s1.DB().Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new server over the restored store.
	db, err := store.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{DB: db, Now: clock.Now, Catalog: DefaultCatalog()})
	if err != nil {
		t.Fatal(err)
	}

	// The stored schedule is still served to the phone via ping.
	resp, err := s2.Handler()(nil, &wire.Ping{Token: "tok-a"})
	if err != nil {
		t.Fatal(err)
	}
	ack := resp.(*wire.Ack)
	if !ack.OK || len(ack.Payload) == 0 {
		t.Fatalf("ping after restart = %+v", ack)
	}
	inner, err := wire.Decode(ack.Payload)
	if err != nil {
		t.Fatal(err)
	}
	restored := inner.(*wire.Schedule)
	if restored.TaskID != sched.TaskID || len(restored.AtUnix) != len(sched.AtUnix) {
		t.Fatalf("schedule changed across restart: %+v vs %+v", restored, sched)
	}

	// Pre-crash uploads process fine after restart.
	if n := s2.Processor().Process(); n != 1 {
		t.Fatalf("processed %d uploads after restart", n)
	}
	if _, err := s2.DB().Feature(world.CategoryCoffee, world.Starbucks, "temperature"); err != nil {
		t.Fatal(err)
	}

	// Post-restart uploads for the surviving task are accepted.
	upload2 := &wire.DataUpload{
		TaskID: sched.TaskID, AppID: "app-sb", UserID: "alice",
		Series: []wire.SensorSeries{{
			Sensor: "wifi",
			Samples: []wire.SensorSample{
				{AtUnixMilli: t0.Add(time.Minute).UnixMilli(), WindowMilli: 1000, Readings: []float64{-70}},
			},
		}},
	}
	resp, err = s2.Handler()(nil, upload2)
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); !ack.OK {
		t.Fatalf("post-restart upload refused: %+v", ack)
	}

	// The user cannot double-join the same app after restart (the
	// participation row survived).
	resp, err = s2.Handler()(nil, &wire.Participate{
		UserID: "alice", Token: "tok-a", AppID: "app-sb",
		Loc:    wire.Location{Lat: 43.0413, Lon: -76.1350},
		Budget: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); ack.OK {
		t.Fatal("double join across restart should be refused")
	}

	// A brand-new user CAN join after restart: the restarted server's
	// in-memory task counter lags the persisted task IDs, so the server
	// must skip over them instead of colliding.
	resp, err = s2.Handler()(nil, &wire.Participate{
		UserID: "bob", Token: "tok-b", AppID: "app-sb",
		Loc:    wire.Location{Lat: 43.0413, Lon: -76.1350},
		Budget: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); !ack.OK {
		t.Fatalf("new join after restart refused: %s", ack.Message)
	}
}

// TestProcessorCountsDecodeErrors injects a corrupt blob directly into the
// store (a crashed upload, bit rot, …) and checks the Data Processor
// drops it with accounting instead of wedging.
func TestProcessorCountsDecodeErrors(t *testing.T) {
	s, _ := newTestServer(t)
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	ingest := func(body []byte) {
		t.Helper()
		if _, err := s.DB().Ingest("coffee-shop-3", [][]byte{body}, store.IngestOptions{Received: t0}); err != nil {
			t.Fatal(err)
		}
	}
	ingest([]byte("corrupt garbage"))
	// A well-formed frame of the wrong type is also a decode error for
	// the processor.
	wrongType, err := wire.Encode(&wire.Ping{Token: "x"})
	if err != nil {
		t.Fatal(err)
	}
	ingest(wrongType)
	if n := s.Processor().Process(); n != 2 {
		t.Fatalf("drained %d", n)
	}
	processed, decodeErrors := s.Processor().Stats()
	if processed != 0 || decodeErrors != 2 {
		t.Fatalf("processed=%d decodeErrors=%d", processed, decodeErrors)
	}
	if s.DB().PendingUploads() != 0 {
		t.Fatal("corrupt blobs must not wedge the queue")
	}
}

// TestUploadForUnknownAppIsAccountedNotFatal covers an upload whose app
// vanished (e.g. restored snapshot missing the app): the blob decodes but
// the refresh is skipped.
func TestUploadForUnknownAppSkipsRefresh(t *testing.T) {
	s, _ := newTestServer(t)
	raw, err := wire.Encode(&wire.DataUpload{
		TaskID: "t-ghost", AppID: "ghost-app", UserID: "u",
		Series: []wire.SensorSeries{{
			Sensor: "temperature",
			Samples: []wire.SensorSample{
				{AtUnixMilli: t0.UnixMilli(), WindowMilli: 1000, Readings: []float64{1}},
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB().Ingest("ghost-app", [][]byte{raw}, store.IngestOptions{Received: t0}); err != nil {
		t.Fatal(err)
	}
	if n := s.Processor().Process(); n != 1 {
		t.Fatalf("drained %d", n)
	}
	processed, decodeErrors := s.Processor().Stats()
	if processed != 1 || decodeErrors != 0 {
		t.Fatalf("processed=%d decodeErrors=%d", processed, decodeErrors)
	}
	if rows := s.DB().FeaturesByCategory(world.CategoryCoffee); len(rows) != 0 {
		t.Fatalf("phantom features: %+v", rows)
	}
}
