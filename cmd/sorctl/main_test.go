package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sor"
	"sor/internal/cluster"
	"sor/internal/obs"
	"sor/internal/replica"
	"sor/internal/store"
	"sor/internal/wal"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// checkGolden compares got against testdata/<name> (rewriting it under
// -update).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run: go test ./cmd/sorctl -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// walSegment builds a segment image from the documented framing: the
// 16-byte header (magic + firstLSN) followed by length|crc32c|payload
// records.
func walSegment(firstLSN uint64, payloads ...string) []byte {
	b := append([]byte(nil), []byte("SORWAL1\n")...)
	b = binary.LittleEndian.AppendUint64(b, firstLSN)
	for _, p := range payloads {
		b = wal.AppendRecord(b, []byte(p))
	}
	return b
}

// TestWALInspectGolden pins the human `sorctl wal inspect` rendering over
// a fixture holding a sealed segment, a torn segment, and a corrupt one.
func TestWALInspectGolden(t *testing.T) {
	dir := t.TempDir()
	// Sealed: ends exactly at a record boundary.
	if err := os.WriteFile(filepath.Join(dir, "000001.wal"),
		walSegment(1, "participate", "upload", "upload"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Torn: the last record's payload is cut short.
	torn := walSegment(4, "upload", "a-longer-final-record")
	torn = torn[:len(torn)-8]
	if err := os.WriteFile(filepath.Join(dir, "000002.wal"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	// Corrupt: one payload byte of the first record flipped.
	rot := walSegment(6, "upload", "upload")
	rot[16+8] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, "000003.wal"), rot, 0o644); err != nil {
		t.Fatal(err)
	}

	segs, err := wal.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	renderSegments(&buf, dir, segs)
	checkGolden(t, "wal_inspect.golden", buf.Bytes())

	var empty bytes.Buffer
	renderSegments(&empty, "data/wal", nil)
	checkGolden(t, "wal_inspect_empty.golden", empty.Bytes())
}

// TestSnapshotInspectGolden pins the snapshot half of `sorctl wal
// inspect` over a checkpointed data dir, the same image with one byte of
// its feature section flipped, and the image cut before its end section,
// then checks (outside the golden) a snapshot at another version.
func TestSnapshotInspectGolden(t *testing.T) {
	dir := t.TempDir()
	b := store.NewDurableBackend(dir, store.WithSnapshotInterval(time.Hour))
	st, err := b.Open()
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2013, 11, 15, 11, 0, 0, 0, time.UTC)
	for _, err := range []error{
		st.PutUser(store.User{ID: "u1", Name: "Alice", Token: "tok-a"}),
		st.PutUser(store.User{ID: "u2", Name: "Bob", Token: "tok-b"}),
		st.PutApp(store.Application{ID: "app-sb", Category: "coffee-shop", Place: "Starbucks", PeriodSec: 10800}),
		st.UpsertFeature(store.FeatureRow{Category: "coffee-shop", Place: "Starbucks", Feature: "temperature", Value: 73.5, Samples: 12, Updated: at}),
		st.UpsertFeature(store.FeatureRow{Category: "coffee-shop", Place: "Starbucks", Feature: "noise", Value: 61, Samples: 9, Updated: at}),
		st.PutAnchor("app-sb", at),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Ingest("app-sb", [][]byte{{1, 2, 3}, {4, 5}}, store.IngestOptions{
		Received: at, RequestID: "req-1", ReportIDs: []string{"r1", "r2"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b.Kill()
	path := store.SnapshotPath(dir)
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	render := func(label string, data []byte) *store.SnapshotInfo {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := store.InspectSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		renderSnapshot(&buf, label, info)
		return info
	}
	healthy := render("data/snapshot.json", image)
	flipped := bytes.Clone(image)
	for _, sec := range healthy.Sections {
		if sec.Kind == "feat" {
			flipped[sec.Offset+sec.Bytes/2] ^= 0x01
		}
	}
	render("data/flipped.json", flipped)
	end := healthy.Sections[len(healthy.Sections)-1]
	render("data/cut.json", image[:end.Offset])
	checkGolden(t, "snapshot_inspect.golden", buf.Bytes())

	// A snapshot another build wrote at version 2 (header reframed with a
	// valid CRC) still lists every section; only the header is bad, and
	// Open refuses the file.
	payload, n, err := wal.DecodeRecord(image[8:])
	if err != nil {
		t.Fatal(err)
	}
	payload = bytes.Clone(payload)
	payload[1] = 2 // the uvarint version after the header tag
	versioned := append(wal.AppendRecord(bytes.Clone(image[:8]), payload), image[8+n:]...)
	buf.Reset()
	info := render("data/v2.json", versioned)
	if info.Version != 2 || len(info.Sections) != len(healthy.Sections) || !info.Complete {
		t.Fatalf("version 2: version %d, %d of %d sections, complete %v",
			info.Version, len(info.Sections), len(healthy.Sections), info.Complete)
	}
	for i, sec := range info.Sections {
		if bad := sec.Err != nil; bad != (i == 0) {
			t.Errorf("version 2: section %d (%s) err %v", i, sec.Kind, sec.Err)
		}
	}
	if out := buf.String(); !strings.Contains(out, "unsupported snapshot version 2") ||
		!strings.Contains(out, "DAMAGED: section 0 is bad; Open refuses this snapshot") {
		t.Errorf("version 2 rendering:\n%s", out)
	}
	reopen := store.NewDurableBackend(dir)
	if _, err := reopen.Open(); err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 2") {
		t.Errorf("Open of a version 2 snapshot: %v", err)
		if err == nil {
			reopen.Close()
		}
	}
}

// TestMetricsGolden pins the human `sorctl metrics` rendering: counters,
// gauges, then histograms, each sorted by series name.
func TestMetricsGolden(t *testing.T) {
	snap := sor.MetricsSnapshot{
		Counters: map[string]int64{
			"sor_requests_total{type=data-upload}": 128,
			"sor_requests_total{type=participate}": 32,
			"sor_dedup_hits_total":                 7,
		},
		Gauges: map[string]int64{
			"sor_outbox_pending": 3,
		},
		Histograms: map[string]obs.HistogramSnapshot{
			"sor_handler_ms{type=data-upload}": {
				Count: 16, Mean: 1.5, Min: 0.25, Max: 12.5, P50: 1.0, P99: 9.75,
			},
		},
	}
	var buf bytes.Buffer
	renderMetrics(&buf, snap)
	checkGolden(t, "metrics.golden", buf.Bytes())
}

// TestReplicaStatusGolden pins the human `sorctl replica status`
// rendering for a leader with followers, a connected follower, and a
// follower that must resync.
func TestReplicaStatusGolden(t *testing.T) {
	var buf bytes.Buffer
	renderReplicaStatus(&buf, replica.Status{
		Role:    "leader",
		LastLSN: 2048,
		Followers: []replica.FollowerStatus{
			{ID: "node-b", AckLSN: 2048, LagRecords: 0, SilentForMS: 120, Live: true},
			{ID: "node-c", AckLSN: 1500, LagRecords: 548, SilentForMS: 700000, Live: false},
		},
	})
	buf.WriteByte('\n')
	renderReplicaStatus(&buf, replica.Status{
		Role:    "follower",
		LastLSN: 2040,
		Self: &replica.FollowerSelf{
			ID: "node-b", AppliedLSN: 2040, LeaderLSN: 2048, LagRecords: 8,
			LastContactMS: 120, Connected: true,
		},
	})
	buf.WriteByte('\n')
	renderReplicaStatus(&buf, replica.Status{
		Role:    "follower",
		LastLSN: 10,
		Self: &replica.FollowerSelf{
			ID: "node-late", AppliedLSN: 10, LeaderLSN: 0,
			LastContactMS: -1, Failures: 3, NeedsResync: true,
		},
	})
	checkGolden(t, "replica_status.golden", buf.Bytes())
}

// TestClusterStatusGolden pins the human `sorctl cluster status`
// rendering: a router's view of a 2-shard cluster mid-failover (one
// member never heartbeated, one silent past its TTL) plus the app
// placement table, and the degenerate empty map.
func TestClusterStatusGolden(t *testing.T) {
	var buf bytes.Buffer
	renderClusterStatus(&buf, cluster.Status{
		Router: "router-0",
		Shards: []cluster.ShardStatus{
			{
				Name:   "shard-a",
				Leader: "shard-a-0",
				Members: []cluster.MemberStatus{
					{Name: "shard-a-0", Role: "leader", Addr: "http://10.0.0.1:8080",
						Live: true, AppliedLSN: 2048, SilentForMS: 150},
					{Name: "shard-a-1", Role: "replica", Addr: "http://10.0.0.2:8080",
						Live: false, AppliedLSN: 1500, SilentForMS: 700000},
				},
			},
			{
				Name: "shard-b",
				Members: []cluster.MemberStatus{
					{Name: "shard-b-0", Role: "replica", Addr: "http://10.0.1.1:8080",
						Live: true, AppliedLSN: 4096, SilentForMS: 90},
					{Name: "shard-b-1", Role: "replica", Addr: "http://10.0.1.2:8080",
						Live: false, AppliedLSN: 0, SilentForMS: -1},
				},
			},
		},
		Apps: []cluster.AppRoute{
			{AppID: "app-coffee", Category: "coffee-shop", Shard: "shard-a"},
			{AppID: "app-trail", Category: "hiking-trail", Shard: "shard-b"},
		},
	})
	buf.WriteByte('\n')
	renderClusterStatus(&buf, cluster.Status{})
	checkGolden(t, "cluster_status.golden", buf.Bytes())
}
