package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"sor/internal/wal"
)

// populate writes one row into every table, plus a deduped ingest, so
// recovery tests exercise every WAL op kind.
func populate(t testing.TB, s *Store) {
	t.Helper()
	if err := s.PutUser(User{ID: "u1", Name: "Alice", Token: "tok"}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutApp(Application{ID: "a1", Category: "coffee-shop", Place: "B&N", PeriodSec: 10800}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutParticipation(Participation{TaskID: "t1", UserID: "u1", AppID: "a1",
		Budget: 17, Status: TaskRunning, Joined: now, LeaveBy: now.Add(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	if err := s.UpsertFeature(FeatureRow{Category: "coffee-shop", Place: "B&N",
		Feature: "temperature", Value: 73, Samples: 12, Updated: now}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSchedule(ScheduleRow{TaskID: "t1", AppID: "a1", UserID: "u1", AtUnix: []int64{10, 20}}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutAnchor("a1", now); err != nil {
		t.Fatal(err)
	}
	res, err := s.Ingest("a1", [][]byte{{1}, {2}, {1}}, IngestOptions{
		Received: now, RequestID: "req-1", ReportIDs: []string{"r1", "r2", "r1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stored != 2 || !res.Fresh[0] || !res.Fresh[1] || res.Fresh[2] {
		t.Fatalf("ingest result = %+v", res)
	}
}

// verifyPopulated asserts everything populate wrote is present.
func verifyPopulated(t *testing.T, s *Store) {
	t.Helper()
	if u, err := s.User("u1"); err != nil || u.Name != "Alice" {
		t.Fatalf("user: %+v, %v", u, err)
	}
	if a, err := s.App("a1"); err != nil || a.Place != "B&N" {
		t.Fatalf("app: %+v, %v", a, err)
	}
	p, err := s.Participation("t1")
	if err != nil || p.Budget != 17 || !p.LeaveBy.Equal(now.Add(time.Hour)) {
		t.Fatalf("participation: %+v, %v", p, err)
	}
	if f, err := s.Feature("coffee-shop", "B&N", "temperature"); err != nil || f.Value != 73 {
		t.Fatalf("feature: %+v, %v", f, err)
	}
	if r, err := s.Schedule("t1"); err != nil || len(r.AtUnix) != 2 {
		t.Fatalf("schedule: %+v, %v", r, err)
	}
	if anchor, ok := s.Anchor("a1"); !ok || !anchor.Equal(now) {
		t.Fatalf("anchor: %v, %v", anchor, ok)
	}
	if ids := s.SeenReportIDs("a1"); len(ids) != 2 || ids[0] != "r1" || ids[1] != "r2" {
		t.Fatalf("seen report ids: %v", ids)
	}
	if n := s.UploadCount(); n != 2 {
		t.Fatalf("upload count = %d", n)
	}
}

func TestDurableBackendCleanRestart(t *testing.T) {
	dir := t.TempDir()
	b := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	st, err := b.Open()
	if err != nil {
		t.Fatal(err)
	}
	populate(t, st)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal("second close must be a no-op, got", err)
	}
	if _, err := b.Open(); err == nil {
		t.Fatal("reopening a used backend must error")
	}

	b2 := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	st2, err := b2.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	verifyPopulated(t, st2)
	// The sequence continues where the first process stopped.
	if seq := ingestBody(st2, "a1", []byte{9}, now); seq != 3 {
		t.Fatalf("seq after restart = %d, want 3", seq)
	}
	// A replayed ReportID is still a duplicate after restart.
	res, err := st2.Ingest("a1", [][]byte{{1}}, IngestOptions{Received: now, ReportIDs: []string{"r1"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stored != 0 {
		t.Fatal("dedup window lost across restart")
	}
}

func TestDurableBackendKillRecoversFromWALAlone(t *testing.T) {
	dir := t.TempDir()
	b := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	st, err := b.Open()
	if err != nil {
		t.Fatal(err)
	}
	populate(t, st)
	want, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b.Kill()
	b.Kill() // idempotent

	// No checkpoint ever ran: the snapshot file must not exist, so the
	// entire state below comes from WAL replay.
	if _, err := os.Stat(SnapshotPath(dir)); !os.IsNotExist(err) {
		t.Fatalf("snapshot file unexpectedly present: %v", err)
	}
	b2 := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	st2, err := b2.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	verifyPopulated(t, st2)
	got, err := st2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("recovered snapshot differs from pre-kill snapshot:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestReplayInternsWhatRestoreInterns: an application replayed from the
// WAL tail shares its creator, category and script with the restored ones,
// as two restored applications do with each other.
func TestReplayInternsWhatRestoreInterns(t *testing.T) {
	dir := t.TempDir()
	b := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	st, err := b.Open()
	if err != nil {
		t.Fatal(err)
	}
	app := func(id string) Application {
		return Application{ID: id, Creator: "ben" + "ch", Category: "coffee-" + "shop", Place: "p-" + id, Script: strings.Repeat("sense();", 8)}
	}
	for _, id := range []string{"a1", "a2"} {
		if err := st.PutApp(app(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a3", "a4"} {
		if err := st.PutApp(app(id)); err != nil {
			t.Fatal(err)
		}
	}
	b.Kill()
	b2 := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	st2, err := b2.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	apps := st2.Apps()
	if len(apps) != 4 {
		t.Fatalf("reopened store holds %d apps, want 4", len(apps))
	}
	for _, a := range apps[1:] {
		if unsafe.StringData(a.Creator) != unsafe.StringData(apps[0].Creator) ||
			unsafe.StringData(a.Category) != unsafe.StringData(apps[0].Category) ||
			unsafe.StringData(a.Script) != unsafe.StringData(apps[0].Script) {
			t.Errorf("app %s holds its own copy of the creator, category or script of app %s", a.ID, apps[0].ID)
		}
	}
}

func TestDurableBackendCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so the log rotates often and truncation has segments
	// to delete.
	b := NewDurableBackend(dir, WithSnapshotInterval(time.Hour), WithSegmentBytes(512))
	st, err := b.Open()
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 128)
	for i := 0; i < 50; i++ {
		ingestBody(st, "a1", body, now)
	}
	segs, err := wal.Inspect(b.WALDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several sealed segments, got %d", len(segs))
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, err := wal.Inspect(b.WALDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(segs) {
		t.Fatalf("checkpoint did not truncate: %d segments before, %d after", len(segs), len(after))
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery = snapshot + surviving tail; nothing lost, nothing doubled.
	b2 := NewDurableBackend(dir)
	st2, err := b2.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if n := st2.UploadCount(); n != 50 {
		t.Fatalf("upload count after truncated recovery = %d, want 50", n)
	}
}

// TestWALRecordValidation: a record the decoder does not accept — among
// them every JSON record a build before the row codec wrote — is
// refused, never skipped: ApplyReplicated rejects it before appending or
// applying anything, and a log holding one fails Open instead of
// recovering around it.
func TestWALRecordValidation(t *testing.T) {
	user := (&walOp{tag: userTag, user: User{ID: "u2", Token: "t"}}).appendTo(nil)
	for _, tc := range []struct{ name, payload, want string }{
		{"json mark", `{"op":"mark","app_id":"a1","report_id":"r1"}`, "docs/upgrade.md"},
		{"json ingest", `{"op":"ingest","ingest":{"app_id":"a1","base_seq":0,"received":"2013-11-15T11:00:00Z","bodies":["AQ=="],"report_ids":["r1"]}}`, "docs/upgrade.md"},
		{"json user", `{"op":"user","user":{"id":"u2"}}`, "docs/upgrade.md"},
		{"unknown op", "\x7fnope", "unknown wal record tag 0x7f"},
		{"snapshot-only row", "\x08\x02", "unknown wal record upload"},
		{"op without payload", "\x02", "malformed user wal record"},
		{"trailing bytes", string(user) + "x", "malformed user wal record"},
		{"truncated binary ingest", "\x01\x05a", "malformed ingest wal record"},
		{"ingest marks not parallel", "\x01\x02a1\x00\x00\x00\x01\x01\x07\x02\x02r1\x02r2", "malformed ingest wal record"},
		{"not a record", "garbage", "unknown wal record tag 0x67"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			b := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
			st, err := b.Open()
			if err != nil {
				t.Fatal(err)
			}
			err = st.ApplyReplicated(1, []byte(tc.payload))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ApplyReplicated = %v, want %q", err, tc.want)
			}
			if st.AppliedLSN() != 0 || st.UploadCount() != 0 || st.ReportSeen("a1", "r1") {
				t.Fatalf("refused record left a trace: lsn %d, %d uploads, r1 seen %v",
					st.AppliedLSN(), st.UploadCount(), st.ReportSeen("a1", "r1"))
			}
			// The same bytes behind a good record in the log on disk.
			if err := st.PutUser(User{ID: "u1", Token: "tok"}); err != nil {
				t.Fatal(err)
			}
			if _, err := b.WAL().Append([]byte(tc.payload)); err != nil {
				t.Fatal(err)
			}
			b.Kill()
			if _, err := NewDurableBackend(dir).Open(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open over the record = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestIngestRefusalLeavesNoTrace pins the write-ahead contract: when the
// WAL refuses the append, the dedup window and the upload buckets are
// exactly as before the call.
func TestIngestRefusalLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	b := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	st, err := b.Open()
	if err != nil {
		t.Fatal(err)
	}
	populate(t, st)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// The store still points at the now-closed log; every append fails.
	res, err := st.Ingest("a1", [][]byte{{7}}, IngestOptions{Received: now, ReportIDs: []string{"r9"}})
	if err == nil {
		t.Fatal("ingest against a closed WAL must error")
	}
	if res.Stored != 0 || len(res.Fresh) != 1 && res.Fresh[0] {
		t.Fatalf("refused ingest reported progress: %+v", res)
	}
	if n := st.UploadCount(); n != 2 {
		t.Fatalf("refused ingest stored a body: count = %d", n)
	}
	if ids := st.SeenReportIDs("a1"); len(ids) != 2 {
		t.Fatalf("refused ingest marked its ReportID: %v", ids)
	}
	if err := st.PutUser(User{ID: "u9"}); err == nil {
		t.Fatal("mutation against a closed WAL must error")
	}
}

func TestMemoryBackend(t *testing.T) {
	b := NewMemoryBackend(nil)
	st, err := b.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutUser(User{ID: "u1"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b.Kill()

	seeded := New()
	if err := seeded.PutUser(User{ID: "pre"}); err != nil {
		t.Fatal(err)
	}
	st2, err := NewMemoryBackend(seeded).Open()
	if err != nil {
		t.Fatal(err)
	}
	if st2 != seeded {
		t.Fatal("memory backend must serve the seeded store")
	}
}

// TestDurableDrainArchivesUploads pins archive-on-drain: a durable store
// keeps drained uploads so recovery can refold history, while an
// in-memory store keeps the old discard behavior.
func TestDurableDrainArchivesUploads(t *testing.T) {
	dir := t.TempDir()
	b := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	st, err := b.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ingestBody(st, "a1", []byte{1}, now)
	ingestBody(st, "a1", []byte{2}, now)
	if got := st.DrainUploads(); len(got) != 2 {
		t.Fatalf("drained %d", len(got))
	}
	if st.PendingUploads() != 0 {
		t.Fatal("drain left pending rows")
	}
	if st.UploadCount() != 2 {
		t.Fatalf("archived count = %d", st.UploadCount())
	}
	all := st.AllUploads()
	if len(all) != 2 || all[0].Seq != 1 || all[1].Seq != 2 {
		t.Fatalf("AllUploads = %+v", all)
	}
	ingestBody(st, "a1", []byte{3}, now)
	// The history drains archived and pending rows in global sequence
	// order and archives them all again.
	redrained := historyRows(st.DrainHistory())
	if len(redrained) != 3 || redrained[0].Seq != 1 || redrained[2].Seq != 3 {
		t.Fatalf("redrained = %+v", redrained)
	}
	if st.PendingUploads() != 0 || st.UploadCount() != 3 {
		t.Fatalf("after the history drain: %d pending, %d held", st.PendingUploads(), st.UploadCount())
	}

	mem := New()
	ingestBody(mem, "a1", []byte{1}, now)
	mem.DrainUploads()
	if mem.UploadCount() != 0 {
		t.Fatal("in-memory store must not archive drained uploads")
	}
}

// TestActiveTaskIndexFollowsEveryWritePath: ActiveParticipationByUser is
// answered from a derived index, so every path that fills the
// participations table — live mutators, snapshot restore, WAL replay,
// replicated apply, a shipped snapshot — must leave it answering what a
// scan of the table would.
func TestActiveTaskIndexFollowsEveryWritePath(t *testing.T) {
	check := func(t *testing.T, s *Store) {
		t.Helper()
		for key, want := range map[struct{ AppID, UserID string }]string{
			{"a1", "u1"}: "t2", // t1 finished; t2 and t3 both active: lowest ID
			{"a1", "u2"}: "",   // t4 failed
			{"a2", "u1"}: "t5",
			{"a2", "u9"}: "",
		} {
			p, err := s.ActiveParticipationByUser(key.AppID, key.UserID)
			switch {
			case want == "" && !errors.Is(err, ErrNotFound):
				t.Fatalf("%v: got %+v, %v; want ErrNotFound", key, p, err)
			case want != "" && (err != nil || p.TaskID != want):
				t.Fatalf("%v: got %+v, %v; want %s", key, p, err, want)
			}
		}
		for user, want := range map[string]string{"u1": "t2", "u2": "", "u9": ""} {
			_, p, err := s.ActiveTaskOfUser(user)
			switch {
			case want == "" && !errors.Is(err, ErrNotFound):
				t.Fatalf("%s: got %+v, %v; want ErrNotFound", user, p, err)
			case want != "" && (err != nil || p.TaskID != want):
				t.Fatalf("%s: got %+v, %v; want %s", user, p, err, want)
			}
		}
	}
	leader := NewDurableBackend(t.TempDir(), WithSnapshotInterval(time.Hour))
	st, err := leader.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for _, p := range []Participation{
		{TaskID: "t3", UserID: "u1", AppID: "a1", Status: TaskRunning},
		{TaskID: "t1", UserID: "u1", AppID: "a1", Status: TaskRunning},
		{TaskID: "t2", UserID: "u1", AppID: "a1", Status: TaskWaiting},
		{TaskID: "t4", UserID: "u2", AppID: "a1", Status: TaskWaiting},
		{TaskID: "t5", UserID: "u1", AppID: "a2", Status: TaskRunning},
	} {
		if err := st.PutParticipation(p); err != nil {
			t.Fatal(err)
		}
	}
	if p, err := st.ActiveParticipationByUser("a1", "u1"); err != nil || p.TaskID != "t1" {
		t.Fatalf("before t1 finishes: %+v, %v", p, err)
	}
	for id, status := range map[string]TaskStatus{"t1": TaskFinished, "t4": TaskError} {
		if err := st.UpdateParticipation(id, func(p *Participation) { p.Status = status }); err != nil {
			t.Fatal(err)
		}
	}
	check(t, st)
	checkEveryWritePath(t, leader, check)
}

// checkEveryWritePath runs check on the stores every other write path
// builds from what leader holds: a follower fed by ApplyReplicated, the
// same follower reopened over its WAL, and a store reopened from the
// leader's checkpoint shipped as a snapshot.
func checkEveryWritePath(t *testing.T, leader *DurableBackend, check func(*testing.T, *Store)) {

	reopen := func(dir string) *Store {
		t.Helper()
		b := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
		s, err := b.Open()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Kill)
		return s
	}
	t.Run("replicated apply, then wal replay", func(t *testing.T) {
		dir := t.TempDir()
		follower := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
		fs, err := follower.Open()
		if err != nil {
			t.Fatal(err)
		}
		records, err := leader.WAL().ReadAfter(0, 100, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range records {
			if err := fs.ApplyReplicated(uint64(i+1), rec); err != nil {
				t.Fatal(err)
			}
		}
		check(t, fs)
		if err := fs.WaitDurable(fs.AppliedLSN()); err != nil {
			t.Fatal(err)
		}
		follower.Kill()
		check(t, reopen(dir))
	})
	t.Run("shipped snapshot restore", func(t *testing.T) {
		if err := leader.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		f, watermark, _, err := OpenSnapshot(leader.Dir())
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		dir := t.TempDir()
		if err := InstallSnapshot(dir, func(w io.Writer) (uint64, error) {
			_, err := io.Copy(w, f)
			return watermark, err
		}); err != nil {
			t.Fatal(err)
		}
		check(t, reopen(dir))
	})
}

// TestTokenIndexFollowsEveryWritePath: UserByToken answers from an index
// every write path keeps — PutUser, ApplyReplicated, WAL replay, snapshot
// restore — and a token two users share names the lowest user ID.
func TestTokenIndexFollowsEveryWritePath(t *testing.T) {
	check := func(t *testing.T, s *Store) {
		t.Helper()
		for token, want := range map[string]string{"tok-a": "u1", "tok-b": "u2", "tok-c": ""} {
			u, err := s.UserByToken(token)
			switch {
			case want == "" && !errors.Is(err, ErrNotFound):
				t.Fatalf("%s: got %+v, %v; want ErrNotFound", token, u, err)
			case want != "" && (err != nil || u.ID != want || u.Token != token):
				t.Fatalf("%s: got %+v, %v; want %s", token, u, err, want)
			}
		}
	}
	leader := NewDurableBackend(t.TempDir(), WithSnapshotInterval(time.Hour))
	st, err := leader.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for _, u := range []User{{"u3", "c", "tok-a"}, {"u2", "b", "tok-b"}, {"u1", "a", "tok-a"}, {"u5", "e", "tok-a"}} {
		if err := st.PutUser(u); err != nil {
			t.Fatal(err)
		}
	}
	check(t, st)
	checkEveryWritePath(t, leader, check)
}

// TestArchiveRetentionIndependentOfDrainCadence: what an archiving store
// retains per drained row must not depend on how often it was drained —
// a drain after every put must not park a mostly empty 512-row chunk
// (24 KB) per row. Every cadence archives the same rows in the same order
// at within 2× of the same bytes, at most two rows' worth per row, and a
// slice a drain handed out stays what it was.
func TestArchiveRetentionIndependentOfDrainCadence(t *testing.T) {
	const rows = 10000
	rowBytes := int(unsafe.Sizeof(uploadRow{}))
	type outcome struct {
		all      []RawUpload
		retained int // bytes of chunk backing arrays held by done
	}
	fill := func(drainEvery int) outcome {
		s := New()
		s.archive = true
		var first, firstCopy []RawUpload
		for i := 0; i < rows; i++ {
			ingestBody(s, fmt.Sprintf("app-%d", i%3), []byte{byte(i), byte(i >> 8)}, now)
			if drainEvery > 0 && (i+1)%drainEvery == 0 {
				got := s.DrainUploads()
				if first == nil {
					first, firstCopy = got, slices.Clone(got)
				}
			}
		}
		s.DrainUploads()
		if !reflect.DeepEqual(first, firstCopy) {
			t.Fatalf("drain every %d: rows handed out by the first drain changed under later drains", drainEvery)
		}
		if s.PendingUploads() != 0 || s.UploadCount() != rows {
			t.Fatalf("drain every %d: %d pending, %d held", drainEvery, s.PendingUploads(), s.UploadCount())
		}
		var out outcome
		for i := range s.uploadShards {
			sh := &s.uploadShards[i]
			for k, c := range sh.archived {
				if len(c) < uploadChunkSize && k != len(sh.archived)-1 {
					t.Fatalf("drain every %d: archived chunk %d of %d holds %d rows", drainEvery, k, len(sh.archived), len(c))
				}
				out.retained += cap(c) * rowBytes
			}
		}
		out.all = s.AllUploads()
		// The refold path sees the same rows: drain the history, archive again.
		if got := historyRows(s.DrainHistory()); !reflect.DeepEqual(got, out.all) || s.UploadCount() != rows {
			t.Fatalf("drain every %d: the history drain returned %d rows, store holds %d", drainEvery, len(got), s.UploadCount())
		}
		return out
	}
	atEnd := fill(0)
	for i, up := range atEnd.all {
		if up.Seq != int64(i+1) || len(up.Body) != 2 || up.Body[0] != byte(i) || up.Body[1] != byte(i>>8) {
			t.Fatalf("row %d = %+v", i, up)
		}
	}
	if perRow := atEnd.retained / rows; perRow > 2*rowBytes {
		t.Fatalf("one drain at the end retains %d B per row, a row is %d B", perRow, rowBytes)
	}
	for _, every := range []int{1, 7, 600, 2500} {
		got := fill(every)
		if !reflect.DeepEqual(got.all, atEnd.all) {
			t.Fatalf("drain every %d: AllUploads differs from one drain at the end", every)
		}
		if got.retained > 2*atEnd.retained || atEnd.retained > 2*got.retained {
			t.Fatalf("drain every %d retains %d B for %d rows, one drain at the end %d B",
				every, got.retained, rows, atEnd.retained)
		}
		t.Logf("drain every %4d: %d B per archived row (one drain at the end: %d)", every, got.retained/rows, atEnd.retained/rows)
	}
}

// TestLargeRowsSurviveEveryDecodePath: the store never refuses on replay
// what it accepted on write. A 2 MiB app script (the wire refuses strings
// past 1 MiB) and a 5 MiB upload body come back table for table through
// every path that decodes what the store wrote: ApplyReplicated on a
// second store, WAL replay after a kill, and checkpoint + Restore.
func TestLargeRowsSurviveEveryDecodePath(t *testing.T) {
	dir := t.TempDir()
	b := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	st, err := b.Open()
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 5<<20)
	for i := range body {
		body[i] = byte(i * 7)
	}
	if err := st.PutApp(Application{ID: "a1", Category: "coffee-shop", Script: strings.Repeat("x", 2<<20)}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Ingest("a1", [][]byte{body}, IngestOptions{Received: now, ReportIDs: []string{"r1"}}); err != nil {
		t.Fatal(err)
	}
	want := dumpTables(st)
	same := func(path string, got *Store) {
		t.Helper()
		if d := diffTables(want, dumpTables(got)); d != "" {
			t.Fatalf("%s: %s", path, d)
		}
	}

	recs, err := b.WAL().ReadAfter(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rb := NewDurableBackend(t.TempDir(), WithSnapshotInterval(time.Hour))
	replica, err := rb.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	for i, rec := range recs {
		if err := replica.ApplyReplicated(uint64(i+1), rec); err != nil {
			t.Fatalf("ApplyReplicated record %d: %v", i+1, err)
		}
	}
	same("ApplyReplicated", replica)

	b.Kill()
	b2 := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
	replayed, err := b2.Open()
	if err != nil {
		t.Fatalf("reopen over the WAL: %v", err)
	}
	defer b2.Close()
	same("WAL replay", replayed)

	if err := b2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(SnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(data)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	same("checkpoint + Restore", restored)
}

// historyRows flattens a history drain back into one sequence-ordered
// slice, the shape AllUploads returns.
func historyRows(history []AppHistory) []RawUpload {
	var rows []RawUpload
	for _, h := range history {
		rows = append(rows, h.Rows...)
	}
	slices.SortFunc(rows, bySeq)
	return rows
}

// TestDrainHistoryRunsPerApp: rows enqueued into a shard out of sequence
// order, two apps sharing it. DrainHistory must still hand back the apps
// in ID order, each app's run in sequence order, every row exactly once,
// and archive them all again.
func TestDrainHistoryRunsPerApp(t *testing.T) {
	a, b, c := "app-a", "", ""
	for i := 0; b == "" || c == ""; i++ {
		id := fmt.Sprintf("app-%d", i)
		switch {
		case b == "" && shardIndex(id) == shardIndex(a):
			b = id
		case c == "" && shardIndex(id) != shardIndex(a):
			c = id
		}
	}
	apps := []string{a, b, c}
	s := New()
	s.archive = true
	enqueue := func(row RawUpload) {
		sh := &s.uploadShards[shardIndex(row.AppID)]
		sh.mu.Lock()
		sh.add(sh.row(row.AppID, row.Seq, row.Received, nil, row.Body), false)
		sh.mu.Unlock()
	}
	// Claim 1..rows in order, enqueue each window of 8 claims shuffled, and
	// drain (archive) part of the history on the way.
	const rows, window = 3000, 8
	rng := rand.New(rand.NewPCG(40, 1))
	lastSeq := make(map[string]int64)
	inversions := 0
	for base := 0; base < rows; base += window {
		claims := make([]RawUpload, window)
		for i := range claims {
			seq := int64(base + i + 1)
			claims[i] = RawUpload{Seq: seq, AppID: apps[rng.IntN(len(apps))], Body: []byte{byte(seq), byte(seq >> 8)}}
		}
		rng.Shuffle(len(claims), func(i, j int) { claims[i], claims[j] = claims[j], claims[i] })
		for _, row := range claims {
			if row.Seq < lastSeq[row.AppID] {
				inversions++
			}
			lastSeq[row.AppID] = row.Seq
			enqueue(row)
		}
		if base%1000 < window {
			s.DrainUploads()
		}
	}
	if inversions == 0 {
		t.Fatal("generator too tame: every app enqueued its rows in sequence order")
	}
	history := s.DrainHistory()
	var ids []string
	seen := make([]bool, rows+1)
	for _, h := range history {
		ids = append(ids, h.AppID)
		if !slices.IsSortedFunc(h.Rows, bySeq) {
			t.Fatalf("app %s: run not in sequence order", h.AppID)
		}
		for _, row := range h.Rows {
			if row.AppID != h.AppID || row.Seq < 1 || row.Seq > rows || seen[row.Seq] {
				t.Fatalf("app %s: row %+v foreign, out of range or repeated", h.AppID, row)
			}
			seen[row.Seq] = true
			if row.Body[0] != byte(row.Seq) || row.Body[1] != byte(row.Seq>>8) {
				t.Fatalf("row %d carries body %v", row.Seq, row.Body)
			}
		}
	}
	want := slices.Clone(apps)
	slices.Sort(want)
	if !slices.Equal(ids, want) {
		t.Fatalf("apps drained as %v, want %v", ids, want)
	}
	if n := len(historyRows(history)); n != rows {
		t.Fatalf("drained %d rows, stored %d", n, rows)
	}
	if s.PendingUploads() != 0 || s.UploadCount() != rows {
		t.Fatalf("after the history drain: %d pending, %d held", s.PendingUploads(), s.UploadCount())
	}
	if again := s.DrainHistory(); !reflect.DeepEqual(again, history) {
		t.Fatal("a second history drain differs from the first")
	}
}
