package store

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sor/internal/obs"
	"sor/internal/wal"
)

// dumpTables renders every row of s as text without the row codec:
// floats as their bits, times as Unix seconds + nanoseconds (the zero
// time apart), bodies as hex (nil and empty alike: the codec keeps no
// distinction between them), windows oldest first with each ID raw behind
// its length (as exact as quoting it, and a full window renders without an
// allocation per ID). Two stores hold the same state exactly when their
// dumps match, table by table.
func dumpTables(s *Store) map[string][]string {
	img := s.capture()
	tm := func(t time.Time) string {
		if t.IsZero() {
			return "zero"
		}
		return fmt.Sprintf("%d.%09d", t.Unix(), t.Nanosecond())
	}
	fb := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	out := map[string][]string{"uploadSeq": {fmt.Sprint(img.uploadSeq)}}
	add := func(table, format string, args ...any) {
		out[table] = append(out[table], fmt.Sprintf(format, args...))
	}
	for _, u := range img.users {
		add("users", "%q %q %q", u.ID, u.Name, u.Token)
	}
	for _, a := range img.apps {
		add("apps", "%q %q %q %q %s %s %s %q %d", a.ID, a.Creator, a.Category, a.Place,
			fb(a.Lat), fb(a.Lon), fb(a.RadiusM), a.Script, a.PeriodSec)
	}
	for _, p := range img.parts {
		add("participations", "%q %q %q %q %d %d %s %s %s %q", p.TaskID, p.UserID, p.Token, p.AppID,
			p.Budget, p.Status, tm(p.Joined), tm(p.LeaveBy), tm(p.Left), p.LastErr)
	}
	for _, cut := range img.feats {
		cut.each(func(f *FeatureRow) {
			add("features", "%q %q %q %s %d %s", f.Category, f.Place, f.Feature, fb(f.Value), f.Samples, tm(f.Updated))
		})
	}
	for _, r := range img.scheds {
		add("schedules", "%q %q %q %v", r.TaskID, r.AppID, r.UserID, r.AtUnix)
	}
	for _, a := range img.anchors {
		add("anchors", "%q %d", a.AppID, a.AnchorUnix)
	}
	for i := range img.uploads {
		c := &img.uploads[i]
		for _, side := range []struct {
			name   string
			chunks [][]uploadRow
		}{{"pending", c.pending}, {"archived", c.archived}} {
			for _, up := range c.appendRaw(nil, side.chunks...) {
				add("uploads", "%d %q %q %s %s %x", up.Seq, up.AppID, up.RequestID, tm(up.Received), side.name, up.Body)
			}
		}
	}
	for _, w := range img.windows {
		row := strconv.AppendQuote(nil, w.appID)
		w.each(func(id []byte) {
			row = strconv.AppendInt(append(row, ' '), int64(len(id)), 10)
			row = append(append(row, ':'), id...)
		})
		out["windows"] = append(out["windows"], string(row))
	}
	for _, rows := range out {
		sort.Strings(rows)
	}
	return out
}

// diffTables names the first table where two dumps differ, or "".
func diffTables(want, got map[string][]string) string {
	names := make([]string, 0, len(want)+len(got))
	for name := range want {
		names = append(names, name)
	}
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, g := want[name], got[name]
		if slices.Equal(w, g) {
			continue
		}
		for i := 0; i < len(w) || i < len(g); i++ {
			if i >= len(w) || i >= len(g) || w[i] != g[i] {
				line := func(rows []string) string {
					if i < len(rows) {
						return rows[i]
					}
					return "(none)"
				}
				return fmt.Sprintf("table %s row %d of %d/%d:\n want %.200s\n got  %.200s", name, i, len(w), len(g), line(w), line(g))
			}
		}
	}
	return ""
}

// TestCheckpointIsExactCut: ingest, feature upserts, schedules and
// participation updates race repeated checkpoints. Every image a
// checkpoint installs, restored and topped up with the WAL records above
// its watermark, must equal the final live store table by table — the
// image is an exact cut even though it is sorted and encoded after the
// mutators resumed.
func TestCheckpointIsExactCut(t *testing.T) {
	dir := t.TempDir()
	b := NewDurableBackend(dir, WithSnapshotInterval(time.Hour), WithSegmentBytes(16<<10))
	st, err := b.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.WAL().Retain("exact-cut", 0) // keep every record for the replays below

	// Writers run until the checkpointer has cut its images; then one
	// last image of the final state.
	const images = 20
	stop := make(chan struct{})
	var writers sync.WaitGroup
	write := func(fn func(i int) error) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := fn(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	write(func(i int) error {
		app := fmt.Sprintf("app-%d", i%5)
		_, err := st.Ingest(app, [][]byte{{byte(i)}, {byte(i), 1}}, IngestOptions{
			Received: now.Add(time.Duration(i) * time.Millisecond), RequestID: fmt.Sprint("req-", i),
			ReportIDs: []string{fmt.Sprint("r", i), fmt.Sprint("r", i%40)},
		})
		return err
	})
	write(func(i int) error {
		return st.UpsertFeature(FeatureRow{Category: "c", Place: fmt.Sprint("p", i%17), Feature: "f",
			Value: float64(i) / 3, Samples: i, Updated: now.Add(time.Duration(i) * time.Second)})
	})
	write(func(i int) error {
		return st.PutSchedule(ScheduleRow{TaskID: fmt.Sprint("t", i%23), AppID: "app-0", UserID: "u", AtUnix: []int64{int64(i), int64(i + 1)}})
	})
	write(func(i int) error {
		id := fmt.Sprint("task-", i/3)
		if i%3 == 0 {
			return st.PutParticipation(Participation{TaskID: id, UserID: "u", AppID: "app-1", Budget: 9, Status: TaskWaiting, Joined: now})
		}
		return st.UpdateParticipation(id, func(p *Participation) { p.Budget--; p.Status = TaskRunning })
	})
	if err := st.PutAnchor("app-0", now); err != nil {
		t.Fatal(err)
	}

	var cuts [][]byte
	for len(cuts) <= images {
		if len(cuts) == images {
			close(stop)
			writers.Wait()
		}
		if err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(SnapshotPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, data)
	}
	if t.Failed() {
		return
	}
	want := dumpTables(st)
	for i, data := range cuts {
		got, err := Restore(data)
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		recs, err := b.WAL().ReadAfter(got.restoredLSN, 0, 0)
		if err != nil {
			t.Fatalf("image %d: reading the WAL above %d: %v", i, got.restoredLSN, err)
		}
		for _, rec := range recs {
			if err := got.applyWALRecord(rec, nil); err != nil {
				t.Fatalf("image %d: %v", i, err)
			}
		}
		if d := diffTables(want, dumpTables(got)); d != "" {
			t.Fatalf("image %d of %d (watermark %d) + %d WAL records differs from the live store: %s",
				i, len(cuts), got.restoredLSN, len(recs), d)
		}
	}
}

// TestConcurrentCheckpointsLoseNothing: three checkpointers at a time
// while ingesting over 4 KB segments, then a crash. Without ckptMu an
// image cut at a lower watermark can be renamed over one whose truncation
// already dropped the segments between the two, and the reopened store
// silently misses acked uploads. Ingest runs (up to 4 000 reports) until
// every checkpointer is done, so their cuts are different watermarks.
func TestConcurrentCheckpointsLoseNothing(t *testing.T) {
	iters := 50
	if testing.Short() {
		iters = 10
	}
	for iter := 0; iter < iters; iter++ {
		dir := t.TempDir()
		b := NewDurableBackend(dir, WithSnapshotInterval(time.Hour), WithSegmentBytes(4096))
		st, err := b.Open()
		if err != nil {
			t.Fatal(err)
		}
		// A few hundred KB of image, so that encoding and writing it take
		// long enough for the three checkpoints to overlap.
		const prefill = 2000
		for i := 0; i < prefill; i++ {
			ingestBody(st, "a0", make([]byte, 100), now)
		}
		stop := make(chan struct{})
		ingested := make(chan int)
		go func() {
			acked := 0
			defer func() { ingested <- acked }()
			for acked < 4000 {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := st.Ingest("a1", [][]byte{make([]byte, 24)}, IngestOptions{
					Received: now, ReportIDs: []string{fmt.Sprint("r", acked)},
				}); err != nil {
					t.Error(err)
					return
				}
				acked++
			}
		}()
		var ckpts sync.WaitGroup
		for c := 0; c < 3; c++ {
			ckpts.Add(1)
			go func() {
				defer ckpts.Done()
				for k := 0; k < 4; k++ {
					if err := b.Checkpoint(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		ckpts.Wait()
		close(stop)
		acked := <-ingested
		b.Kill()
		if t.Failed() {
			return
		}
		b2 := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
		st2, err := b2.Open()
		if err != nil {
			t.Fatalf("iteration %d: reopen: %v", iter, err)
		}
		got := st2.UploadCount()
		missing := ""
		for i := max(0, acked-reportWindowSize); i < acked && missing == ""; i++ {
			if !st2.ReportSeen("a1", fmt.Sprint("r", i)) {
				missing = fmt.Sprint("r", i)
			}
		}
		b2.Kill()
		if got != prefill+acked || missing != "" {
			t.Fatalf("iteration %d: %d of %d acked uploads survived (first missing %q)", iter, got, prefill+acked, missing)
		}
	}
}

// TestCheckpointMetrics: a checkpoint publishes its duration and how long
// it parked mutators in fractional milliseconds — a sub-millisecond
// checkpoint is not recorded as 0 — and the image size as a gauge.
func TestCheckpointMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	b := NewDurableBackend(dir, WithSnapshotInterval(time.Hour), WithMetrics(reg))
	st, err := b.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	populate(t, st)
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sor_store_checkpoint_ms", "sor_store_checkpoint_cut_ms"} {
		h := reg.LatencyHistogram(name).Merged()
		if h.N() != 1 || h.Min() <= 0 {
			t.Errorf("%s: %d observations, min %v; want one above 0", name, h.N(), h.Min())
		}
	}
	if cut, all := reg.LatencyHistogram("sor_store_checkpoint_cut_ms").Merged().Max(), reg.LatencyHistogram("sor_store_checkpoint_ms").Merged().Max(); cut > all {
		t.Errorf("cut %v ms longer than the whole checkpoint %v ms", cut, all)
	}
	fi, err := os.Stat(SnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("sor_store_snapshot_bytes").Value(); got != fi.Size() {
		t.Errorf("sor_store_snapshot_bytes = %d, file holds %d", got, fi.Size())
	}
}

// randomStore fills every table straight through the store's internals
// (so empty IDs are allowed) with the values a codec most easily gets
// wrong: NaN with a payload, ±Inf, −0, subnormals; the zero time, non-UTC
// zones and nanoseconds; nil, empty and binary bodies; pending and
// archived uploads; full dedup windows that have already evicted.
func randomStore(rng *rand.Rand) *Store {
	s := New()
	strs := []string{"", "a", "coffee-shop", "B&N", "日本語", "x\x00y", strings.Repeat("long", 40)}
	str := func() string { return strs[rng.Intn(len(strs))] + fmt.Sprint(rng.Intn(3)) }
	id := func(i int) string {
		if i == 0 {
			return "" // one empty ID per table
		}
		return fmt.Sprint("id-", i)
	}
	floats := []float64{math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0, 5e-324, math.MaxFloat64, 73.25}
	flt := func() float64 {
		if rng.Intn(2) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return rng.NormFloat64() * 100
	}
	zones := []*time.Location{time.UTC, time.FixedZone("x", -7*3600), time.FixedZone("y", 5*3600+1800)}
	tm := func() time.Time {
		if rng.Intn(4) == 0 {
			return time.Time{}
		}
		return time.Unix(rng.Int63n(4e9)-1e9, rng.Int63n(1e9)).In(zones[rng.Intn(len(zones))])
	}
	n := func() int { return rng.Intn(12) }
	for i := n(); i >= 0; i-- {
		s.users[id(i)] = User{ID: id(i), Name: str(), Token: str()}
	}
	for i := n(); i >= 0; i-- {
		s.setApp(&Application{ID: id(i), Creator: str(), Category: str(), Place: str(),
			Lat: flt(), Lon: flt(), RadiusM: flt(), Script: str(), PeriodSec: rng.Int63() - rng.Int63()})
	}
	for i := n(); i >= 0; i-- {
		s.setParticipation(Participation{TaskID: id(i), UserID: str(), Token: str(), AppID: str(),
			Budget: rng.Intn(40) - 5, Status: TaskStatus(rng.Intn(6)), Joined: tm(), LeaveBy: tm(), Left: tm(), LastErr: str()})
	}
	for i := n(); i >= 0; i-- {
		f := FeatureRow{Category: str(), Place: id(i), Feature: str(), Value: flt(), Samples: rng.Intn(1000), Updated: tm()}
		s.table(f.Category).put(&f)
	}
	for i := n(); i >= 0; i-- {
		r := ScheduleRow{TaskID: id(i), AppID: str(), UserID: str()}
		for k := rng.Intn(4) - 1; k >= 0; k-- {
			r.AtUnix = append(r.AtUnix, rng.Int63()-rng.Int63())
		}
		s.schedShards[shardIndex(r.TaskID)].rows[r.TaskID] = r
	}
	for i := n(); i >= 0; i-- {
		s.anchors[id(i)] = rng.Int63() - rng.Int63()
	}
	seq := int64(0)
	for i := rng.Intn(600); i >= 0; i-- {
		seq += 1 + rng.Int63n(3)
		up := RawUpload{Seq: seq, AppID: id(rng.Intn(4)), Received: tm(), RequestID: id(rng.Intn(3))}
		switch rng.Intn(3) {
		case 0: // nil body
		case 1:
			up.Body = []byte{}
		default:
			up.Body = make([]byte, rng.Intn(300))
			rng.Read(up.Body)
		}
		sh := &s.uploadShards[shardIndex(up.AppID)]
		sh.add(sh.row(up.AppID, up.Seq, up.Received, []byte(up.RequestID), up.Body), rng.Intn(2) == 0)
	}
	s.uploadSeq.Store(seq + rng.Int63n(5))
	for a := rng.Intn(3); a >= 0; a-- {
		marks := rng.Intn(50)
		if rng.Intn(2) == 0 {
			marks = reportWindowSize + rng.Intn(100) // full, and already evicting
		}
		for k := 0; k < marks; k++ {
			s.uploadShards[shardIndex(id(a+1))].window(id(a + 1)).mark(fmt.Appendf(nil, "r-%d-%d", a, k))
		}
	}
	return s
}

// TestSnapshotRoundTripRandomStores: Restore(Snapshot(s)) holds exactly
// s's rows, and encoding the restored store gives the same bytes.
func TestSnapshotRoundTripRandomStores(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		src := randomStore(rand.New(rand.NewSource(seed)))
		data, err := src.Snapshot()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := Restore(data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d := diffTables(dumpTables(src), dumpTables(got)); d != "" {
			t.Fatalf("seed %d: restored store differs: %s", seed, d)
		}
		again, err := got.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("seed %d: re-encoding the restored store changed the image (%d vs %d bytes)", seed, len(data), len(again))
		}
	}
}

// frameOffsets lists where each frame of a snapshot image starts, plus
// the end of the file.
func frameOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	offs := []int{len(snapMagic)}
	for off := len(snapMagic); off < len(data); {
		_, n, err := wal.DecodeRecord(data[off:])
		if err != nil || n == 0 {
			t.Fatalf("healthy image does not frame at %d: %v", off, err)
		}
		off += n
		offs = append(offs, off)
	}
	return offs
}

// TestSnapshotDamageIsRefused: a snapshot cut at any section boundary or
// mid-section, or with one byte flipped in any section, fails Open with
// an error naming the section — never a partial store. So does a JSON
// snapshot from before the binary format, pointing at docs/upgrade.md.
func TestSnapshotDamageIsRefused(t *testing.T) {
	src := New()
	populate(t, src)
	for i := 0; i < 3; i++ {
		if err := src.PutUser(User{ID: fmt.Sprint("extra-", i), Token: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	offs := frameOffsets(t, data)
	open := func(t *testing.T, image []byte) error {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(SnapshotPath(dir), image, 0o644); err != nil {
			t.Fatal(err)
		}
		b := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
		st, err := b.Open()
		if err == nil {
			b.Kill()
			return nil
		}
		if st != nil {
			t.Fatalf("Open returned a store beside its error %v", err)
		}
		return err
	}
	if err := open(t, data); err != nil {
		t.Fatalf("healthy image: %v", err)
	}
	type damage struct {
		name    string
		image   []byte
		section int
	}
	var cases []damage
	for k := 0; k+1 < len(offs); k++ {
		start, end := offs[k], offs[k+1]
		// Cut right before section k, and in the middle of it.
		cases = append(cases, damage{fmt.Sprintf("cut before section %d", k), data[:start], k})
		cases = append(cases, damage{fmt.Sprintf("cut inside section %d", k), data[:(start+end)/2], k})
		for _, at := range []int{start, start + 4, (start + end) / 2, end - 1} {
			flipped := bytes.Clone(data)
			flipped[at] ^= 0x20
			cases = append(cases, damage{fmt.Sprintf("flip byte %d of section %d", at-start, k), flipped, k})
		}
	}
	// A shipped image is validated frame by frame before it is installed:
	// every damage Open refuses, InstallSnapshot refuses too, and so it
	// does bytes after the end section and a watermark the header denies.
	install := func(image []byte, watermark uint64) error {
		dir := t.TempDir()
		err := InstallSnapshot(dir, func(w io.Writer) (uint64, error) {
			_, err := w.Write(image)
			return watermark, err
		})
		if entries, _ := os.ReadDir(dir); err != nil && len(entries) != 0 {
			t.Fatalf("a refused install left %d entries, first %s", len(entries), entries[0].Name())
		}
		return err
	}
	if err := install(data, 0); err != nil {
		t.Fatalf("healthy image: %v", err)
	}
	for _, tc := range cases {
		err := open(t, tc.image)
		want := fmt.Sprintf("snapshot section %d", tc.section)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Open = %v, want an error naming %q", tc.name, err, want)
		}
		if err := install(tc.image, 0); err == nil {
			t.Errorf("%s: InstallSnapshot accepted it", tc.name)
		}
	}
	if err := install(append(bytes.Clone(data), 0), 0); err == nil || !strings.Contains(err.Error(), "after the end section") {
		t.Errorf("trailing byte: InstallSnapshot = %v", err)
	}
	if err := install(data, 1); err == nil || !strings.Contains(err.Error(), "watermark") {
		t.Errorf("wrong watermark: InstallSnapshot = %v", err)
	}
	for name, image := range map[string][]byte{
		"json":      []byte(`{"users":[{"id":"u1"}],"upload_seq":0}`),
		"bad magic": []byte("SORSNAX\n"),
		"empty":     {},
	} {
		err := open(t, image)
		want := map[string]string{"json": "docs/upgrade.md", "bad magic": "not a snapshot", "empty": "not a snapshot"}[name]
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s snapshot: Open = %v, want %q", name, err, want)
		}
	}
}
