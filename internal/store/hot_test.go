package store

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sor/internal/wire"
)

// The oracle is the hot tables as they were before rows, slabs and window
// arenas: RawUpload chunks, and per app a map of seen IDs beside their
// insertion order. The differential test below drives it and a Store with
// the same operations and requires them to agree on everything a reader
// can see, snapshot bytes included.

// oracleWindow is the map+[]string dedup window.
type oracleWindow struct {
	seen  map[string]struct{}
	order []string // insertion order, oldest first
}

func (w *oracleWindow) mark(id string) {
	if _, dup := w.seen[id]; dup {
		return
	}
	if len(w.order) >= reportWindowSize {
		delete(w.seen, w.order[0])
		w.order = w.order[1:]
	}
	w.seen[id] = struct{}{}
	w.order = append(w.order, id)
}

// oracle is one node's hot tables. ckpt is the sequence numbers archived
// at the last checkpoint: drains are not logged, so a store reopened after
// a kill has the rest pending again.
type oracle struct {
	seq               int64
	archive           bool
	pending, archived []RawUpload
	windows           map[string]*oracleWindow
	ckpt              map[int64]bool
}

func newOracle(archive bool) *oracle {
	return &oracle{archive: archive, windows: make(map[string]*oracleWindow)}
}

// ingest is Ingest's old semantics: a window hit or an id repeated within
// the call is acked unstored, empty ids never deduplicate.
func (o *oracle) ingest(appID string, bodies [][]byte, opt IngestOptions) []bool {
	w := o.windows[appID]
	fresh := make([]bool, len(bodies))
	batch := map[string]bool{}
	for i := range bodies {
		if id := opt.ReportIDs[i]; id != "" {
			if w.has(id) || batch[id] {
				continue
			}
			batch[id] = true
		}
		fresh[i] = true
	}
	for i, body := range bodies {
		if !fresh[i] {
			continue
		}
		o.seq++
		if len(body) == 0 {
			body = nil // an empty body reads back as nil, as the codec restores it
		}
		o.pending = append(o.pending, RawUpload{Seq: o.seq, AppID: appID, Received: opt.Received,
			Body: bytes.Clone(body), RequestID: opt.RequestID})
		if id := opt.ReportIDs[i]; id != "" {
			if w == nil {
				w = &oracleWindow{seen: map[string]struct{}{}}
				o.windows[appID] = w
			}
			w.mark(id)
		}
	}
	return fresh
}

func (w *oracleWindow) has(id string) bool {
	if w == nil {
		return false
	}
	_, ok := w.seen[id]
	return ok
}

func (o *oracle) checkpoint() {
	o.ckpt = map[int64]bool{}
	for _, up := range o.archived {
		o.ckpt[up.Seq] = true
	}
}

// killed is the oracle reopened after a kill: only what the checkpoint
// archived stays archived.
func (o *oracle) killed() {
	all := o.all()
	o.pending, o.archived = nil, nil
	for _, up := range all {
		if o.ckpt[up.Seq] {
			o.archived = append(o.archived, up)
		} else {
			o.pending = append(o.pending, up)
		}
	}
}

func (o *oracle) drain() []RawUpload {
	out := o.pending
	slices.SortFunc(out, bySeq)
	if o.archive {
		o.archived = append(o.archived, out...)
	}
	o.pending = nil
	return out
}

func (o *oracle) drainHistory() []AppHistory {
	o.pending = append(o.archived, o.pending...)
	o.archived = nil
	var out []AppHistory
	for _, up := range o.drain() {
		i := slices.IndexFunc(out, func(h AppHistory) bool { return h.AppID == up.AppID })
		if i < 0 {
			i = len(out)
			out = append(out, AppHistory{AppID: up.AppID})
		}
		out[i].Rows = append(out[i].Rows, up)
	}
	slices.SortFunc(out, func(a, b AppHistory) int { return strings.Compare(a.AppID, b.AppID) })
	return out
}

func (o *oracle) all() []RawUpload {
	out := append(slices.Clone(o.archived), o.pending...)
	slices.SortFunc(out, bySeq)
	return out
}

// snapshot encodes the oracle the way the store encoded RawUpload rows and
// map+[]string windows, with no cold rows.
func (o *oracle) snapshot(watermark uint64) []byte {
	type row struct {
		up       RawUpload
		archived bool
	}
	var rows []row
	for _, up := range o.archived {
		rows = append(rows, row{up, true})
	}
	for _, up := range o.pending {
		rows = append(rows, row{up, false})
	}
	slices.SortFunc(rows, func(a, b row) int { return cmp.Compare(a.up.Seq, b.up.Seq) })
	apps := make([]string, 0, len(o.windows))
	for app := range o.windows {
		apps = append(apps, app)
	}
	slices.Sort(apps)
	var buf bytes.Buffer
	sw := &sectionWriter{w: &buf}
	sw.write(snapMagic[:])
	hdr := wire.NewWriter([]byte{headerTag})
	hdr.PutUvarint(snapVersion)
	hdr.PutUvarint(watermark)
	hdr.PutVarint(o.seq)
	sw.emit(hdr.Bytes())
	writeRows(sw, uploadTag, rows, func(w *wire.Writer, r *row) {
		w.PutVarint(r.up.Seq)
		w.PutString(r.up.AppID)
		w.PutString(r.up.RequestID)
		putTime(w, r.up.Received)
		w.PutBool(r.archived)
		w.PutBytes(r.up.Body)
	})
	writeRows(sw, windowTag, apps, func(w *wire.Writer, app *string) {
		w.PutString(*app)
		w.PutUvarint(uint64(len(o.windows[*app].order)))
		for _, id := range o.windows[*app].order {
			w.PutString(id)
		}
	})
	end := wire.NewWriter([]byte{endTag})
	end.PutUvarint(uint64(sw.sections))
	sw.emit(end.Bytes())
	return buf.Bytes()
}

// agree fails unless st shows exactly what o holds: ReportSeen on probe,
// SeenReportIDs per app, AllUploads and the snapshot bytes.
func agree(t *testing.T, step int, what string, st *Store, o *oracle, watermark uint64, probe []string) {
	t.Helper()
	for app, w := range o.windows {
		want := slices.Clone(w.order)
		slices.Sort(want)
		if got := st.SeenReportIDs(app); !slices.Equal(got, want) {
			t.Fatalf("step %d, %s: SeenReportIDs(%s) holds %d ids, want %d", step, what, app, len(got), len(want))
		}
		for _, id := range probe {
			if _, want := w.seen[id]; st.ReportSeen(app, id) != want {
				t.Fatalf("step %d, %s: ReportSeen(%s, %s) = %v", step, what, app, id, !want)
			}
		}
	}
	if got, want := st.AllUploads(), o.all(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d, %s: AllUploads: %d rows, want %d", step, what, len(got), len(want))
	}
	got, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := o.snapshot(watermark); !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("step %d, %s: snapshot is %d bytes, want %d, first difference at %d", step, what, len(got), len(want), at)
	}
}

// TestHotTablesMatchOracle drives random ingests — new, repeated, evicted
// and in-batch duplicate ReportIDs, empty ids and bodies, one hot app
// past the 8 192-id window — and drains at random cadences through a
// Store and the oracle. At every step ReportSeen, SeenReportIDs,
// AllUploads, the drains and the snapshot bytes must agree: on a memory
// store swapped for Restore(Snapshot()) now and then, and on a durable
// leader checkpointed, reopened and killed mid-run, whose WAL a follower
// applies through ApplyReplicated and replays after kills of its own.
func TestHotTablesMatchOracle(t *testing.T) {
	steps, memBatch := 300, 200
	if testing.Short() {
		// Sixty steps of 200-report batches mark about 3 200 ids; larger
		// batches still fill the hot window and evict past it.
		steps, memBatch = 60, 1000
	}
	apps := []string{"hot", "app-b", "app-c", "app-d"}
	gen := func(rng *rand.Rand, maxBatch int, next *int, recent []string) (string, [][]byte, IngestOptions) {
		app := apps[0]
		if rng.IntN(10) < 3 {
			app = apps[1+rng.IntN(len(apps)-1)]
		}
		n := 1 + rng.IntN(maxBatch)
		if rng.IntN(3) == 0 {
			n = 1
		}
		opt := IngestOptions{ReportIDs: make([]string, n)}
		if rng.IntN(4) > 0 {
			opt.Received = time.Unix(1384513200+rng.Int64N(1e6), rng.Int64N(1e9)).UTC()
		}
		if rng.IntN(2) == 0 {
			opt.RequestID = fmt.Sprintf("req-%d", rng.IntN(5))
		}
		bodies := make([][]byte, n)
		for i := range bodies {
			switch rng.IntN(8) {
			case 0: // nil body
			case 1:
				bodies[i] = []byte{}
			default:
				bodies[i] = make([]byte, rng.IntN(40))
				for k := range bodies[i] {
					bodies[i][k] = byte(rng.Uint32())
				}
			}
			switch r := rng.IntN(20); {
			case r == 0: // unmarked
			case r < 3 && len(recent) > 0: // a retransmission, maybe long evicted
				opt.ReportIDs[i] = recent[rng.IntN(len(recent))]
			case r < 4 && i > 0: // repeated within the call
				opt.ReportIDs[i] = opt.ReportIDs[rng.IntN(i)]
			default:
				*next++
				opt.ReportIDs[i] = fmt.Sprintf("r%d", *next)
			}
		}
		return app, bodies, opt
	}
	probe := func(opt IngestOptions, recent []string, rng *rand.Rand) []string {
		ids := slices.Clone(opt.ReportIDs)
		for range 8 {
			if len(recent) > 0 {
				ids = append(ids, recent[rng.IntN(len(recent))])
			}
		}
		return append(ids, "never-sent")
	}
	ingest := func(t *testing.T, step int, st *Store, os []*oracle, app string, bodies [][]byte, opt IngestOptions) {
		t.Helper()
		res, err := st.Ingest(app, bodies, opt)
		if err != nil {
			t.Fatal(err)
		}
		var want []bool
		for _, o := range os {
			want = o.ingest(app, bodies, opt)
		}
		if !slices.Equal(res.Fresh, want) {
			t.Fatalf("step %d: Fresh = %v, want %v", step, res.Fresh, want)
		}
	}
	drain := func(t *testing.T, step int, rng *rand.Rand, st *Store, o *oracle) {
		t.Helper()
		switch rng.IntN(8) {
		case 0:
			if got, want := st.DrainHistory(), o.drainHistory(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: DrainHistory differs (%d apps, want %d)", step, len(got), len(want))
			}
		case 1, 2:
			if got, want := st.DrainUploads(), o.drain(); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("step %d: DrainUploads: %d rows, want %d", step, len(got), len(want))
			}
		}
	}

	t.Run("memory", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(49, 1))
		st, o := New(), newOracle(false)
		var recent []string
		next := 0
		for step := 0; step < steps; step++ {
			app, bodies, opt := gen(rng, memBatch, &next, recent)
			ingest(t, step, st, []*oracle{o}, app, bodies, opt)
			recent = append(recent, opt.ReportIDs...)
			drain(t, step, rng, st, o)
			if rng.IntN(20) == 0 {
				data, err := st.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if st, err = Restore(data); err != nil {
					t.Fatal(err)
				}
			}
			agree(t, step, "memory store", st, o, 0, probe(opt, recent, rng))
		}
		if len(o.windows["hot"].order) < reportWindowSize || next < reportWindowSize+1000 {
			t.Fatalf("generator too tame: %d ids marked, the hot window holds %d", next, len(o.windows["hot"].order))
		}
	})

	t.Run("durable", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(49, 2))
		dir, fdir := t.TempDir(), t.TempDir()
		open := func(dir string) (*DurableBackend, *Store) {
			b := NewDurableBackend(dir, WithSnapshotInterval(time.Hour), WithSegmentBytes(64<<10))
			st, err := b.Open()
			if err != nil {
				t.Fatal(err)
			}
			return b, st
		}
		lb, leader := open(dir)
		fb, follower := open(fdir)
		defer func() { lb.Close(); fb.Close() }()
		lo, fo := newOracle(true), newOracle(true)
		var recent []string
		next := 0
		for step := 0; step < steps/2; step++ {
			app, bodies, opt := gen(rng, 64, &next, recent)
			ingest(t, step, leader, []*oracle{lo, fo}, app, bodies, opt)
			recent = append(recent, opt.ReportIDs...)
			drain(t, step, rng, leader, lo)
			recs, err := lb.WAL().ReadAfter(follower.AppliedLSN(), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if err := follower.ApplyReplicated(follower.AppliedLSN()+1, rec); err != nil {
					t.Fatal(err)
				}
			}
			switch rng.IntN(24) {
			case 0:
				if err := lb.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				lo.checkpoint()
			case 1:
				lb.Close() // checkpoints
				lo.checkpoint()
				lb, leader = open(dir)
			case 2:
				lb.Kill()
				lo.killed()
				lb, leader = open(dir)
			case 3:
				if err := follower.WaitDurable(follower.AppliedLSN()); err != nil {
					t.Fatal(err)
				}
				fb.Kill()
				fb, follower = open(fdir)
			}
			ids := probe(opt, recent, rng)
			agree(t, step, "leader", leader, lo, leader.AppliedLSN(), ids)
			agree(t, step, "follower", follower, fo, follower.AppliedLSN(), ids)
		}
	})
}

// TestCaptureOutlivesLaterWrites: a checkpoint encodes its image after
// releasing the locks, so nothing written after capture may reach it —
// not marks that evict from a full window (they overwrite ring slots) or
// outgrow its arena, not rows appended to a chunk or bytes to a slab, not
// a memory store's drain, which lets the slabs go.
func TestCaptureOutlivesLaterWrites(t *testing.T) {
	s := New()
	mark := func(from, to int) {
		for i := from; i < to; i += 50 {
			ids := make([]string, 50)
			bodies := make([][]byte, 50)
			for k := range ids {
				ids[k], bodies[k] = fmt.Sprintf("r-%d", i+k), fmt.Appendf(nil, "body-%d", i+k)
			}
			if _, err := s.Ingest("a1", bodies, IngestOptions{Received: now, RequestID: "req", ReportIDs: ids}); err != nil {
				t.Fatal(err)
			}
		}
	}
	mark(0, reportWindowSize+500)
	s.DrainUploads()
	mark(reportWindowSize+500, reportWindowSize+700)
	want, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	img := s.capture()
	mark(reportWindowSize+700, 3*reportWindowSize)
	s.DrainUploads()
	mark(3*reportWindowSize, 3*reportWindowSize+100)
	var got bytes.Buffer
	if _, err := img.writeTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("writes after the capture reached the image")
	}
}

// TestIngestDrainCheckpointRace races ingest (windows filling past 8 192
// ids and evicting), drains and checkpoints over the hot tables; run it
// under -race. A memory store's snapshots must each restore while drains
// let slabs go; a durable store, checkpointed throughout and then killed,
// must reopen holding every acked report once, and the same windows.
func TestIngestDrainCheckpointRace(t *testing.T) {
	const writers = 3
	perWriter := reportWindowSize * 5 / 4 // every fifth report a retransmission
	if testing.Short() {
		perWriter = 2000
	}
	race := func(t *testing.T, st *Store, cut func() error) (acked map[string]bool) {
		acked = map[string]bool{}
		var mu sync.Mutex
		stop := make(chan struct{})
		var wg, bg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				app := fmt.Sprintf("app-%d", w)
				for i := 0; i < perWriter; i++ {
					body, id := fmt.Sprintf("%s/%d", app, i), i
					if i%5 == 4 {
						id--
					}
					res, err := st.Ingest(app, [][]byte{[]byte(body)}, IngestOptions{Received: now,
						RequestID: fmt.Sprint("req-", i%7), ReportIDs: []string{fmt.Sprint("r", id)}})
					if err != nil {
						t.Error(err)
						return
					}
					if res.Fresh[0] {
						mu.Lock()
						acked[body] = true
						mu.Unlock()
					}
				}
			}()
		}
		for _, fn := range []func() error{cut, func() error {
			if rows := st.DrainUploads(); len(rows) > 0 && len(rows[0].Body) == 0 {
				return fmt.Errorf("drained row %d without its body", rows[0].Seq)
			}
			return nil
		}} {
			bg.Add(1)
			go func() {
				defer bg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := fn(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		bg.Wait()
		return acked
	}

	t.Run("memory", func(t *testing.T) {
		st := New()
		race(t, st, func() error {
			data, err := st.Snapshot()
			if err == nil {
				_, err = Restore(data)
			}
			return err
		})
	})

	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		b := NewDurableBackend(dir, WithSnapshotInterval(time.Hour), WithSegmentBytes(64<<10))
		st, err := b.Open()
		if err != nil {
			t.Fatal(err)
		}
		acked := race(t, st, b.Checkpoint)
		windows := map[string][]string{}
		for w := 0; w < writers; w++ {
			app := fmt.Sprintf("app-%d", w)
			windows[app] = st.SeenReportIDs(app)
		}
		b.Kill()
		b2 := NewDurableBackend(dir, WithSnapshotInterval(time.Hour))
		reopened, err := b2.Open()
		if err != nil {
			t.Fatal(err)
		}
		defer b2.Close()
		held := reopened.AllUploads()
		for _, up := range held {
			if !acked[string(up.Body)] {
				t.Fatalf("reopened store holds %q, never acked or held twice", up.Body)
			}
			delete(acked, string(up.Body))
		}
		if len(acked) > 0 {
			t.Fatalf("reopened store lost %d acked reports", len(acked))
		}
		for app, want := range windows {
			if len(want) != reportWindowSize && !testing.Short() {
				t.Fatalf("%s: the window holds %d ids, never filled", app, len(want))
			}
			if got := reopened.SeenReportIDs(app); !slices.Equal(got, want) {
				t.Fatalf("%s: reopened window holds %d ids, want %d", app, len(got), len(want))
			}
		}
	})
}
