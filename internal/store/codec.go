package store

import (
	"errors"
	"fmt"
	"math"
	"time"
	"unsafe"

	"sor/internal/wire"
)

// The row codec: one binary encoding for every row the store persists,
// whether it travels as a WAL record (tag byte + one row) or inside a
// snapshot section (tag byte + row count + a run of rows). The primitives
// are wire.Writer and wire.Reader: uvarint-length-prefixed strings and
// bodies (an empty body decodes as nil), varint integers, raw IEEE-754
// float bits (NaN, ±Inf and −0 survive bit for bit) and bool bytes. What
// is the store's own is below: the tags, the time encoding, the archived
// flag and string interning on restore. Decoding adds no limit the write
// side lacks — strings, bodies and counts are bounded only by the record,
// because the store must never refuse on replay what it accepted on write.

// Row tags: the first byte of every WAL record and of every snapshot
// section. The last four only ever appear in a snapshot.
const (
	ingestTag byte = iota + 1 // Ingest: stored bodies + their dedup marks
	userTag                   // PutUser
	appTag                    // PutApp
	partTag                   // PutParticipation / UpdateParticipation (full row)
	featTag                   // UpsertFeature
	schedTag                  // PutSchedule
	anchorTag                 // PutAnchor
	uploadTag                 // one stored upload, pending or archived
	windowTag                 // one application's dedup window, oldest first
	headerTag                 // snapshot header: version, watermark, uploadSeq
	endTag                    // snapshot trailer: how many row sections precede it
)

var tagNames = [...]string{
	ingestTag: "ingest", userTag: "user", appTag: "app", partTag: "part",
	featTag: "feat", schedTag: "sched", anchorTag: "anchor", uploadTag: "upload",
	windowTag: "window", headerTag: "header", endTag: "end",
}

func tagName(tag byte) string {
	if int(tag) < len(tagNames) && tagNames[tag] != "" {
		return tagNames[tag]
	}
	return fmt.Sprintf("tag 0x%02x", tag)
}

// errUpgrade is what a JSON WAL record or snapshot — everything a data
// dir held before the row codec — decodes to.
var errUpgrade = errors.New("written by a build before the binary row codec; see docs/upgrade.md")

// ---- Encoding ----

// putTime writes the zero time as uvarint 0, anything else as
// uvarint(nanoseconds+1) then varint(Unix seconds).
func putTime(w *wire.Writer, t time.Time) {
	sec, nsec := stamp(t)
	putStamp(w, sec, nsec)
}

// putStamp is putTime of a time held as stamp returns it.
func putStamp(w *wire.Writer, sec int64, nsec uint32) {
	w.PutUvarint(uint64(nsec))
	if nsec != 0 {
		w.PutVarint(sec)
	}
}

func putUser(w *wire.Writer, u *User) {
	w.PutString(u.ID)
	w.PutString(u.Name)
	w.PutString(u.Token)
}

func putApp(w *wire.Writer, a *Application) {
	w.PutString(a.ID)
	w.PutString(a.Creator)
	w.PutString(a.Category)
	w.PutString(a.Place)
	w.PutFloat(a.Lat)
	w.PutFloat(a.Lon)
	w.PutFloat(a.RadiusM)
	w.PutString(a.Script)
	w.PutVarint(a.PeriodSec)
}

func putPart(w *wire.Writer, p *Participation) {
	w.PutString(p.TaskID)
	w.PutString(p.UserID)
	w.PutString(p.Token)
	w.PutString(p.AppID)
	w.PutVarint(int64(p.Budget))
	w.PutVarint(int64(p.Status))
	putTime(w, p.Joined)
	putTime(w, p.LeaveBy)
	putTime(w, p.Left)
	w.PutString(p.LastErr)
}

func putFeat(w *wire.Writer, f *FeatureRow) {
	w.PutString(f.Category)
	w.PutString(f.Place)
	w.PutString(f.Feature)
	w.PutFloat(f.Value)
	w.PutVarint(int64(f.Samples))
	putTime(w, f.Updated)
}

func putSched(w *wire.Writer, r *ScheduleRow) {
	w.PutString(r.TaskID)
	w.PutString(r.AppID)
	w.PutString(r.UserID)
	w.PutUvarint(uint64(len(r.AtUnix)))
	for _, at := range r.AtUnix {
		w.PutVarint(at)
	}
}

func putAnchor(w *wire.Writer, a *AnchorRow) {
	w.PutString(a.AppID)
	w.PutVarint(a.AnchorUnix)
}

// storedUpload is one upload row as a snapshot holds it: the row, the
// cut of its shard, and which side of the drain it was on.
type storedUpload struct {
	*uploadRow
	cut      *shardCut
	archived bool
}

func putUpload(w *wire.Writer, up *storedUpload) {
	w.PutVarint(up.seq)
	w.PutString(up.cut.apps[up.app])
	w.PutBytes(up.cut.bytes(up.req))
	putStamp(w, up.sec, up.nsec)
	w.PutBool(up.archived)
	w.PutBytes(up.cut.bytes(up.body))
}

func putWindow(w *wire.Writer, win *windowCut) {
	w.PutString(win.appID)
	w.PutUvarint(uint64(len(win.ids)))
	win.each(w.PutBytes)
}

// appendIngestRecord renders one Ingest call as a WAL record:
//
//	ingestTag | appID | requestID | received | baseSeq | nbodies |
//	   bodies... | nids | ids...
//
// It appends (callers recycle the buffer through encPool; wal.Enqueue
// copies the payload before returning).
func appendIngestRecord(buf []byte, appID string, baseSeq int64, received time.Time, requestID string, bodies [][]byte, ids []string) []byte {
	w := wire.NewWriter(append(buf, ingestTag))
	w.PutString(appID)
	w.PutString(requestID)
	putTime(w, received)
	w.PutVarint(baseSeq)
	w.PutUvarint(uint64(len(bodies)))
	for _, body := range bodies {
		w.PutBytes(body)
	}
	w.PutUvarint(uint64(len(ids)))
	for _, id := range ids {
		w.PutString(id)
	}
	return w.Bytes()
}

// ---- Decoding ----

// Row decoders read from a shared wire.Reader; the caller checks r.Err()
// (through finish) once the row or section is done. Composite-literal
// fields are evaluated left to right, so each literal reads its fields in
// encoding order.

// str reads a string field with no bound but the record's.
func str(r *wire.Reader) string { return string(r.Raw()) }

// alias reads a string field as a view of the input; nothing may keep it.
func alias(r *wire.Reader) string {
	p := r.Raw()
	return unsafe.String(unsafe.SliceData(p), len(p))
}

// interner shares one string among the rows of a restore for the
// low-cardinality fields (the app IDs of participations, schedules and
// uploads). A nil interner copies every string, as str does.
type interner map[string]string

func (in interner) str(r *wire.Reader) string {
	p := r.Raw()
	if in == nil {
		return string(p)
	}
	if s, ok := in[string(p)]; ok {
		return s
	}
	s := string(p)
	in[s] = s
	return s
}

func readTime(r *wire.Reader) time.Time {
	ns := r.Uvarint()
	if ns == 0 {
		return time.Time{}
	}
	if ns > 1e9 {
		r.Fail(fmt.Errorf("%w: time with %d nanoseconds", wire.ErrBadPayload, ns-1))
		return time.Time{}
	}
	return time.Unix(r.Varint(), int64(ns-1)).UTC()
}

func readUser(r *wire.Reader) User {
	return User{ID: str(r), Name: str(r), Token: str(r)}
}

// readApp reads an application whose strings but its ID alias r's input:
// the apps table copies the ones it keeps (setApp).
func readApp(r *wire.Reader) Application {
	return Application{
		ID: str(r), Creator: alias(r), Category: alias(r), Place: alias(r),
		Lat: r.Float(), Lon: r.Float(), RadiusM: r.Float(),
		Script: alias(r), PeriodSec: r.Varint(),
	}
}

func readPart(r *wire.Reader, in interner) Participation {
	return Participation{
		TaskID: str(r), UserID: str(r), Token: str(r), AppID: in.str(r),
		Budget: int(r.Varint()), Status: TaskStatus(r.Varint()),
		Joined: readTime(r), LeaveBy: readTime(r), Left: readTime(r), LastErr: str(r),
	}
}

// readFeat reads a feature row whose names alias r's input: the feature
// table copies the names it keeps (featTable.put), so a replayed or
// restored cell leaves no string behind.
func readFeat(r *wire.Reader) FeatureRow {
	return FeatureRow{
		Category: alias(r), Place: alias(r), Feature: alias(r),
		Value: r.Float(), Samples: int(r.Varint()), Updated: readTime(r),
	}
}

func readSched(r *wire.Reader, in interner) ScheduleRow {
	row := ScheduleRow{TaskID: str(r), AppID: in.str(r), UserID: str(r)}
	if n := r.Count(math.MaxInt); n > 0 {
		row.AtUnix = make([]int64, n)
		for i := range row.AtUnix {
			row.AtUnix[i] = r.Varint()
		}
	}
	return row
}

func readAnchor(r *wire.Reader) AnchorRow {
	return AnchorRow{AppID: str(r), AnchorUnix: r.Varint()}
}

// readUpload reads an upload row and its archived flag into its shard of
// s, copying the bytes into the shard's slabs.
func (s *Store) readUpload(r *wire.Reader, in interner) {
	seq, appID, req, received := r.Varint(), in.str(r), r.Raw(), readTime(r)
	archived := r.Bool()
	body := r.Raw()
	if r.Err() != nil {
		return
	}
	sh := &s.uploadShards[shardIndex(appID)]
	sh.add(sh.row(appID, seq, received, req, body), archived)
}

// readWindow reads one application's dedup window into s, refusing a
// second window for the app and an id that repeats.
func (s *Store) readWindow(r *wire.Reader) error {
	appID := str(r)
	sh := &s.uploadShards[shardIndex(appID)]
	if _, dup := sh.windows[appID]; dup {
		return fmt.Errorf("second window for app %q", appID)
	}
	w := sh.window(appID)
	for n := r.Count(reportWindowSize); n > 0 && r.Err() == nil; n-- {
		if id := r.Raw(); r.Err() == nil && !w.mark(id) {
			return fmt.Errorf("window for app %q repeats an id", appID)
		}
	}
	return nil
}

// readIngest reads an ingest record; its bodies and ids alias the record.
func readIngest(r *wire.Reader) ingestOp {
	in := ingestOp{AppID: str(r), RequestID: r.Raw(), Received: readTime(r), BaseSeq: r.Varint()}
	in.Bodies = make([][]byte, r.Count(math.MaxInt))
	for i := range in.Bodies {
		in.Bodies[i] = r.Raw()
	}
	// Marks parallel the bodies, or there are none.
	if n := r.Count(math.MaxInt); n > 0 {
		if n != len(in.Bodies) {
			r.Fail(fmt.Errorf("%w: %d marks for %d bodies", wire.ErrBadPayload, n, len(in.Bodies)))
			return in
		}
		in.ReportIDs = make([][]byte, n)
		for i := range in.ReportIDs {
			in.ReportIDs[i] = r.Raw()
		}
	}
	return in
}

// finish reports whether r decoded exactly its input, naming what failed.
func finish(r *wire.Reader, what string) error {
	if r.Remaining() != 0 {
		r.Fail(fmt.Errorf("%w: %d trailing bytes", wire.ErrBadPayload, r.Remaining()))
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("store: malformed %s: %w", what, err)
	}
	return nil
}
