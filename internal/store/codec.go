package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// The row codec: one binary encoding for every row the store persists,
// whether it travels as a WAL record (tag byte + one row) or inside a
// snapshot section (tag byte + row count + a run of rows). Strings and
// byte slices are uvarint-length-prefixed, integers varint, floats their
// raw IEEE-754 bits (8 bytes LE, so NaN, ±Inf and −0 survive bit for
// bit), and times Unix seconds + nanoseconds with the zero time.Time
// encoded distinctly; times always decode in UTC.

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

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBlob(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// appendTime writes the zero time as a single 0, anything else as
// uvarint(nanoseconds+1) then varint(Unix seconds).
func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(t.Nanosecond())+1)
	return binary.AppendVarint(b, t.Unix())
}

func appendUser(b []byte, u *User) []byte {
	b = appendString(b, u.ID)
	b = appendString(b, u.Name)
	return appendString(b, u.Token)
}

func appendApp(b []byte, a *Application) []byte {
	b = appendString(b, a.ID)
	b = appendString(b, a.Creator)
	b = appendString(b, a.Category)
	b = appendString(b, a.Place)
	b = appendFloat(b, a.Lat)
	b = appendFloat(b, a.Lon)
	b = appendFloat(b, a.RadiusM)
	b = appendString(b, a.Script)
	return binary.AppendVarint(b, a.PeriodSec)
}

func appendPart(b []byte, p *Participation) []byte {
	b = appendString(b, p.TaskID)
	b = appendString(b, p.UserID)
	b = appendString(b, p.Token)
	b = appendString(b, p.AppID)
	b = binary.AppendVarint(b, int64(p.Budget))
	b = binary.AppendVarint(b, int64(p.Status))
	b = appendTime(b, p.Joined)
	b = appendTime(b, p.LeaveBy)
	b = appendTime(b, p.Left)
	return appendString(b, p.LastErr)
}

func appendFeat(b []byte, f *FeatureRow) []byte {
	b = appendString(b, f.Category)
	b = appendString(b, f.Place)
	b = appendString(b, f.Feature)
	b = appendFloat(b, f.Value)
	b = binary.AppendVarint(b, int64(f.Samples))
	return appendTime(b, f.Updated)
}

func appendSched(b []byte, r *ScheduleRow) []byte {
	b = appendString(b, r.TaskID)
	b = appendString(b, r.AppID)
	b = appendString(b, r.UserID)
	b = binary.AppendUvarint(b, uint64(len(r.AtUnix)))
	for _, at := range r.AtUnix {
		b = binary.AppendVarint(b, at)
	}
	return b
}

func appendAnchor(b []byte, a *AnchorRow) []byte {
	b = appendString(b, a.AppID)
	return binary.AppendVarint(b, a.AnchorUnix)
}

// storedUpload is one upload row as a snapshot holds it: the row plus
// which side of the drain it was on.
type storedUpload struct {
	*RawUpload
	archived bool
}

func appendUpload(b []byte, up *storedUpload) []byte {
	b = binary.AppendVarint(b, up.Seq)
	b = appendString(b, up.AppID)
	b = appendString(b, up.RequestID)
	b = appendTime(b, up.Received)
	archived := byte(0)
	if up.archived {
		archived = 1
	}
	b = append(b, archived)
	return appendBlob(b, up.Body)
}

func appendWindow(b []byte, w *ReportWindowRow) []byte {
	b = appendString(b, w.AppID)
	b = binary.AppendUvarint(b, uint64(len(w.IDs)))
	for _, id := range w.IDs {
		b = appendString(b, id)
	}
	return b
}

// appendIngestRecord renders one Ingest call as a WAL record:
//
//	ingestTag | appID | requestID | received | baseSeq | nbodies |
//	   bodies... | nids | ids...
//
// It appends (callers recycle the buffer through ingestEncPool;
// wal.Enqueue copies the payload before returning).
func appendIngestRecord(buf []byte, appID string, baseSeq int64, received time.Time, requestID string, rows []RawUpload, ids []string) []byte {
	buf = append(buf, ingestTag)
	buf = appendString(buf, appID)
	buf = appendString(buf, requestID)
	buf = appendTime(buf, received)
	buf = binary.AppendVarint(buf, baseSeq)
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for i := range rows {
		buf = appendBlob(buf, rows[i].Body)
	}
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = appendString(buf, id)
	}
	return buf
}

// ---- Decoding ----

// rowReader decodes rows from b. The first malformed field makes it bad:
// every later read returns a zero value, and the caller checks bad (or
// finish) once the row is done instead of after every field.
type rowReader struct {
	b   []byte
	bad bool
	// intern, when set, shares one string among the rows of a restore for
	// the low-cardinality fields (categories, feature names, app IDs).
	intern map[string]string
}

func (r *rowReader) fail() {
	r.bad = true
	r.b = nil
}

func (r *rowReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *rowReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads an element count, refusing one the remaining bytes cannot
// hold at one byte per element (no allocation sized by a corrupt field).
func (r *rowReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return 0
	}
	return int(n)
}

// raw returns the next length-prefixed field, aliasing the input.
func (r *rowReader) raw() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *rowReader) str() string { return string(r.raw()) }

// shared is str for a low-cardinality field.
func (r *rowReader) shared() string {
	p := r.raw()
	if r.intern == nil {
		return string(p)
	}
	if s, ok := r.intern[string(p)]; ok {
		return s
	}
	s := string(p)
	r.intern[s] = s
	return s
}

// blob copies the next byte field out of the input; empty decodes as nil.
func (r *rowReader) blob() []byte {
	p := r.raw()
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

func (r *rowReader) float() float64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return math.Float64frombits(v)
}

func (r *rowReader) time() time.Time {
	ns := r.uvarint()
	if ns == 0 {
		return time.Time{}
	}
	if ns > 1e9 {
		r.fail()
		return time.Time{}
	}
	return time.Unix(r.varint(), int64(ns-1)).UTC()
}

func (r *rowReader) flag() bool {
	if len(r.b) == 0 || r.b[0] > 1 {
		r.fail()
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

// Row decoders. Composite-literal fields are evaluated left to right, so
// each literal reads its fields in encoding order.

func (r *rowReader) user() User {
	return User{ID: r.str(), Name: r.str(), Token: r.str()}
}

func (r *rowReader) app() Application {
	return Application{
		ID: r.str(), Creator: r.str(), Category: r.shared(), Place: r.str(),
		Lat: r.float(), Lon: r.float(), RadiusM: r.float(),
		Script: r.shared(), PeriodSec: r.varint(),
	}
}

func (r *rowReader) part() Participation {
	return Participation{
		TaskID: r.str(), UserID: r.str(), Token: r.str(), AppID: r.shared(),
		Budget: int(r.varint()), Status: TaskStatus(r.varint()),
		Joined: r.time(), LeaveBy: r.time(), Left: r.time(), LastErr: r.str(),
	}
}

func (r *rowReader) feat() FeatureRow {
	return FeatureRow{
		Category: r.shared(), Place: r.str(), Feature: r.shared(),
		Value: r.float(), Samples: int(r.varint()), Updated: r.time(),
	}
}

func (r *rowReader) sched() ScheduleRow {
	row := ScheduleRow{TaskID: r.str(), AppID: r.shared(), UserID: r.str()}
	if n := r.count(); n > 0 {
		row.AtUnix = make([]int64, n)
		for i := range row.AtUnix {
			row.AtUnix[i] = r.varint()
		}
	}
	return row
}

func (r *rowReader) anchor() AnchorRow {
	return AnchorRow{AppID: r.str(), AnchorUnix: r.varint()}
}

func (r *rowReader) upload() (RawUpload, bool) {
	up := RawUpload{Seq: r.varint(), AppID: r.shared(), RequestID: r.str(), Received: r.time()}
	archived := r.flag()
	up.Body = r.blob()
	return up, archived
}

func (r *rowReader) window() ReportWindowRow {
	w := ReportWindowRow{AppID: r.str()}
	n := r.count()
	if n > reportWindowSize {
		r.fail()
		return w
	}
	w.IDs = make([]string, n)
	for i := range w.IDs {
		w.IDs[i] = r.str()
	}
	return w
}

func (r *rowReader) ingest() ingestOp {
	in := ingestOp{AppID: r.str(), RequestID: r.str(), Received: r.time(), BaseSeq: r.varint()}
	in.Bodies = make([][]byte, r.count())
	for i := range in.Bodies {
		in.Bodies[i] = r.blob()
	}
	// Marks parallel the bodies, or there are none.
	if n := r.count(); n > 0 {
		if n != len(in.Bodies) {
			r.fail()
			return in
		}
		in.ReportIDs = make([]string, n)
		for i := range in.ReportIDs {
			in.ReportIDs[i] = r.str()
		}
	}
	return in
}

// finish reports whether the reader decoded exactly its input.
func (r *rowReader) finish(what string) error {
	if r.bad || len(r.b) != 0 {
		return fmt.Errorf("store: malformed %s", what)
	}
	return nil
}
