package store

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"sor/internal/wal"
	"sor/internal/wire"
)

// A snapshot is the store written as a compacted log in the row codec
// (codec.go):
//
//	magic "SORSNAP\n"
//	frame(headerTag | uvarint version | uvarint watermark LSN | varint uploadSeq)
//	frame(tag | rows uint32 LE | rows...)    per non-empty table, one or more
//	frame(endTag | uvarint row sections)
//
// Every frame is the WAL's own len|crc32c|payload (wal.AppendRecord), so
// a torn or bit-flipped section fails its CRC exactly as a WAL record
// does. A table past sectionBytes continues in another section of its
// tag; the end section makes a file cut at a section boundary
// detectably short.
var snapMagic = [8]byte{'S', 'O', 'R', 'S', 'N', 'A', 'P', '\n'}

const snapVersion = 1

// sectionBytes is where the encoder closes a section and opens the next:
// large enough that framing is noise, small enough that the encode buffer
// is nothing beside the image and no section nears wal.MaxRecord.
const sectionBytes = 1 << 20

// image is one cut of the store: what a checkpoint captures while it
// write-holds snapMu, to sort and encode after releasing it. Nothing in
// it is written after the capture. Cold rows are value copies. Upload
// chunks are copies of the shards' outer slices: a row below a captured
// chunk length is never rewritten (appendRow writes past it, take only
// swaps outer-slice elements). Window IDs are each window's order slice
// header, whose elements mark never rewrites either (it reslices the
// front and appends).
type image struct {
	watermark uint64
	uploadSeq int64

	users   []User
	apps    []Application
	parts   []Participation
	feats   []FeatureRow
	scheds  []ScheduleRow
	anchors []AnchorRow
	windows []ReportWindowRow

	pending, archived [][]RawUpload
}

// ReportWindowRow is one application's dedup window in a snapshot (IDs
// oldest first, so Restore rebuilds the same eviction order).
type ReportWindowRow struct {
	AppID string
	IDs   []string
}

// capture cuts an image. Holding snapMu exclusively parks every mutator
// (each holds the read side across its log+apply pair), so the image
// plus the WAL records above its watermark are an exact partition of
// history; the work done under it is copying the cold tables.
func (s *Store) capture() *image {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	img := &image{uploadSeq: s.uploadSeq.Load()}
	if s.wal != nil {
		img.watermark = s.wal.LastLSN()
	}
	for i := range s.uploadShards {
		// Drains do not take snapMu: the shard lock orders them.
		sh := &s.uploadShards[i]
		sh.mu.Lock()
		img.pending = append(img.pending, sh.chunks...)
		img.archived = append(img.archived, sh.done...)
		sh.mu.Unlock()
	}
	for i := range s.schedShards {
		sh := &s.schedShards[i]
		sh.mu.RLock()
		for _, r := range sh.rows {
			img.scheds = append(img.scheds, r)
		}
		sh.mu.RUnlock()
	}
	for i := range s.dedupShards {
		sh := &s.dedupShards[i]
		sh.mu.Lock()
		for appID, w := range sh.apps {
			img.windows = append(img.windows, ReportWindowRow{AppID: appID, IDs: w.order})
		}
		sh.mu.Unlock()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	img.users = values(s.users)
	img.apps = values(s.apps)
	img.parts = values(s.participations)
	img.feats = values(s.features)
	img.anchors = make([]AnchorRow, 0, len(s.anchors))
	for appID, unix := range s.anchors {
		img.anchors = append(img.anchors, AnchorRow{AppID: appID, AnchorUnix: unix})
	}
	return img
}

func values[K comparable, V any](m map[K]V) []V {
	out := make([]V, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// writeTo sorts the image into its canonical order — equal stores encode
// to equal bytes — and streams it to w section by section.
func (img *image) writeTo(w io.Writer) (int64, error) {
	slices.SortFunc(img.users, func(a, b User) int { return strings.Compare(a.ID, b.ID) })
	slices.SortFunc(img.apps, func(a, b Application) int { return strings.Compare(a.ID, b.ID) })
	slices.SortFunc(img.parts, func(a, b Participation) int { return strings.Compare(a.TaskID, b.TaskID) })
	slices.SortFunc(img.feats, func(a, b FeatureRow) int {
		return cmp.Or(strings.Compare(a.Category, b.Category),
			strings.Compare(a.Place, b.Place), strings.Compare(a.Feature, b.Feature))
	})
	slices.SortFunc(img.scheds, func(a, b ScheduleRow) int { return strings.Compare(a.TaskID, b.TaskID) })
	slices.SortFunc(img.anchors, func(a, b AnchorRow) int { return strings.Compare(a.AppID, b.AppID) })
	slices.SortFunc(img.windows, func(a, b ReportWindowRow) int { return strings.Compare(a.AppID, b.AppID) })
	var uploads []storedUpload
	for _, side := range []struct {
		chunks   [][]RawUpload
		archived bool
	}{{img.archived, true}, {img.pending, false}} {
		for _, c := range side.chunks {
			for i := range c {
				uploads = append(uploads, storedUpload{&c[i], side.archived})
			}
		}
	}
	slices.SortFunc(uploads, func(a, b storedUpload) int { return cmp.Compare(a.Seq, b.Seq) })

	sw := &sectionWriter{w: w}
	sw.write(snapMagic[:])
	hdr := wire.NewWriter([]byte{headerTag})
	hdr.PutUvarint(snapVersion)
	hdr.PutUvarint(img.watermark)
	hdr.PutVarint(img.uploadSeq)
	sw.emit(hdr.Bytes())
	writeRows(sw, userTag, img.users, putUser)
	writeRows(sw, appTag, img.apps, putApp)
	writeRows(sw, partTag, img.parts, putPart)
	writeRows(sw, featTag, img.feats, putFeat)
	writeRows(sw, schedTag, img.scheds, putSched)
	writeRows(sw, anchorTag, img.anchors, putAnchor)
	writeRows(sw, uploadTag, uploads, putUpload)
	writeRows(sw, windowTag, img.windows, putWindow)
	end := wire.NewWriter([]byte{endTag})
	end.PutUvarint(uint64(sw.sections))
	sw.emit(end.Bytes())
	return sw.n, sw.err
}

// sectionWriter frames sections onto w, remembering the first error.
type sectionWriter struct {
	w        io.Writer
	n        int64
	err      error
	sec      wire.Writer // the open section: tag | rows uint32 | rows...
	rows     uint32
	frame    []byte
	sections int // row sections emitted
}

func (sw *sectionWriter) write(p []byte) {
	if sw.err != nil {
		return
	}
	n, err := sw.w.Write(p)
	sw.n += int64(n)
	sw.err = err
}

func (sw *sectionWriter) emit(payload []byte) {
	if len(payload) > wal.MaxRecord {
		sw.err = cmp.Or(sw.err, fmt.Errorf("store: snapshot section of %d bytes exceeds %d", len(payload), wal.MaxRecord))
		return
	}
	sw.frame = wal.AppendRecord(sw.frame[:0], payload)
	sw.write(sw.frame)
}

// open starts an empty section of tag in the reused section buffer.
func (sw *sectionWriter) open(tag byte) {
	sw.sec, sw.rows = *wire.NewWriter(append(sw.sec.Bytes()[:0], tag, 0, 0, 0, 0)), 0
}

// flush emits the open section, if it holds a row, and opens the next.
func (sw *sectionWriter) flush() {
	if sw.rows == 0 {
		return
	}
	sec := sw.sec.Bytes()
	binary.LittleEndian.PutUint32(sec[1:5], sw.rows)
	sw.emit(sec)
	sw.sections++
	sw.open(sec[0])
}

// writeRows encodes one table as one or more sections of tag.
func writeRows[T any](sw *sectionWriter, tag byte, rows []T, enc func(*wire.Writer, *T)) {
	sw.open(tag)
	for i := range rows {
		enc(&sw.sec, &rows[i])
		if sw.rows++; len(sw.sec.Bytes()) >= sectionBytes {
			sw.flush()
		}
	}
	sw.flush()
}

// Snapshot encodes an exact cut of the store.
func (s *Store) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := s.capture().writeTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Restore loads a snapshot into a fresh store. It decodes section by
// section through the row decoders, copying every row out of data, and
// returns either the whole store or an error naming the first section
// that failed its CRC or its decode — never a partial store.
func Restore(data []byte) (*Store, error) {
	if err := checkMagic(data); err != nil {
		return nil, err
	}
	s := New()
	intern := make(interner)
	off := len(snapMagic)
	for i := 0; ; i++ {
		payload, n, err := wal.DecodeRecord(data[off:])
		switch {
		case err != nil:
		case n == 0:
			err = errors.New("truncated: the file ends without an end section")
		case len(payload) == 0:
			err = errors.New("empty section")
		case i == 0:
			if payload[0] != headerTag {
				err = fmt.Errorf("want the header first, found %s", tagName(payload[0]))
				break
			}
			var version uint64
			var seq int64
			version, s.restoredLSN, seq, err = decodeHeader(payload)
			s.uploadSeq.Store(seq)
			if err == nil && version != snapVersion {
				err = fmt.Errorf("unsupported snapshot version %d (this build reads %d)", version, snapVersion)
			}
		case payload[0] == endTag:
			if err = checkEnd(payload, i-1, len(data)-off-n); err == nil {
				return s, nil
			}
		default:
			err = s.restoreSection(payload, intern)
		}
		if err != nil {
			kind := ""
			if len(payload) > 0 {
				kind = " (" + tagName(payload[0]) + ")"
			}
			return nil, fmt.Errorf("store: snapshot section %d%s at offset %d: %w", i, kind, off, err)
		}
		off += n
	}
}

func checkMagic(data []byte) error {
	if len(data) > 0 && data[0] == '{' {
		return fmt.Errorf("store: JSON snapshot %w", errUpgrade)
	}
	if !bytes.HasPrefix(data, snapMagic[:]) {
		return errors.New("store: not a snapshot (bad magic)")
	}
	return nil
}

func decodeHeader(payload []byte) (version, watermark uint64, uploadSeq int64, err error) {
	r := wire.NewReader(payload[1:])
	version, watermark, uploadSeq = r.Uvarint(), r.Uvarint(), r.Varint()
	return version, watermark, uploadSeq, finish(r, "header")
}

// checkEnd validates the end section: it must count the row sections
// before it and be the last bytes of the file.
func checkEnd(payload []byte, sections, trailing int) error {
	r := wire.NewReader(payload[1:])
	got := r.Uvarint()
	if err := finish(r, "end section"); err != nil {
		return err
	}
	if got != uint64(sections) {
		return fmt.Errorf("end section counts %d row sections, found %d", got, sections)
	}
	if trailing != 0 {
		return fmt.Errorf("%d bytes after the end section", trailing)
	}
	return nil
}

// restoreSection applies one row section to a store nobody else holds.
func (s *Store) restoreSection(payload []byte, in interner) error {
	tag := payload[0]
	if len(payload) < 5 {
		return errors.New("short section")
	}
	rows := binary.LittleEndian.Uint32(payload[1:5])
	r := wire.NewReader(payload[5:])
	for i := uint32(0); i < rows && r.Err() == nil; i++ {
		switch tag {
		case userTag:
			u := readUser(r)
			s.users[u.ID] = u
		case appTag:
			a := readApp(r, in)
			s.apps[a.ID] = a
		case partTag:
			s.setParticipation(readPart(r, in))
		case featTag:
			f := readFeat(r, in)
			s.features[featureKey{f.Category, f.Place, f.Feature}] = f
		case schedTag:
			row := readSched(r, in)
			s.schedShards[shardIndex(row.TaskID)].rows[row.TaskID] = row
		case anchorTag:
			a := readAnchor(r)
			s.anchors[a.AppID] = a.AnchorUnix
		case uploadTag:
			up, archived := readUpload(r, in)
			if sh := &s.uploadShards[shardIndex(up.AppID)]; archived {
				sh.putArchived(up)
			} else {
				sh.put(up)
			}
		case windowTag:
			if w := readWindow(r); r.Err() == nil {
				if err := s.restoreWindow(w); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("unknown section kind %s", tagName(tag))
		}
	}
	return finish(r, tagName(tag)+" rows")
}

// restoreWindow installs one application's dedup window as captured.
func (s *Store) restoreWindow(row ReportWindowRow) error {
	sh := &s.dedupShards[shardIndex(row.AppID)]
	if _, dup := sh.apps[row.AppID]; dup {
		return fmt.Errorf("second window for app %q", row.AppID)
	}
	w := &reportWindow{seen: make(map[string]struct{}, len(row.IDs)), order: row.IDs}
	for _, id := range row.IDs {
		w.seen[id] = struct{}{}
	}
	if len(w.seen) != len(row.IDs) {
		return fmt.Errorf("window for app %q repeats an id", row.AppID)
	}
	sh.apps[row.AppID] = w
	return nil
}

// writeFileAtomic installs what write streams at path via temp file +
// fsync + rename, then fsyncs the directory so the rename itself
// survives a power cut. It returns the bytes written. The fsync matters
// for the durable backend: snapshot installation is what licenses WAL
// truncation, so the bytes must be on disk before the rename lands.
func writeFileAtomic(path string, write func(io.Writer) (int64, error)) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".sor-snapshot-*")
	if err != nil {
		return 0, fmt.Errorf("store: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(what string, err error) (int64, error) {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return 0, fmt.Errorf("store: %s snapshot: %w", what, err)
	}
	bw := bufio.NewWriterSize(tmp, 64<<10)
	n, err := write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return fail("writing", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("syncing", err)
	}
	if err := tmp.Close(); err != nil {
		return fail("closing", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fail("installing", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return n, nil
}

// Load restores a store from a snapshot file; a missing file yields a
// fresh, empty store (first boot).
func Load(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return New(), nil
		}
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	return Restore(data)
}

// SnapshotInfo describes a snapshot file for inspection tooling.
type SnapshotInfo struct {
	Version   uint64
	Watermark uint64 // WAL LSN the image covers
	UploadSeq int64
	Bytes     int64
	Sections  []SectionInfo
	// Complete reports that the end section was reached with nothing
	// after it. A scan that met a damaged frame stops there; that
	// section carries the error.
	Complete bool
}

// SectionInfo describes one snapshot section.
type SectionInfo struct {
	Kind   string // row tag name; "?" when the frame is damaged
	Offset int64
	Rows   int   // -1 for the header and end sections and a damaged frame
	Bytes  int64 // framed size
	Err    error // torn frame or CRC mismatch
}

// InspectSnapshot walks a snapshot's frames without decoding rows: the
// header fields, then per section its kind, row count, size and whether
// its CRC matched. Unlike Restore it reports damage instead of failing
// on it; only an unreadable file or one that is not a snapshot errors.
func InspectSnapshot(path string) (*SnapshotInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := checkMagic(data); err != nil {
		return nil, err
	}
	info := &SnapshotInfo{Bytes: int64(len(data))}
	for off := len(snapMagic); off < len(data) && !info.Complete; {
		sec := SectionInfo{Kind: "?", Offset: int64(off), Rows: -1}
		payload, n, err := wal.DecodeRecord(data[off:])
		if err != nil || len(payload) == 0 {
			sec.Err = cmp.Or(err, errors.New("empty section"))
			info.Sections = append(info.Sections, sec)
			break
		}
		sec.Kind, sec.Bytes = tagName(payload[0]), int64(n)
		switch {
		case payload[0] == headerTag:
			info.Version, info.Watermark, info.UploadSeq, sec.Err = decodeHeader(payload)
		case payload[0] == endTag:
			info.Complete = off+n == len(data)
		case len(payload) >= 5:
			sec.Rows = int(binary.LittleEndian.Uint32(payload[1:5]))
		}
		info.Sections = append(info.Sections, sec)
		off += n
	}
	return info, nil
}
