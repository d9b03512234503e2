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
// it is written after the capture. Cold rows are value copies. An upload
// shard's cut holds copies of its outer chunk slices (a row below a
// captured chunk length is never rewritten: appendRow writes past it,
// take only swaps outer-slice elements) and its slab list as it was;
// no body is copied. A window's cut holds a copy of its ring (8 bytes an
// ID) and its arena as it was (windowCut).
type image struct {
	watermark uint64
	uploadSeq int64

	users   []User
	apps    []Application
	parts   []Participation
	feats   []*featTable // cuts (featTable.cut)
	scheds  []ScheduleRow
	anchors []AnchorRow
	windows []windowCut
	uploads [numShards]shardCut
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
		img.uploads[i] = sh.shardCut
		img.uploads[i].pending = slices.Clone(sh.pending)
		img.uploads[i].archived = slices.Clone(sh.archived)
		for appID, w := range sh.windows {
			img.windows = append(img.windows, windowCut{appID, reportWindow{ids: slices.Clone(w.ids), head: w.head, arena: w.arena, base: w.base}})
		}
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
	img.apps = s.Apps() // takes s.mu itself; snapMu parks its writers
	s.mu.RLock()
	defer s.mu.RUnlock()
	img.users = values(s.users)
	img.parts = values(s.participations)
	s.features.Range(func(_, t any) bool {
		img.feats = append(img.feats, t.(*featTable).cut())
		return true
	})
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
	slices.SortFunc(img.feats, func(a, b *featTable) int { return strings.Compare(a.category, b.category) })
	slices.SortFunc(img.scheds, func(a, b ScheduleRow) int { return strings.Compare(a.TaskID, b.TaskID) })
	slices.SortFunc(img.anchors, func(a, b AnchorRow) int { return strings.Compare(a.AppID, b.AppID) })
	slices.SortFunc(img.windows, func(a, b windowCut) int { return strings.Compare(a.appID, b.appID) })
	var uploads []storedUpload
	for i := range img.uploads {
		c := &img.uploads[i]
		for _, side := range []struct {
			chunks   [][]uploadRow
			archived bool
		}{{c.archived, true}, {c.pending, false}} {
			for _, chunk := range side.chunks {
				for k := range chunk {
					uploads = append(uploads, storedUpload{&chunk[k], c, side.archived})
				}
			}
		}
	}
	slices.SortFunc(uploads, func(a, b storedUpload) int { return cmp.Compare(a.seq, b.seq) })

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
	sw.open(featTag)
	for _, t := range img.feats {
		t.each(func(row *FeatureRow) {
			putFeat(&sw.sec, row)
			sw.next()
		})
	}
	sw.flush()
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

// next counts the row just encoded into the open section and closes the
// section once it is full.
func (sw *sectionWriter) next() {
	if sw.rows++; len(sw.sec.Bytes()) >= sectionBytes {
		sw.flush()
	}
}

// writeRows encodes one table as one or more sections of tag.
func writeRows[T any](sw *sectionWriter, tag byte, rows []T, enc func(*wire.Writer, *T)) {
	sw.open(tag)
	for i := range rows {
		enc(&sw.sec, &rows[i])
		sw.next()
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

// Restore loads a snapshot image into a fresh store (see restore).
func Restore(data []byte) (*Store, error) {
	return restore(bytes.NewReader(data), int64(len(data)), make(interner))
}

// restore decodes the snapshot in r section by section through the row
// decoders, one section in memory at a time, copying every row out of it,
// and returns either the whole store or an error naming the first section
// that failed its CRC or its decode — never a partial store. in shares the
// low-cardinality strings among the rows.
func restore(r io.ReaderAt, size int64, in interner) (*Store, error) {
	s := New()
	visit := func(payload []byte) error { return s.restoreSection(payload, in) }
	info, err := walkSnapshot(r, size, -1, visit)
	if err != nil {
		return nil, err
	}
	if err := info.damage(); err != nil {
		return nil, err
	}
	s.restoredLSN = info.Watermark
	s.uploadSeq.Store(info.UploadSeq)
	return s, nil
}

// walkSnapshot reads the first sections (-1: all) of the snapshot in r a
// frame at a time, checking the magic, the header (first, and at this
// build's version), each frame's CRC, and an end section that counts the
// row sections and ends the file. visit decodes each row section when
// set. A section that breaks one of these rules carries the error. The
// walk stops at a torn or CRC-failing frame, and, when visit is set, at
// any error; without visit it lists the frames past a bad header or end
// section, as inspection wants. err is only a file that is not a snapshot.
func walkSnapshot(r io.ReaderAt, size int64, sections int, visit func(payload []byte) error) (*SnapshotInfo, error) {
	fr := &frameReader{r: r, size: size}
	switch head, err := fr.read(0, len(snapMagic)); {
	case err != nil:
		return nil, err
	case len(head) > 0 && head[0] == '{':
		return nil, fmt.Errorf("store: JSON snapshot %w", errUpgrade)
	case !bytes.Equal(head, snapMagic[:]):
		return nil, errors.New("store: not a snapshot (bad magic)")
	}
	info := &SnapshotInfo{Bytes: size}
	for off := int64(len(snapMagic)); off < size && len(info.Sections) != sections; {
		i := len(info.Sections)
		sec := SectionInfo{Kind: "?", Offset: off, Rows: -1}
		payload, n, err := fr.at(off)
		if err != nil || len(payload) == 0 {
			sec.Err = cmp.Or(err, errors.New("empty section"))
			info.Sections = append(info.Sections, sec)
			break
		}
		sec.Kind, sec.Bytes = tagName(payload[0]), int64(n)
		switch tag := payload[0]; {
		case (i == 0) != (tag == headerTag):
			sec.Err = fmt.Errorf("want the header first and only there, found %s", sec.Kind)
		case tag == headerTag:
			r := wire.NewReader(payload[1:])
			info.Version, info.Watermark, info.UploadSeq = r.Uvarint(), r.Uvarint(), r.Varint()
			if sec.Err = finish(r, "header"); sec.Err == nil && info.Version != snapVersion {
				sec.Err = fmt.Errorf("unsupported snapshot version %d (this build reads %d)", info.Version, snapVersion)
			}
		case tag == endTag:
			// It counts the row sections before it and ends the file.
			r := wire.NewReader(payload[1:])
			got := r.Uvarint()
			switch sec.Err = finish(r, "end section"); {
			case sec.Err != nil:
			case got != uint64(i-1):
				sec.Err = fmt.Errorf("end section counts %d row sections, found %d", got, i-1)
			case off+int64(n) != size:
				sec.Err = fmt.Errorf("%d bytes after the end section", size-off-int64(n))
			}
			info.Complete = sec.Err == nil
		case len(payload) < 5:
			sec.Err = errors.New("short section")
		default:
			sec.Rows = int(binary.LittleEndian.Uint32(payload[1:5]))
			if visit != nil {
				sec.Err = visit(payload)
			}
		}
		info.Sections = append(info.Sections, sec)
		if sec.Err != nil && visit != nil || info.Complete {
			break
		}
		off += int64(n)
	}
	return info, nil
}

// damage names what keeps a walked snapshot from being whole: its first
// bad section, or the end section the walk never reached.
func (info *SnapshotInfo) damage() error {
	for i, sec := range info.Sections {
		if sec.Err != nil {
			return fmt.Errorf("store: snapshot section %d (%s) at offset %d: %w", i, sec.Kind, sec.Offset, sec.Err)
		}
	}
	if info.Complete {
		return nil
	}
	return fmt.Errorf("store: snapshot section %d at offset %d: truncated: the file ends without an end section", len(info.Sections), info.Bytes)
}

// restoreSection applies one row section to a store nobody else holds.
func (s *Store) restoreSection(payload []byte, in interner) error {
	tag := payload[0]
	rows := binary.LittleEndian.Uint32(payload[1:5])
	r := wire.NewReader(payload[5:])
	for i := uint32(0); i < rows && r.Err() == nil; i++ {
		switch tag {
		case userTag:
			s.setUser(readUser(r))
		case appTag:
			a := readApp(r)
			s.setApp(&a)
		case partTag:
			s.setParticipation(readPart(r, in))
		case featTag:
			row := readFeat(r)
			s.table(row.Category).put(&row)
		case schedTag:
			row := readSched(r, in)
			s.schedShards[shardIndex(row.TaskID)].rows[row.TaskID] = row
		case anchorTag:
			a := readAnchor(r)
			s.anchors[a.AppID] = a.AnchorUnix
		case uploadTag:
			s.readUpload(r, in)
		case windowTag:
			if err := s.readWindow(r); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown section kind %s", tagName(tag))
		}
	}
	return finish(r, tagName(tag)+" rows")
}

// writeFileAtomic installs what write streams at path via temp file +
// fsync + rename, then fsyncs the directory so the rename itself
// survives a power cut. It returns the bytes written. The fsync matters
// for the durable backend: snapshot installation is what licenses WAL
// truncation, so the bytes must be on disk before the rename lands.
// A non-nil before vets the closed temp file first; its error abandons it.
func writeFileAtomic(path string, write func(io.Writer) (int64, error), before func(tmp string) error) (int64, error) {
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
	if before != nil {
		if err := before(tmpName); err != nil {
			return fail("installing", err)
		}
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

// load restores a store from a snapshot file, read a section at a time,
// sharing strings through in; a missing file yields a fresh, empty store
// (first boot).
func load(path string, in interner) (*Store, error) {
	f, size, err := openSized(path)
	if err != nil {
		if os.IsNotExist(err) {
			return New(), nil
		}
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	defer f.Close()
	return restore(f, size, in)
}

// openSized opens path for reading and returns it with its size.
func openSized(path string) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
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

// InspectSnapshot walks a snapshot's frames without decoding rows, one
// section in memory at a time: the header fields, then per section its
// kind, row count, size and whether its CRC matched. Unlike Restore it
// reports damage instead of failing on it; only an unreadable file or
// one that is not a snapshot errors.
func InspectSnapshot(path string) (*SnapshotInfo, error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return walkSnapshot(f, size, -1, nil)
}

// frameReader reads a snapshot of size bytes one frame at a time; buf
// grows (amortized, as append grows) to the largest frame read and is
// reused for the next.
type frameReader struct {
	r    io.ReaderAt
	size int64
	buf  []byte
}

// read returns n bytes at off, or as many as the file holds past off.
func (fr *frameReader) read(off int64, n int) ([]byte, error) {
	n = int(max(0, min(int64(n), fr.size-off)))
	fr.buf = slices.Grow(fr.buf[:0], n)
	k, err := fr.r.ReadAt(fr.buf[:n], off)
	if err == io.EOF {
		err = nil
	}
	return fr.buf[:k], err
}

// at decodes the frame at off exactly as wal.DecodeRecord decodes the
// file's bytes from off, reading only the frame's 8-byte length|crc32c
// header and then the payload it claims. The payload aliases buf.
func (fr *frameReader) at(off int64) (payload []byte, n int, err error) {
	b, err := fr.read(off, 8)
	if err == nil && len(b) == 8 {
		if length := binary.LittleEndian.Uint32(b); length <= wal.MaxRecord {
			b, err = fr.read(off, 8+int(length))
		}
	}
	if err != nil {
		return nil, 0, err
	}
	return wal.DecodeRecord(b)
}
