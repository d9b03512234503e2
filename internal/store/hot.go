package store

import (
	"bytes"
	"hash/maphash"
	"sync"
	"time"
	"unsafe"
)

// The hot tables hold a stored report in pointer-free form: its row in a
// chunk, its body and RequestID in the shard's byte slabs, its ReportID
// in the application's window arena. The collector scans none of them,
// and a report costs a few bytes beyond its body in no object of its own.

// span locates bytes in a shard's slabs: slab number, offset, length.
type span struct{ slab, off, n uint32 }

// uploadRow is one stored upload: Received in the codec's form (Unix
// seconds, and nanoseconds+1 with 0 for the zero time), the application as
// an index into its shard's apps, the body and RequestID as spans.
type uploadRow struct {
	seq, sec  int64
	nsec, app uint32
	body, req span
}

func stamp(t time.Time) (sec int64, nsec uint32) {
	if t.IsZero() {
		return 0, 0
	}
	return t.Unix(), uint32(t.Nanosecond()) + 1
}

// unstamp is the time stamp returned sec and nsec for.
func unstamp(sec int64, nsec uint32) time.Time {
	if nsec == 0 {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec-1)).UTC()
}

func (r *uploadRow) received() time.Time { return unstamp(r.sec, r.nsec) }

// Slabs double from slabMin to slabMax bytes; a larger body gets a slab of
// its own size.
const slabMin, slabMax = 1 << 10, 16 << 10

// shardCut is what a reader takes of an upload shard under its lock and
// reads after releasing it: rows below a chunk's length are never
// rewritten, a span's bytes never change, and apps only grows.
type shardCut struct {
	pending, archived [][]uploadRow
	apps              []string
	// slabs are allocated at full length, so writing into the last one
	// never changes a slab header a cut holds.
	slabs [][]byte
}

func (c *shardCut) bytes(sp span) []byte {
	if sp.n == 0 {
		return nil
	}
	return c.slabs[sp.slab][sp.off : sp.off+sp.n : sp.off+sp.n]
}

// appendRaw appends the rows of chunks to out as exported rows, their
// bodies aliasing the slabs. A RequestID equal to that of the row before
// reuses its string, so a batch's rows share one.
func (c *shardCut) appendRaw(out []RawUpload, chunks ...[]uploadRow) []RawUpload {
	for _, chunk := range chunks {
		for i := range chunk {
			r := &chunk[i]
			req, b := "", c.bytes(r.req)
			if n := len(out); n > 0 && out[n-1].RequestID == string(b) {
				req = out[n-1].RequestID
			} else {
				req = string(b)
			}
			out = append(out, RawUpload{Seq: r.seq, AppID: c.apps[r.app], Received: r.received(), Body: c.bytes(r.body), RequestID: req})
		}
	}
	return out
}

// uploadShard is one bucket of the pending-upload table, and holds the
// dedup windows of its applications under the same lock. Uploads for one
// application always land in the same bucket, so the per-bucket lock
// serializes only same-bucket writers. Rows are kept in bounded chunks: the
// last chunk grows by append until it holds uploadChunkSize rows, and no
// chunk is appended to once another follows it.
//
// archived holds drained rows on archiving (durable) stores: the data
// processor's decoded accumulators die with the process, so recovery must
// refold the full upload history. Every chunk of archived is full except
// possibly the last, whatever the drain cadence was. A memory store keeps
// nothing of a drained row: its drain drops the slabs too.
type uploadShard struct {
	mu sync.Mutex
	shardCut
	count, doneCount int
	appRefs          map[string]uint32 // index in apps
	used             int               // bytes taken of the last slab
	lastReq          span              // the last RequestID stored
	windows          map[string]*reportWindow
}

// uploadChunkSize is the most rows one upload chunk holds.
const uploadChunkSize = 512

// appendRow adds one row to a chunk list, growing the last chunk while it
// has room and opening a one-row chunk when it does not. It only ever
// writes past a chunk's length, which is what lets a cut be read after
// the shard lock is released.
func appendRow(chunks [][]uploadRow, row uploadRow) [][]uploadRow {
	if n := len(chunks); n > 0 && len(chunks[n-1]) < uploadChunkSize {
		chunks[n-1] = append(chunks[n-1], row)
		return chunks
	}
	return append(chunks, []uploadRow{row})
}

// add appends one row, pending or archived (already drained). Caller
// holds sh.mu (or owns the shard exclusively, as restore does).
func (sh *uploadShard) add(row uploadRow, archived bool) {
	if archived {
		sh.archived, sh.doneCount = appendRow(sh.archived, row), sh.doneCount+1
	} else {
		sh.pending, sh.count = appendRow(sh.pending, row), sh.count+1
	}
}

// row builds the row of one upload, copying its body into the slabs, and
// its RequestID too unless it repeats the last one stored. Caller holds
// sh.mu.
func (sh *uploadShard) row(appID string, seq int64, received time.Time, requestID, body []byte) uploadRow {
	app, ok := sh.appRefs[appID]
	if !ok {
		if sh.appRefs == nil {
			sh.appRefs = make(map[string]uint32)
		}
		app = uint32(len(sh.apps))
		sh.appRefs[appID] = app
		sh.apps = append(sh.apps, appID)
	}
	if !bytes.Equal(sh.bytes(sh.lastReq), requestID) {
		sh.lastReq = sh.copyIn(requestID)
	}
	sec, nsec := stamp(received)
	return uploadRow{seq: seq, sec: sec, nsec: nsec, app: app, body: sh.copyIn(body), req: sh.lastReq}
}

// copyIn copies b to the free end of the last slab, or of a new one.
func (sh *uploadShard) copyIn(b []byte) span {
	if len(b) == 0 {
		return span{}
	}
	n := len(sh.slabs)
	if n == 0 || sh.used+len(b) > len(sh.slabs[n-1]) {
		size := slabMin
		if n > 0 {
			size = min(max(size, 2*len(sh.slabs[n-1])), slabMax)
		}
		sh.slabs = append(sh.slabs, make([]byte, max(size, len(b))))
		sh.used, n = 0, n+1
	}
	sp := span{uint32(n - 1), uint32(sh.used), uint32(len(b))}
	sh.used += copy(sh.slabs[n-1][sh.used:], b)
	return sp
}

// take removes all pending rows and returns them with what they
// reference. An archiving store archives them: a full chunk moves to
// archived wholesale (below a short last chunk, which stays last), a short
// one has its rows copied into archived's last chunk. A shard left with
// no rows at all lets its slabs go. The returned chunks are never written
// again, so the drain may read them after sh.mu is released. Caller holds
// sh.mu.
func (sh *uploadShard) take(archive bool) shardCut {
	c := sh.shardCut
	sh.pending, sh.count = nil, 0
	if !archive {
		if sh.doneCount == 0 {
			sh.slabs, sh.used, sh.lastReq = nil, 0, span{}
		}
		return c
	}
	for _, chunk := range c.pending {
		if len(chunk) < uploadChunkSize {
			for _, row := range chunk {
				sh.add(row, true)
			}
			continue
		}
		n := len(sh.archived)
		sh.archived = append(sh.archived, chunk)
		sh.doneCount += len(chunk)
		if n > 0 && len(sh.archived[n-1]) < uploadChunkSize {
			sh.archived[n-1], sh.archived[n] = sh.archived[n], sh.archived[n-1]
		}
	}
	return c
}

// window returns appID's dedup window, creating it on first use. Caller
// holds sh.mu (or owns the store exclusively, as replay does).
func (sh *uploadShard) window(appID string) *reportWindow {
	w, ok := sh.windows[appID]
	if !ok {
		if sh.windows == nil {
			sh.windows = make(map[string]*reportWindow)
		}
		w = &reportWindow{}
		sh.windows[appID] = w
	}
	return w
}

// reportWindowSize bounds each application's ReportID dedup window. Phones
// mint monotonically increasing IDs and retransmit only until acked, so a
// replay arriving after 8192 newer reports for the same app is effectively
// impossible; bounding the window keeps memory proportional to recent
// traffic, not lifetime traffic.
const reportWindowSize = 8192

// reportWindow is one application's seen-ReportID set with FIFO eviction.
// ids is a ring of ID spans (once full, head is the oldest) into arena,
// which holds the IDs oldest first; index is an open-addressed table of
// ring slots, at most half full, whose probe compares the ID bytes.
type reportWindow struct {
	ids  []idSpan
	head int
	// arena is only ever appended to or replaced; base is the logical
	// offset of arena[0], the origin of every span's off.
	arena []byte
	base  uint32
	index []uint16 // 0 = empty, else ring slot + 1
}

type idSpan struct{ off, n uint32 }

// hashSeed keys the store's hash indexes (the windows', nameIndex); no
// index leaves the process, and chosen IDs cannot aim at one probe chain.
var hashSeed = maphash.MakeSeed()

// id returns the ID in a ring slot.
func (w *reportWindow) id(slot int) []byte {
	sp := w.ids[slot]
	off := sp.off - w.base
	return w.arena[off : off+sp.n]
}

func (w *reportWindow) home(id []byte) int {
	return int(maphash.Bytes(hashSeed, id) & uint64(len(w.index)-1))
}

// find returns the index position holding id, or the empty one where it
// would go.
func (w *reportWindow) find(id []byte) (pos int, found bool) {
	mask := len(w.index) - 1
	for pos = w.home(id); w.index[pos] != 0; pos = (pos + 1) & mask {
		if bytes.Equal(w.id(int(w.index[pos])-1), id) {
			return pos, true
		}
	}
	return pos, false
}

// seen reports whether id is in the window.
func (w *reportWindow) seen(id []byte) bool {
	if w == nil || len(w.index) == 0 {
		return false
	}
	_, ok := w.find(id)
	return ok
}

// mark records an id; it reports whether the ID was new. Evicts the oldest
// entry when the window is full.
func (w *reportWindow) mark(id []byte) bool {
	if w.seen(id) {
		return false
	}
	if n := len(w.ids) + 1; n <= reportWindowSize && 2*n > len(w.index) {
		w.index = make([]uint16, max(16, 2*len(w.index)))
		for slot := range w.ids {
			pos, _ := w.find(w.id(slot))
			w.index[pos] = uint16(slot + 1)
		}
	}
	slot := len(w.ids)
	if slot == reportWindowSize {
		slot = w.evict()
	}
	if len(w.arena)+len(id) > cap(w.arena) {
		// Move the live IDs to a new arena with room to double.
		start := len(w.arena)
		if len(w.ids) > 0 {
			start = int(w.ids[w.head].off - w.base)
		}
		live := w.arena[start:]
		w.arena = append(make([]byte, 0, 2*(len(live)+len(id))), live...)
		w.base += uint32(start)
	}
	sp := idSpan{w.base + uint32(len(w.arena)), uint32(len(id))}
	w.arena = append(w.arena, id...)
	if slot == len(w.ids) {
		w.ids = append(w.ids, sp)
	} else {
		w.ids[slot] = sp
	}
	pos, _ := w.find(id)
	w.index[pos] = uint16(slot + 1)
	return true
}

// evict drops the oldest ID from the index (backward-shift deletion: no
// tombstones) and returns its ring slot for the next ID.
func (w *reportWindow) evict() int {
	slot, mask := w.head, len(w.index)-1
	pos, _ := w.find(w.id(slot))
	for next := (pos + 1) & mask; w.index[next] != 0; next = (next + 1) & mask {
		if home := w.home(w.id(int(w.index[next]) - 1)); (next-home)&mask >= (next-pos)&mask {
			w.index[pos], pos = w.index[next], next
		}
	}
	w.index[pos] = 0
	w.head = (slot + 1) % reportWindowSize
	return slot
}

// windowCut is one application's window as a checkpoint captured it: a
// copy of the ring (mark overwrites its slots) beside the arena, which
// mark never writes below its length.
type windowCut struct {
	appID string
	reportWindow
}

// each calls fn on every ID, oldest first.
func (w *reportWindow) each(fn func(id []byte)) {
	for i := range w.ids {
		fn(w.id((w.head + i) % len(w.ids)))
	}
}

// view reads a string's bytes in place; nothing may write to them.
func view(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }
