package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sor/internal/store"
	"sor/internal/transport"
	"sor/internal/vclock"
	"sor/internal/wire"
)

// shipLeader opens a durable leader whose replication Leader ships the
// checkpoint installed in its data dir.
func shipLeader(t *testing.T, opts []store.DurableOption, lopts ...LeaderOption) (*node, *Leader, transport.Handler) {
	t.Helper()
	leader := openNode(t, t.TempDir(), false, 0, opts...)
	t.Cleanup(func() { _ = leader.srv.Close() })
	ld, lh := leaderFor(t, leader, append([]LeaderOption{WithStateDir(leader.backend.Dir())}, lopts...)...)
	t.Cleanup(ld.Close)
	return leader, ld, lh
}

// tapSender forwards to next, asking for chunks of at most maxBytes when
// it is set, and hands every SnapChunk reply to tap, which may change it.
type tapSender struct {
	next     Sender
	maxBytes int64
	tap      func(*wire.SnapChunk)
}

func (s tapSender) Send(ctx context.Context, m wire.Message) (wire.Message, error) {
	if p, ok := m.(*wire.SnapPull); ok && s.maxBytes > 0 {
		p.MaxBytes = s.maxBytes
	}
	resp, err := s.next.Send(ctx, m)
	if c, ok := resp.(*wire.SnapChunk); ok && s.tap != nil {
		s.tap(c)
	}
	return resp, err
}

// seeded writes the app, alice's participation and her first uploads.
func seeded(t *testing.T, lh transport.Handler, leader *node, uploads int) *wire.Schedule {
	t.Helper()
	if err := leader.srv.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	sched := participate(t, lh, "alice", "tok-a", 8)
	for i := 1; i <= uploads; i++ {
		upload(t, lh, sched, i)
	}
	return sched
}

func checkpoint(t *testing.T, n *node) {
	t.Helper()
	if err := n.backend.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// logTail is a node's log after lsn.
func logTail(t *testing.T, n *node, lsn uint64) [][]byte {
	t.Helper()
	recs, err := n.backend.WAL().ReadAfter(lsn, 0, 0)
	if err != nil {
		t.Fatalf("reading log tail: %v", err)
	}
	return recs
}

// TestSnapshotShipResync is the operational-hole closer: a follower the
// leader compacted past rebuilds itself over the wire — stream the
// leader's checkpoint into its own data dir, reopen, and resume WAL
// shipping at the image's watermark — ending with a log byte-identical
// to the leader's and serving reads, all without an operator copying
// directories.
func TestSnapshotShipResync(t *testing.T) {
	leader, ld, lh := shipLeader(t, []store.DurableOption{store.WithSegmentBytes(256)})
	sched := seeded(t, lh, leader, 3)

	// A follower converges, then goes silent while the leader moves on
	// and checkpoints its tail away.
	fdir := t.TempDir()
	fn := openNode(t, fdir, true, 0)
	f := NewFollower("node-b", fn.srv.DB(), codecSender{lh},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 1))
	catchUp(t, f)
	ld.Forget("node-b") // TTL expiry stand-in: the pin is gone
	for i := 4; i <= 6; i++ {
		upload(t, lh, sched, i)
	}
	checkpoint(t, leader)
	if _, err := f.PullOnce(context.Background()); !errors.Is(err, ErrNeedsResync) {
		t.Fatalf("compacted-past pull = %v, want ErrNeedsResync", err)
	}

	// The resync: close the stale node, ship the checkpoint into its dir,
	// reopen, and resume pulling.
	if err := fn.srv.Close(); err != nil {
		t.Fatal(err)
	}
	walLSN, err := ResyncDataDir(context.Background(), "node-b", codecSender{lh}, fdir)
	if err != nil {
		t.Fatal(err)
	}
	fn2 := openNode(t, fdir, true, 0)
	defer fn2.srv.Close()
	if got := fn2.srv.DB().AppliedLSN(); got != walLSN {
		t.Fatalf("reopened follower at LSN %d, shipped watermark %d", got, walLSN)
	}

	// Writes keep flowing while the rebuilt follower catches up.
	bob := participate(t, lh, "bob", "tok-b", 4)
	upload(t, lh, bob, 1)
	f2 := NewFollower("node-b", fn2.srv.DB(), codecSender{lh},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 2))
	catchUp(t, f2)
	sameRecords(t, "log tail after resync", logTail(t, leader, walLSN), logTail(t, fn2, walLSN))
	// Derived state rebuilt from image + tail answers reads: bob's
	// post-resync schedule is visible through the replica's ping path.
	resp, err := fn2.srv.Handler()(nil, &wire.Ping{Token: "tok-b"})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); !ack.OK || len(ack.Payload) == 0 {
		t.Fatalf("resynced replica ping = %+v", ack)
	}
}

// TestFollowerAheadOfLeaderResyncs: a follower whose log runs past the
// leader's (it followed another leader further) holds records this leader
// never wrote. It is told to resync, not that it lags by nothing, and the
// resync leaves its log a prefix of the leader's.
func TestFollowerAheadOfLeaderResyncs(t *testing.T) {
	leader, _, lh := shipLeader(t, nil)
	seeded(t, lh, leader, 2)
	other, _, oh := shipLeader(t, nil)
	seeded(t, oh, other, 6)

	fdir := t.TempDir()
	fn := openNode(t, fdir, true, 0)
	catchUp(t, NewFollower("node-b", fn.srv.DB(), codecSender{oh},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 1)))
	if ahead, head := fn.srv.DB().AppliedLSN(), leader.backend.WAL().LastLSN(); ahead <= head {
		t.Fatalf("follower at LSN %d is not ahead of the leader's %d", ahead, head)
	}
	f := NewFollower("node-b", fn.srv.DB(), codecSender{lh},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 2))
	if _, err := f.PullOnce(context.Background()); !errors.Is(err, ErrNeedsResync) {
		t.Fatalf("pull from past the leader's head = %v, want ErrNeedsResync", err)
	}
	if s := f.Status(); !s.NeedsResync || s.Connected {
		t.Fatalf("status after pulling from past the leader's head = %+v", s)
	}

	checkpoint(t, leader)
	if err := fn.srv.Close(); err != nil {
		t.Fatal(err)
	}
	walLSN, err := ResyncDataDir(context.Background(), "node-b", codecSender{lh}, fdir)
	if err != nil {
		t.Fatal(err)
	}
	fn2 := openNode(t, fdir, true, 0)
	defer fn2.srv.Close()
	if got, head := fn2.srv.DB().AppliedLSN(), leader.backend.WAL().LastLSN(); got != walLSN || got > head {
		t.Fatalf("resynced follower at LSN %d, shipped watermark %d, leader head %d", got, walLSN, head)
	}
	catchUp(t, NewFollower("node-b", fn2.srv.DB(), codecSender{lh},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 3)))
	sameRecords(t, "log after resync", logTail(t, leader, walLSN), logTail(t, fn2, walLSN))
}

// TestResyncShipsCheckpointChunked proves the transfer really is
// chunked: a tiny per-pull byte budget forces many SnapChunks, and the
// installed image must equal the leader's checkpoint file byte for byte.
func TestResyncShipsCheckpointChunked(t *testing.T) {
	leader, ld, lh := shipLeader(t, nil)
	seeded(t, lh, leader, 1)
	checkpoint(t, leader)

	chunks := 0
	send := tapSender{next: codecSender{lh}, maxBytes: 128, tap: func(*wire.SnapChunk) { chunks++ }}
	fdir := t.TempDir()
	walLSN, err := ResyncDataDir(context.Background(), "node-x", send, fdir)
	if err != nil {
		t.Fatal(err)
	}
	want := readFile(t, store.SnapshotPath(leader.backend.Dir()))
	if got := readFile(t, store.SnapshotPath(fdir)); !bytes.Equal(got, want) {
		t.Fatalf("installed image differs from the leader's checkpoint (%d vs %d bytes)", len(got), len(want))
	}
	if wantChunks := (len(want) + 127) / 128; chunks != wantChunks || chunks < 2 {
		t.Fatalf("%d-byte image came in %d chunks, want %d", len(want), chunks, wantChunks)
	}
	f, wantLSN, _, err := store.OpenSnapshot(leader.backend.Dir())
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if walLSN != wantLSN {
		t.Fatalf("shipped watermark %d, checkpoint's %d", walLSN, wantLSN)
	}
	// The transfer registered the follower at the watermark, so its pin
	// shows up in leader status like any other follower's.
	for _, fs := range ld.Status().Followers {
		if fs.ID == "node-x" && fs.AckLSN == walLSN {
			return
		}
	}
	t.Fatalf("resync session did not register node-x at %d: %+v", walLSN, ld.Status().Followers)
}

// TestSnapPullWithoutSessionFails: chunk pulls at a nonzero offset with
// no open session are refused rather than served stale bytes.
func TestSnapPullWithoutSessionFails(t *testing.T) {
	leader, ld, lh := shipLeader(t, nil)
	seeded(t, lh, leader, 1)
	checkpoint(t, leader)
	if _, err := ld.HandleSnapPull(&wire.SnapPull{FollowerID: "ghost", Offset: 64}); err == nil {
		t.Fatal("offset-64 pull with no session succeeded")
	}
}

// TestSnapPullRefusedWithoutCheckpoint: a leader without a data dir, or
// with one that holds no checkpoint yet, refuses SnapPulls outright and
// pins nothing; once a checkpoint is installed the same pull is served.
func TestSnapPullRefusedWithoutCheckpoint(t *testing.T) {
	leader := openNode(t, t.TempDir(), false, 0)
	defer leader.srv.Close()
	noDir, _ := leaderFor(t, leader)
	if _, err := noDir.HandleSnapPull(&wire.SnapPull{FollowerID: "node-b"}); err == nil {
		t.Fatal("snap pull without a data dir succeeded")
	}

	ld, _ := leaderFor(t, leader, WithStateDir(leader.backend.Dir()))
	defer ld.Close()
	if _, err := os.Stat(store.SnapshotPath(leader.backend.Dir())); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a fresh leader already has a checkpoint: %v", err)
	}
	if _, err := ld.HandleSnapPull(&wire.SnapPull{FollowerID: "node-b"}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("snap pull without a checkpoint = %v, want a refusal naming the missing file", err)
	}
	if fs := ld.Status().Followers; len(fs) != 0 {
		t.Fatalf("a refused pull registered followers: %+v", fs)
	}
	checkpoint(t, leader)
	if _, err := ld.HandleSnapPull(&wire.SnapPull{FollowerID: "node-b"}); err != nil {
		t.Fatalf("snap pull after a checkpoint: %v", err)
	}
}

// TestAbandonedResyncSessionsAreFreed: a resync session's open
// checkpoint fd ends with the follower — when the TTL sweep expires a
// follower that stopped mid-transfer, on Forget, on a new offset-0 pull,
// when the leader role ends (Close), and on the Done chunk.
func TestAbandonedResyncSessionsAreFreed(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	leader, ld, lh := shipLeader(t, nil, WithLeaderClock(clk), WithFollowerTTL(time.Minute))
	seeded(t, lh, leader, 1)
	checkpoint(t, leader)

	open := func(id string) *os.File {
		t.Helper()
		if _, err := ld.HandleSnapPull(&wire.SnapPull{FollowerID: id, MaxBytes: 16}); err != nil {
			t.Fatal(err)
		}
		ld.mu.Lock()
		defer ld.mu.Unlock()
		return ld.resyncs[id].f
	}
	freed := func(what string, f *os.File) {
		t.Helper()
		if _, err := f.Stat(); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("%s: the session's checkpoint fd is still open (%v)", what, err)
		}
		ld.mu.Lock()
		defer ld.mu.Unlock()
		if len(ld.resyncs) != 0 {
			t.Fatalf("%s: %d sessions still held", what, len(ld.resyncs))
		}
	}

	f := open("node-b")
	clk.Advance(2 * time.Minute)
	if _, err := ld.HandlePull(&wire.ReplPull{FollowerID: "node-c", FromLSN: 1}); err != nil {
		t.Fatal(err)
	}
	freed("ttl sweep", f)

	f = open("node-b")
	ld.Forget("node-b")
	freed("forget", f)

	f = open("node-b")
	f2 := open("node-b")
	if _, err := f.Stat(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("a new offset-0 pull left the old session's fd open (%v)", err)
	}
	ld.Close()
	freed("leader close", f2)

	f = open("node-b")
	for off := uint64(16); ; {
		c, err := ld.HandleSnapPull(&wire.SnapPull{FollowerID: "node-b", Offset: off})
		if err != nil {
			t.Fatal(err)
		}
		if off += uint64(len(c.Data)); c.Done {
			break
		}
	}
	freed("done", f)
}

// TestResyncSessionsUnderConcurrentDrops: transfers racing Forget and
// Close on another goroutine may fail, but share the session table and
// its fds without a data race (run it under -race), and no session is
// left open once the drops have the last word.
func TestResyncSessionsUnderConcurrentDrops(t *testing.T) {
	leader, ld, lh := shipLeader(t, nil)
	seeded(t, lh, leader, 3)
	checkpoint(t, leader)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for off := uint64(0); off < 512; off += 64 {
				c, err := ld.HandleSnapPull(&wire.SnapPull{FollowerID: "node-b", Offset: off, MaxBytes: 64})
				if err != nil || c.Done {
					break
				}
			}
		}
	}()
	for i := 0; i < 200; i++ {
		ld.Forget("node-b")
		ld.Close()
	}
	<-done
	ld.Forget("node-b")
	ld.mu.Lock()
	defer ld.mu.Unlock()
	if len(ld.resyncs) != 0 {
		t.Fatalf("%d sessions left open", len(ld.resyncs))
	}
}

// dirFiles maps every file under dir to its bytes.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		files[strings.TrimPrefix(path, dir)] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestResyncValidatesBeforeInstalling: an image damaged in transit —
// one byte of one chunk flipped — is refused after the transfer, and the
// follower's old snapshot and WAL are left byte-identical; a retry over
// a clean link installs and catches up.
func TestResyncValidatesBeforeInstalling(t *testing.T) {
	leader, ld, lh := shipLeader(t, []store.DurableOption{store.WithSegmentBytes(256)})
	sched := seeded(t, lh, leader, 3)

	// The follower's dir holds a checkpoint of its own and a WAL past it.
	fdir := t.TempDir()
	fn := openNode(t, fdir, true, 0)
	f := NewFollower("node-b", fn.srv.DB(), codecSender{lh},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 1))
	catchUp(t, f)
	checkpoint(t, fn)
	upload(t, lh, sched, 4)
	catchUp(t, f)
	fn.srv.Kill()
	before := dirFiles(t, fdir)
	if _, ok := before[string(filepath.Separator)+"snapshot.json"]; !ok || len(before) < 2 {
		t.Fatalf("follower dir lacks a snapshot and a WAL: %v", fileSizes(before))
	}

	ld.Forget("node-b")
	for i := 5; i <= 7; i++ {
		upload(t, lh, sched, i)
	}
	checkpoint(t, leader)

	chunks := 0
	flip := tapSender{next: codecSender{lh}, maxBytes: 128, tap: func(c *wire.SnapChunk) {
		if chunks++; chunks == 2 {
			c.Data[len(c.Data)/2] ^= 0x01
		}
	}}
	if _, err := ResyncDataDir(context.Background(), "node-b", flip, fdir); err == nil {
		t.Fatal("a damaged image was installed")
	}
	if after := dirFiles(t, fdir); !maps.Equal(after, before) {
		t.Fatalf("a refused resync changed the follower's dir: %v → %v", fileSizes(before), fileSizes(after))
	}

	walLSN, err := ResyncDataDir(context.Background(), "node-b", codecSender{lh}, fdir)
	if err != nil {
		t.Fatal(err)
	}
	fn2 := openNode(t, fdir, true, 0)
	defer fn2.srv.Close()
	catchUp(t, NewFollower("node-b", fn2.srv.DB(), codecSender{lh},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 2)))
	sameRecords(t, "log tail after the retried resync", logTail(t, leader, walLSN), logTail(t, fn2, walLSN))
}

// fileSizes maps each of dirFiles' paths to its size, for messages.
func fileSizes(files map[string]string) map[string]int {
	sizes := make(map[string]int, len(files))
	for path, data := range files {
		sizes[path] = len(data)
	}
	return sizes
}

// TestResyncServesTheCheckpointAsOpened: the session's fd pins the file
// it opened. Two checkpoints land mid-transfer, each renaming over the
// file and truncating the log, and the follower still installs the
// bytes as they were at open, then streams a tail byte-identical to the
// leader's.
func TestResyncServesTheCheckpointAsOpened(t *testing.T) {
	leader, _, lh := shipLeader(t, []store.DurableOption{store.WithSegmentBytes(256)})
	sched := seeded(t, lh, leader, 3)
	checkpoint(t, leader)
	path := store.SnapshotPath(leader.backend.Dir())
	atOpen := readFile(t, path)

	chunks := 0
	send := tapSender{next: codecSender{lh}, maxBytes: 128, tap: func(*wire.SnapChunk) {
		if chunks++; chunks != 1 {
			return
		}
		for i := 4; i <= 5; i++ {
			upload(t, lh, sched, i)
			checkpoint(t, leader)
		}
	}}
	fdir := t.TempDir()
	walLSN, err := ResyncDataDir(context.Background(), "node-b", send, fdir)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(readFile(t, path), atOpen) {
		t.Fatal("the mid-transfer checkpoints left the leader's file unchanged")
	}
	if got := readFile(t, store.SnapshotPath(fdir)); !bytes.Equal(got, atOpen) {
		t.Fatalf("installed image (%d bytes) is not the checkpoint as opened (%d bytes)", len(got), len(atOpen))
	}
	fn := openNode(t, fdir, true, 0)
	defer fn.srv.Close()
	catchUp(t, NewFollower("node-b", fn.srv.DB(), codecSender{lh},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 1)))
	sameRecords(t, "log tail after resync", logTail(t, leader, walLSN), logTail(t, fn, walLSN))
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// bloated gives the leader a checkpoint of at least n bytes: users with
// 64 KiB names, then a checkpoint.
func bloated(t *testing.T, leader *node, n int) {
	t.Helper()
	name := strings.Repeat("x", 64<<10)
	for i := 0; i*len(name) < n; i++ {
		if err := leader.srv.DB().PutUser(store.User{ID: fmt.Sprint("bulk-", i), Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint(t, leader)
}

// TestResyncLeaderHoldsNoImage: opening a resync session on an 8 MiB
// checkpoint costs the leader's heap one chunk, not the image.
func TestResyncLeaderHoldsNoImage(t *testing.T) {
	leader, ld, _ := shipLeader(t, nil)
	bloated(t, leader, 8<<20)
	before := heapAlloc()
	chunk, err := ld.HandleSnapPull(&wire.SnapPull{FollowerID: "node-b"})
	if err != nil {
		t.Fatal(err)
	}
	rise := heapAlloc() - before
	t.Logf("offset-0 pull on a %d-byte checkpoint: heap +%d bytes", chunk.TotalSize, rise)
	if chunk.TotalSize < 8<<20 {
		t.Fatalf("checkpoint of %d bytes, want at least 8 MiB", chunk.TotalSize)
	}
	if rise >= 1<<20 {
		t.Fatalf("an offset-0 pull on a %d-byte checkpoint grew the heap by %d bytes", chunk.TotalSize, rise)
	}
}

// TestResyncFollowerHoldsNoImage: between chunks of an 8 MiB transfer
// the follower's heap stays within 2 MiB plus one chunk of where it
// started — the image streams to disk, it is never reassembled.
func TestResyncFollowerHoldsNoImage(t *testing.T) {
	leader, _, lh := shipLeader(t, nil)
	bloated(t, leader, 8<<20)
	var total uint64
	var peak int64
	before := heapAlloc()
	send := tapSender{next: codecSender{lh}, tap: func(c *wire.SnapChunk) {
		total = c.TotalSize
		peak = max(peak, heapAlloc()-before)
	}}
	if _, err := ResyncDataDir(context.Background(), "node-b", send, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Logf("resync of a %d-byte image: heap peaked +%d bytes between chunks", total, peak)
	if total < 8<<20 {
		t.Fatalf("checkpoint of %d bytes, want at least 8 MiB", total)
	}
	if limit := int64(2<<20 + DefaultSnapChunkBytes); peak >= limit {
		t.Fatalf("resyncing a %d-byte image grew the heap by %d bytes between chunks, want < %d", total, peak, limit)
	}
}
