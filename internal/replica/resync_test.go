package replica

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"sor/internal/store"
	"sor/internal/wire"
)

// TestSnapshotShipResync is the operational-hole closer: a follower the
// leader compacted past rebuilds itself over the wire — fetch the newest
// snapshot image, install it into its own data dir, reopen, and resume
// WAL shipping at the image's watermark — ending with a log
// byte-identical to the leader's and serving reads, all without an
// operator copying directories.
func TestSnapshotShipResync(t *testing.T) {
	leader := openNode(t, t.TempDir(), false, 0, store.WithSegmentBytes(256))
	defer leader.srv.Close()
	ld, lh := leaderFor(t, leader, WithSnapshotSource(leader.backend))
	if err := leader.srv.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	sched := participate(t, lh, "alice", "tok-a", 8)
	for i := 1; i <= 3; i++ {
		upload(t, lh, sched, i)
	}

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
	if err := leader.backend.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.PullOnce(context.Background()); !errors.Is(err, ErrNeedsResync) {
		t.Fatalf("compacted-past pull = %v, want ErrNeedsResync", err)
	}

	// The resync: close the stale node, ship the snapshot into its dir,
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

	tailOf := func(n *node) [][]byte {
		recs, err := n.backend.WAL().ReadAfter(walLSN, 0, 0)
		if err != nil {
			t.Fatalf("reading log tail: %v", err)
		}
		return recs
	}
	sameRecords(t, "log tail after resync", tailOf(leader), tailOf(fn2))
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

// TestFetchSnapshotChunked proves the transfer really is chunked: a tiny
// per-pull byte budget forces many SnapChunks, and the reassembled image
// must equal a directly-cut snapshot byte for byte.
func TestFetchSnapshotChunked(t *testing.T) {
	leader := openNode(t, t.TempDir(), false, 0)
	defer leader.srv.Close()
	ld, lh := leaderFor(t, leader, WithSnapshotSource(leader.backend))
	if err := leader.srv.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	sched := participate(t, lh, "alice", "tok-a", 6)
	upload(t, lh, sched, 1)

	data, walLSN, err := FetchSnapshot(context.Background(), "node-x", codecSender{lh}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= 128 {
		t.Fatalf("image of %d bytes never exercised chunking", len(data))
	}
	want, wantLSN, err := leader.backend.SnapshotForShip()
	if err != nil {
		t.Fatal(err)
	}
	if walLSN != wantLSN {
		t.Fatalf("shipped watermark %d, direct cut %d", walLSN, wantLSN)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("reassembled image differs from direct cut (%d vs %d bytes)", len(data), len(want))
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
	leader := openNode(t, t.TempDir(), false, 0)
	defer leader.srv.Close()
	ld, _ := leaderFor(t, leader, WithSnapshotSource(leader.backend))
	if _, err := ld.HandleSnapPull(&wire.SnapPull{FollowerID: "ghost", Offset: 64}); err == nil {
		t.Fatal("offset-64 pull with no session succeeded")
	}
}

// TestSnapPullRefusedWithoutSource: a leader without snapshot shipping
// enabled refuses SnapPulls outright.
func TestSnapPullRefusedWithoutSource(t *testing.T) {
	leader := openNode(t, t.TempDir(), false, 0)
	defer leader.srv.Close()
	ld, _ := leaderFor(t, leader)
	if _, err := ld.HandleSnapPull(&wire.SnapPull{FollowerID: "node-b"}); err == nil {
		t.Fatal("snap pull without a source succeeded")
	}
}
