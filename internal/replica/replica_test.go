package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sor/internal/obs"
	"sor/internal/server"
	"sor/internal/store"
	"sor/internal/transport"
	"sor/internal/vclock"
	"sor/internal/wal"
	"sor/internal/wire"
	"sor/internal/world"
)

var t0 = time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC)

const testScript = `return 1`

// node is one server over its own durable data directory.
type node struct {
	t       *testing.T
	backend *store.DurableBackend
	srv     *server.Server
}

func openNode(t *testing.T, dir string, asReplica bool, maxLag time.Duration, opts ...store.DurableOption) *node {
	t.Helper()
	backend := store.NewDurableBackend(dir, opts...)
	srv, err := server.New(server.Config{
		Storage:       backend,
		Now:           func() time.Time { return t0 },
		Catalog:       server.DefaultCatalog(),
		MaxReplicaLag: maxLag,
	})
	if err != nil {
		t.Fatal(err)
	}
	if asReplica {
		err = srv.OpenAsReplica()
	} else {
		err = srv.Open()
	}
	if err != nil {
		t.Fatal(err)
	}
	return &node{t: t, backend: backend, srv: srv}
}

// leaderFor attaches a replication Leader to the node's log and returns
// the composed handler replication and phone traffic share.
func leaderFor(t *testing.T, n *node, opts ...LeaderOption) (*Leader, transport.Handler) {
	t.Helper()
	ld, err := NewLeader(n.backend.WAL(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ld, Handler(ld, n.srv.Handler())
}

// codecSender drives a handler through a full encode/decode round trip,
// so pulls exercise the same wire path phones use.
type codecSender struct{ h transport.Handler }

func (s codecSender) Send(ctx context.Context, m wire.Message) (wire.Message, error) {
	frame, err := wire.Encode(m)
	if err != nil {
		return nil, err
	}
	req, err := wire.Decode(frame)
	if err != nil {
		return nil, err
	}
	resp, err := s.h(ctx, req)
	if err != nil {
		return nil, err
	}
	out, err := wire.Encode(resp)
	if err != nil {
		return nil, err
	}
	return wire.Decode(out)
}

// catchUp pulls until one full round advances nothing.
func catchUp(t *testing.T, f *Follower) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		n, err := f.PullOnce(context.Background())
		if err != nil {
			t.Fatalf("pull: %v", err)
		}
		if n == 0 && f.Status().LagRecords == 0 {
			return
		}
	}
	t.Fatal("follower never caught up")
}

// allRecords drains a node's log from the beginning.
func allRecords(t *testing.T, n *node) [][]byte {
	t.Helper()
	recs, err := n.backend.WAL().ReadAfter(0, 0, 0)
	if err != nil {
		t.Fatalf("reading log: %v", err)
	}
	return recs
}

func sameRecords(t *testing.T, what string, a, b [][]byte) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d records", what, len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("%s: record %d differs:\n%q\n%q", what, i+1, a[i], b[i])
		}
	}
}

func starbucksApp() store.Application {
	return store.Application{
		ID: "app-sb", Creator: "owner",
		Category: world.CategoryCoffee, Place: world.Starbucks,
		Lat: 43.0413, Lon: -76.1350, RadiusM: 60,
		Script: testScript, PeriodSec: 10800,
	}
}

func participate(t *testing.T, h transport.Handler, userID, token string, budget int) *wire.Schedule {
	t.Helper()
	resp, err := h(nil, &wire.Participate{
		UserID: userID, Token: token, AppID: "app-sb",
		Loc:    wire.Location{Lat: 43.0413, Lon: -76.1350},
		Budget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	ack := resp.(*wire.Ack)
	if !ack.OK {
		t.Fatalf("participation refused: %s", ack.Message)
	}
	inner, err := wire.Decode(ack.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return inner.(*wire.Schedule)
}

func upload(t *testing.T, h transport.Handler, sched *wire.Schedule, seq int) {
	t.Helper()
	ms := t0.Add(time.Duration(seq) * time.Minute).UnixMilli()
	series := make([]wire.SensorSeries, 0, 4)
	for _, sensor := range []string{"temperature", "light", "microphone", "wifi"} {
		series = append(series, wire.SensorSeries{
			Sensor: sensor,
			Samples: []wire.SensorSample{
				{AtUnixMilli: ms, WindowMilli: 5000, Readings: []float64{70 + float64(seq)}},
			},
		})
	}
	resp, err := h(nil, &wire.DataUpload{
		TaskID: sched.TaskID, AppID: sched.AppID, UserID: sched.UserID,
		ReportID: sched.UserID + "/" + sched.TaskID + "/" + string(rune('0'+seq)),
		Series:   series,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); !ack.OK {
		t.Fatalf("upload refused: %+v", ack)
	}
}

func rank(t *testing.T, h transport.Handler) *wire.RankResponse {
	t.Helper()
	resp, err := h(nil, &wire.RankRequest{UserID: "alice", Category: world.CategoryCoffee})
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := resp.(*wire.RankResponse)
	if !ok {
		t.Fatalf("rank reply = %+v", resp)
	}
	return rr
}

// TestFollowerConvergesAndServesReads is the tentpole's core contract:
// after catching up, the follower's log is byte-identical to the
// leader's, its derived state answers reads (ping, rank) like the
// leader, and it refuses writes retryably.
func TestFollowerConvergesAndServesReads(t *testing.T) {
	leader := openNode(t, t.TempDir(), false, 0)
	defer leader.srv.Close()
	_, lh := leaderFor(t, leader)

	if err := leader.srv.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	sched := participate(t, lh, "alice", "tok-a", 6)
	for i := 1; i <= 3; i++ {
		upload(t, lh, sched, i)
	}
	leaderRank := rank(t, lh) // folds features → more WAL records

	fn := openNode(t, t.TempDir(), true, 0)
	defer fn.srv.Close()
	f := NewFollower("node-b", fn.srv.DB(), codecSender{lh},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 1))
	fn.srv.SetReplicaLagProbe(f.LagProbe())
	catchUp(t, f)

	sameRecords(t, "follower log", allRecords(t, leader), allRecords(t, fn))

	// Ping (read) served by the replica from replicated schedule rows.
	resp, err := fn.srv.Handler()(nil, &wire.Ping{Token: "tok-a"})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); !ack.OK || len(ack.Payload) == 0 {
		t.Fatalf("replica ping = %+v", ack)
	}

	// Rank served off the replica's own snapshot of replicated features,
	// identical to the leader's ranking.
	replicaRank := rank(t, fn.srv.Handler())
	if replicaRank.Stale {
		t.Fatal("caught-up replica flagged its rank reply stale")
	}
	if len(replicaRank.Ranked) != len(leaderRank.Ranked) {
		t.Fatalf("replica ranked %d places, leader %d", len(replicaRank.Ranked), len(leaderRank.Ranked))
	}
	for i := range replicaRank.Ranked {
		if replicaRank.Ranked[i].Place != leaderRank.Ranked[i].Place {
			t.Fatalf("rank order diverged at %d: %s vs %s",
				i, replicaRank.Ranked[i].Place, leaderRank.Ranked[i].Place)
		}
	}

	// Writes are refused retryably (503), not silently applied.
	resp, err = fn.srv.Handler()(nil, &wire.Leave{UserID: "alice", AppID: "app-sb"})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); ack.OK || ack.Code != 503 {
		t.Fatalf("replica write = %+v, want 503 refusal", ack)
	}
}

// TestFollowerResumesAcrossRestart kills the follower mid-stream and
// proves the reopened node resumes from its own durable position.
func TestFollowerResumesAcrossRestart(t *testing.T) {
	leader := openNode(t, t.TempDir(), false, 0)
	defer leader.srv.Close()
	_, lh := leaderFor(t, leader)
	if err := leader.srv.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	sched := participate(t, lh, "alice", "tok-a", 8)
	for i := 1; i <= 6; i++ {
		upload(t, lh, sched, i)
	}

	fdir := t.TempDir()
	fn := openNode(t, fdir, true, 0)
	f := NewFollower("node-b", fn.srv.DB(), codecSender{lh},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 1))
	f.maxRecords = 2
	if _, err := f.PullOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.PullOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	mid := fn.srv.DB().AppliedLSN()
	if mid == 0 || mid >= leader.backend.WAL().LastLSN() {
		t.Fatalf("follower applied %d of %d; want a strict prefix", mid, leader.backend.WAL().LastLSN())
	}
	fn.srv.Kill() // crash the follower, acked records only

	fn2 := openNode(t, fdir, true, 0)
	defer fn2.srv.Close()
	if got := fn2.srv.DB().AppliedLSN(); got < mid {
		t.Fatalf("reopened follower at LSN %d, had durably applied %d", got, mid)
	}
	f2 := NewFollower("node-b", fn2.srv.DB(), codecSender{lh},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 2))
	catchUp(t, f2)
	sameRecords(t, "log after follower restart", allRecords(t, leader), allRecords(t, fn2))
}

// TestRetentionSurvivesLeaderRestart pins the replica_state.json path: a
// leader restart must re-pin persisted follower acks before its first
// checkpoint can truncate them away.
func TestRetentionSurvivesLeaderRestart(t *testing.T) {
	dir := t.TempDir()
	leader := openNode(t, dir, false, 0, store.WithSegmentBytes(256))
	_, lh := leaderFor(t, leader, WithStateDir(dir))
	st := leader.srv.DB()
	for i := 0; i < 60; i++ {
		if err := st.PutUser(store.User{ID: userID(i), Name: "u", Token: tokenID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	fn := openNode(t, t.TempDir(), true, 0)
	defer fn.srv.Close()
	f := NewFollower("node-b", fn.srv.DB(), codecSender{lh},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 1))
	f.maxRecords = 10
	if _, err := f.PullOnce(context.Background()); err != nil { // applies 1..10
		t.Fatal(err)
	}
	if _, err := f.PullOnce(context.Background()); err != nil { // acks 10, applies 11..20
		t.Fatal(err)
	}
	// The leader's persisted floor is what the follower ACKED (10), one
	// pull behind what it has applied (20).
	const ack = uint64(10)

	if err := leader.srv.Close(); err != nil { // checkpoint + truncate on the way down
		t.Fatal(err)
	}
	leader2 := openNode(t, dir, false, 0, store.WithSegmentBytes(256))
	defer leader2.srv.Close()
	ld2, lh2 := leaderFor(t, leader2, WithStateDir(dir))
	if got := ld2.Status().Followers; len(got) != 1 || got[0].ID != "node-b" || got[0].AckLSN != ack {
		t.Fatalf("restarted leader follower state = %+v", got)
	}
	if err := leader2.backend.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The follower's tail survived both the shutdown checkpoint and the
	// post-restart one: it can resume exactly where it acked.
	if _, err := leader2.backend.WAL().ReadAfter(ack, 1, 0); err != nil {
		t.Fatalf("follower tail truncated across leader restart: %v", err)
	}
	f2 := NewFollower("node-b", fn.srv.DB(), codecSender{lh2},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 3))
	catchUp(t, f2)
	// The leader compacted its prefix below the ack; compare the tails
	// both sides still hold.
	lt, err := leader2.backend.WAL().ReadAfter(ack, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := fn.backend.WAL().ReadAfter(ack, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "log tail after leader restart", lt, ft)
}

func userID(i int) string  { return "user-" + string(rune('a'+i/26)) + string(rune('a'+i%26)) }
func tokenID(i int) string { return "tok-" + string(rune('a'+i/26)) + string(rune('a'+i%26)) }

// TestCompactedStreamDemandsResync: a follower arriving after the tail
// it needs was checkpointed away is told to resync, not fed a gap.
func TestCompactedStreamDemandsResync(t *testing.T) {
	leader := openNode(t, t.TempDir(), false, 0, store.WithSegmentBytes(256))
	defer leader.srv.Close()
	_, lh := leaderFor(t, leader)
	st := leader.srv.DB()
	for i := 0; i < 60; i++ {
		if err := st.PutUser(store.User{ID: userID(i), Name: "u", Token: tokenID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.backend.Checkpoint(); err != nil { // no followers: truncates freely
		t.Fatal(err)
	}
	fn := openNode(t, t.TempDir(), true, 0)
	defer fn.srv.Close()
	f := NewFollower("node-late", fn.srv.DB(), codecSender{lh},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 1))
	if _, err := f.PullOnce(context.Background()); !errors.Is(err, ErrNeedsResync) {
		t.Fatalf("late follower pull = %v, want ErrNeedsResync", err)
	}
	if s := f.Status(); !s.NeedsResync || s.Connected {
		t.Fatalf("status after compacted pull = %+v", s)
	}
}

// TestPlannedFailover walks the operator runbook: demote the leader,
// drain the follower, promote it, rejoin the old leader as a follower —
// and proves the logs stay byte-identical with writes flowing through
// the new leader.
func TestPlannedFailover(t *testing.T) {
	a := openNode(t, t.TempDir(), false, 0)
	defer a.srv.Close()
	_, ah := leaderFor(t, a)
	if err := a.srv.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	sched := participate(t, ah, "alice", "tok-a", 6)
	upload(t, ah, sched, 1)

	b := openNode(t, t.TempDir(), true, 0)
	defer b.srv.Close()
	fb := NewFollower("node-b", b.srv.DB(), codecSender{ah},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 1))
	catchUp(t, fb)

	// Step 1: demote A. Writes are now refused on both nodes.
	a.srv.Demote()
	resp, err := ah(nil, &wire.Leave{UserID: "alice", AppID: "app-sb"})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); ack.OK || ack.Code != 503 {
		t.Fatalf("demoted leader write = %+v, want 503", ack)
	}
	// Step 2: drain — the follower reaches the frozen head.
	catchUp(t, fb)
	if got, want := b.srv.DB().AppliedLSN(), a.backend.WAL().LastLSN(); got != want {
		t.Fatalf("drained follower at %d, leader head %d", got, want)
	}
	// Step 3: promote B. It rebuilds scheduler state and accepts writes.
	if err := b.srv.Promote(); err != nil {
		t.Fatal(err)
	}
	_, bh := leaderFor(t, b)
	upload(t, bh, sched, 2) // alice's phone retries against the new leader
	bob := participate(t, bh, "bob", "tok-b", 4)
	upload(t, bh, bob, 1)

	// Step 4: A rejoins as a follower of B, resuming from its own head.
	fa := NewFollower("node-a", a.srv.DB(), codecSender{bh},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 2))
	catchUp(t, fa)
	sameRecords(t, "old leader log after rejoin", allRecords(t, b), allRecords(t, a))

	// The rejoined A serves the post-failover state read-only: bob's
	// schedule is visible through its ping path.
	resp, err = a.srv.Handler()(nil, &wire.Ping{Token: "tok-b"})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.Ack); !ack.OK || len(ack.Payload) == 0 {
		t.Fatalf("rejoined node ping = %+v", ack)
	}
}

// TestUnplannedFailoverForkResyncs is TestPlannedFailover without the
// Demote: A acks an upload B never pulled, B is promoted and takes three
// writes, and only then does A follow B. The two logs reach the same
// head but differ from that upload's record on, so log matching refuses
// A's first pull instead of reporting a lag of 0, and A resyncs from B's
// checkpoint to a log that continues B's.
func TestUnplannedFailoverForkResyncs(t *testing.T) {
	adir := t.TempDir()
	a := openNode(t, adir, false, 0)
	_, ah := leaderFor(t, a)
	if err := a.srv.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	sched := participate(t, ah, "alice", "tok-a", 6)
	upload(t, ah, sched, 1)

	b := openNode(t, t.TempDir(), true, 0)
	defer b.srv.Close()
	catchUp(t, NewFollower("node-b", b.srv.DB(), codecSender{ah},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 1)))

	upload(t, ah, sched, 2) // acked by A alone
	if err := b.srv.Promote(); err != nil {
		t.Fatal(err)
	}
	bld, bh := leaderFor(t, b, WithStateDir(b.backend.Dir()))
	defer bld.Close()
	upload(t, bh, sched, 2)
	bob := participate(t, bh, "bob", "tok-b", 4)
	upload(t, bh, bob, 1)
	if al, bl := a.backend.WAL().LastLSN(), b.backend.WAL().LastLSN(); al > bl {
		t.Fatalf("A's log ends at %d, past B's %d: the probe wants a fork no longer than B's log", al, bl)
	}

	a.srv.Demote()
	fa := NewFollower("node-a", a.srv.DB(), codecSender{bh},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 2))
	if _, err := fa.PullOnce(context.Background()); !errors.Is(err, ErrNeedsResync) {
		t.Fatalf("pull by a follower whose log forked from the leader's = %v, want ErrNeedsResync", err)
	}
	if s := fa.Status(); !s.NeedsResync || s.Connected {
		t.Fatalf("status after a forked pull = %+v", s)
	}

	checkpoint(t, b)
	if err := a.srv.Close(); err != nil {
		t.Fatal(err)
	}
	walLSN, err := ResyncDataDir(context.Background(), "node-a", codecSender{bh}, adir)
	if err != nil {
		t.Fatal(err)
	}
	a2 := openNode(t, adir, true, 0)
	defer a2.srv.Close()
	catchUp(t, NewFollower("node-a", a2.srv.DB(), codecSender{bh},
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 3)))
	sameRecords(t, "A's log after resync", logTail(t, b, walLSN), logTail(t, a2, walLSN))
}

// TestPullLogMatching drives HandlePull directly: a pull whose CRC
// matches the leader's record at its ack is served, one that differs is
// answered Compacted, and one whose ack record the leader truncated is
// trusted and served.
func TestPullLogMatching(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 40; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%02d", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	ld, err := NewLeader(l)
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	crc := func(lsn uint64) uint32 { return wal.Checksum([]byte(fmt.Sprintf("record-%02d", lsn))) }
	pull := func(id string, ack uint64, prev uint32) *wire.ReplRecords {
		t.Helper()
		rr, err := ld.HandlePull(&wire.ReplPull{FollowerID: id, FromLSN: ack + 1, MaxRecords: 4, PrevCRC: prev, HasPrevCRC: true})
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}
	if rr := pull("match", 20, crc(20)); rr.Compacted || len(rr.Records) != 4 || string(rr.Records[0]) != "record-21" {
		t.Fatalf("matching pull = compacted %v, %d records", rr.Compacted, len(rr.Records))
	}
	if rr := pull("match", 24, crc(24)); rr.Compacted || len(rr.Records) != 4 {
		t.Fatalf("steady pull = compacted %v, %d records", rr.Compacted, len(rr.Records))
	}
	if rr := pull("fork", 20, crc(20)+1); !rr.Compacted || len(rr.Records) != 0 {
		t.Fatalf("forked pull = compacted %v, %d records", rr.Compacted, len(rr.Records))
	}

	// Truncate to a segment boundary k: record k is gone, k+1 is held.
	segs, err := wal.Inspect(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want 3+ segments: %d, %v", len(segs), err)
	}
	k := segs[1].FirstLSN - 1
	if err := l.TruncateThrough(k); err != nil {
		t.Fatal(err)
	}
	if rr := pull("late", k, crc(k)+1); rr.Compacted || len(rr.Records) == 0 || string(rr.Records[0]) != fmt.Sprintf("record-%02d", k+1) {
		t.Fatalf("pull at the truncated record %d = compacted %v, %d records", k, rr.Compacted, len(rr.Records))
	}
}

// TestReplicaStalenessGate pins the bounded-staleness contract: a
// replica past its lag bound refuses rank queries (503), one within the
// bound but behind the leader serves with the explicit Stale flag.
func TestReplicaStalenessGate(t *testing.T) {
	leader := openNode(t, t.TempDir(), false, 0)
	defer leader.srv.Close()
	_, lh := leaderFor(t, leader)
	if err := leader.srv.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	sched := participate(t, lh, "alice", "tok-a", 6)
	upload(t, lh, sched, 1)
	rank(t, lh) // fold features so replicas have a rankable matrix

	clk := vclock.NewVirtual(t0)
	backend := store.NewDurableBackend(t.TempDir())
	srv, err := server.New(server.Config{
		Storage:       backend,
		Now:           clk.Now,
		Catalog:       server.DefaultCatalog(),
		MaxReplicaLag: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.OpenAsReplica(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Before any replication stream exists, lag is unbounded: refuse.
	resp, err := srv.Handler()(nil, &wire.RankRequest{UserID: "alice", Category: world.CategoryCoffee})
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := resp.(*wire.Ack); !ok || ack.OK || ack.Code != 503 {
		t.Fatalf("unprobed replica rank = %+v, want 503", resp)
	}

	f := NewFollower("node-b", srv.DB(), codecSender{lh},
		WithFollowerClock(clk), WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 1))
	srv.SetReplicaLagProbe(f.LagProbe())
	catchUp(t, f)

	// Fresh contact, zero lag: a clean, unflagged reply.
	if rr := rank(t, srv.Handler()); rr.Stale {
		t.Fatal("fresh replica flagged stale")
	}

	// New leader writes the replica knows about (the pull's LeaderLSN)
	// but has not applied: serve, flagged stale.
	upload(t, lh, sched, 2)
	if _, err := f.PullOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	upload(t, lh, sched, 3)
	pullOneRecordBehind(t, f, lh, srv)

	// Contact older than the bound: refuse outright.
	clk.Advance(2 * time.Second)
	resp, err = srv.Handler()(nil, &wire.RankRequest{UserID: "alice", Category: world.CategoryCoffee})
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := resp.(*wire.Ack); !ok || ack.OK || ack.Code != 503 {
		t.Fatalf("over-bound replica rank = %+v, want 503", resp)
	}
}

// pullOneRecordBehind leaves the follower exactly one record behind a
// leader that keeps writing, then asserts the rank reply carries the
// Stale flag.
func pullOneRecordBehind(t *testing.T, f *Follower, lh transport.Handler, srv *server.Server) {
	t.Helper()
	// One bounded pull: advances but leaves the newest record(s) behind.
	f.maxRecords = 1
	if _, err := f.PullOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.maxRecords = DefaultBatchRecords
	if s := f.Status(); s.LagRecords == 0 {
		t.Skip("leader fold landed in one record; cannot stage lag")
	}
	if rr := rank(t, srv.Handler()); !rr.Stale {
		t.Fatal("lagging replica served an unflagged rank reply")
	}
}

// TestFollowerShipsRecordsOverFourMiB: reports a leader accepts must reach
// its followers whatever their size — one report of 600 000 readings
// (≈ 4.8 MB) and a full burst of MaxBatchReports ≈ 1.1 KB reports
// (≈ 4.5 MB, one WAL record). Both records are past 4 MiB, so the codec
// must bound a shipped record only by the frame around it; a tighter cap
// on byte fields would fail every pull from that record on.
func TestFollowerShipsRecordsOverFourMiB(t *testing.T) {
	leader := openNode(t, t.TempDir(), false, 0)
	defer leader.srv.Close()
	_, lh := leaderFor(t, leader)
	if err := leader.srv.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	sched := participate(t, lh, "alice", "tok-a", 6)
	phone := codecSender{lh}
	report := func(id string, readings int) wire.DataUpload {
		vals := make([]float64, readings)
		for i := range vals {
			vals[i] = 70 + float64(i%97)/10
		}
		return wire.DataUpload{
			TaskID: sched.TaskID, AppID: sched.AppID, UserID: sched.UserID, ReportID: id,
			Series: []wire.SensorSeries{{Sensor: "temperature", Samples: []wire.SensorSample{
				{AtUnixMilli: t0.UnixMilli(), WindowMilli: 5000, Readings: vals},
			}}},
		}
	}
	send := func(what string, m wire.Message) {
		t.Helper()
		resp, err := phone.Send(context.Background(), m)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if ack, ok := resp.(*wire.Ack); !ok || !ack.OK || ack.Code != 200 {
			t.Fatalf("%s refused: %+v", what, resp)
		}
	}
	big := report("big", 600_000)
	send("4.8 MB report", &big)
	batch := &wire.DataUploadBatch{Uploads: make([]wire.DataUpload, wire.MaxBatchReports)}
	for i := range batch.Uploads {
		batch.Uploads[i] = report(fmt.Sprint("burst-", i), 130)
	}
	send("full burst", batch)

	fn := openNode(t, t.TempDir(), true, 0)
	defer fn.srv.Close()
	f := NewFollower("node-b", fn.srv.DB(), phone,
		WithFollowerBackoff(time.Millisecond, 10*time.Millisecond, 1))
	catchUp(t, f)
	recs := allRecords(t, leader)
	sameRecords(t, "follower log", recs, allRecords(t, fn))
	over := 0
	for _, rec := range recs {
		if len(rec) > 4<<20 {
			over++
		}
	}
	if over != 2 {
		t.Fatalf("%d records over 4 MiB, want the report's and the burst's", over)
	}
}

// TestUndecodableLedgerIsDiscarded pins the ledger's best-effort rule: a
// replica_state.json that power loss left empty or half-written must not
// keep a healthy leader from starting. NewLeader discards it (counted in
// sor_replica_state_discarded_total), starts with no followers, and the
// next pull writes a ledger the following restart reads back.
func TestUndecodableLedgerIsDiscarded(t *testing.T) {
	for name, content := range map[string]string{
		"empty":   "",
		"garbage": "\x00\x17not json at all",
		"torn":    `{"followers":{"node-b":1`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			for i := 0; i < 3; i++ {
				if _, err := log.Append([]byte{byte('a' + i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, stateFile), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			ld, err := NewLeader(log, WithStateDir(dir), WithLeaderMetrics(reg))
			if err != nil {
				t.Fatalf("NewLeader over a %s ledger: %v", name, err)
			}
			if got := ld.Status().Followers; len(got) != 0 {
				t.Fatalf("followers from a discarded ledger: %+v", got)
			}
			if got := reg.Counter("sor_replica_state_discarded_total").Value(); got != 1 {
				t.Fatalf("sor_replica_state_discarded_total = %d, want 1", got)
			}
			resp, err := ld.HandlePull(&wire.ReplPull{FollowerID: "node-b", FromLSN: 2})
			if err != nil || len(resp.Records) != 2 {
				t.Fatalf("pull after discard: %+v, %v", resp, err)
			}
			ld2, err := NewLeader(log, WithStateDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			if got := ld2.Status().Followers; len(got) != 1 || got[0].ID != "node-b" || got[0].AckLSN != 1 {
				t.Fatalf("ledger rewritten by the pull reads back as %+v", got)
			}
		})
	}
}

// TestLedgerWrittenOncePerSegment pins the ledger's write rule: a pull
// rewrites replica_state.json only when its follower registers, its ack
// falls, or it has moved into a later WAL segment than the persisted
// ack's. The registering pull learns no segment, so after it the pulls
// inside one segment write the ledger at most once, and a follower
// crossing segments writes it at most once per segment.
func TestLedgerWrittenOncePerSegment(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	appendRecords := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := log.Append(bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	segments := func() int {
		names, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return len(names)
	}
	appendRecords(30)
	if segments() != 1 {
		t.Fatalf("30 records span %d segments, want 1", segments())
	}
	ld, err := NewLeader(log, WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	// A write replaces the sentinel the test leaves in the ledger; written
	// keeps what the last write left.
	ledger := filepath.Join(dir, stateFile)
	const sentinel = `{"followers":{}}`
	writes := 0
	var written []byte
	pull := func(from uint64) *wire.ReplRecords {
		t.Helper()
		if err := os.WriteFile(ledger, []byte(sentinel), 0o644); err != nil {
			t.Fatal(err)
		}
		resp, err := ld.HandlePull(&wire.ReplPull{FollowerID: "node-b", FromLSN: from, MaxRecords: 4})
		if err != nil || resp.Compacted {
			t.Fatalf("pull from %d: %+v, %v", from, resp, err)
		}
		if data, err := os.ReadFile(ledger); err != nil || string(data) != sentinel {
			writes, written = writes+1, data
		}
		return resp
	}
	catchUp := func(from uint64) (next uint64, pulls int) {
		for {
			resp := pull(from)
			pulls++
			if len(resp.Records) == 0 {
				return from, pulls
			}
			from += uint64(len(resp.Records))
		}
	}
	pull(1)
	if writes != 1 {
		t.Fatalf("the registering pull wrote the ledger %d times, want once", writes)
	}
	writes = 0
	next, pulls := catchUp(5)
	if pulls < 8 || writes > 1 {
		t.Fatalf("%d pulls inside one segment wrote the ledger %d times, want at most once", pulls, writes)
	}
	// An ack that falls below the persisted one (the follower lost its
	// unsynced tail) is written; one that stays above it is not.
	writes = 0
	pull(next - 10)
	if writes != 0 {
		t.Fatalf("an ack above the persisted one wrote the ledger %d times", writes)
	}
	pull(1)
	if writes != 1 {
		t.Fatalf("an ack below the persisted one wrote the ledger %d times, want once", writes)
	}
	next, _ = catchUp(5)
	// Crossing segments writes at most once per segment, and the ledger's
	// ack leaves the first segment.
	appendRecords(150)
	writes = 0
	next, pulls = catchUp(next)
	if n := segments(); writes == 0 || writes > n || pulls < 2*n {
		t.Fatalf("%d pulls across %d segments wrote the ledger %d times", pulls, n, writes)
	}
	if err := os.WriteFile(ledger, written, 0o644); err != nil {
		t.Fatal(err)
	}
	ld2, err := NewLeader(log, WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := ld2.Status().Followers; len(got) != 1 || got[0].AckLSN <= 30 || got[0].AckLSN >= next {
		t.Fatalf("ledger after crossing segments reads back as %+v (head %d)", got, next-1)
	}
}
