package sor_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"sor"
	"sor/internal/cluster"
	"sor/internal/transport/session"
	"sor/internal/wire"
)

// Budgets of one routed op, allocations and bytes: the largest of 20 runs
// plus 15 % (upload 163.8–164.2 allocs and 12 976–13 046 B, cached rank
// 158.1–158.2 allocs and 12 442–12 458 B).
const (
	routedUploadAllocs, routedUploadBytes = 189, 15000
	routedRankAllocs, routedRankBytes     = 182, 14330
)

// TestRoutedOpAllocs measures what one routed request allocates across
// the whole process — phone client, router, peer session, member dispatch
// and the wire answer — for a cached rank query and for a single-report
// upload, each sent through a router to a member started by StartNode.
// It then measures each boundary of that path alone: the member's
// dispatcher called in-process, and a peer session, the router and the
// phone's HTTP client each in front of a handler that answers with the
// member's own reply. Every figure includes building the request.
// Process-wide counters pick up background work, so each figure is the
// minimum over several repetitions of a block of requests.
func TestRoutedOpAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting")
	}
	const reps, block = 7, 200
	mapPath := filepath.Join(t.TempDir(), "cluster.json")
	member := startTestNode(t, sor.Node{Name: "cafe-a", Listen: "127.0.0.1:0", Cluster: mapPath, Shard: "shard-a"})
	if err := member.Server().CreateApp(nodeTestApp("cafe-1", "cafe", 43.0)); err != nil {
		t.Fatal(err)
	}
	pinCafe(t, mapPath)
	router := startTestRouter(t, mapPath, sor.Retry{Attempts: 5, Base: time.Millisecond, Cap: 5 * time.Millisecond, Seed: 1}, nil)
	c := phoneClient(t, router)
	task := nodeParticipate(t, c, "cafe-1", "alice", 43.0)
	seq := 0
	// upload and rank send one op through send.
	upload := func(send sor.Handler) {
		seq++
		resp, err := send(context.Background(), cafeUpload(task, seq))
		acked(t, "upload", resp, err)
	}
	rank := func(send sor.Handler) {
		resp, err := send(context.Background(), &wire.RankRequest{UserID: "bob", Category: "cafe", TopK: 10})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := resp.(*wire.RankResponse); !ok {
			t.Fatalf("rank answered %+v", resp)
		}
	}
	// perOp is the fewest allocations and bytes one op of a block took.
	perOp := func(op func(sor.Handler), send sor.Handler) (allocs, bytes float64) {
		for i := 0; i < block; i++ { // warm pools, sessions and the cache
			op(send)
		}
		allocs, bytes = -1, -1
		var before, after runtime.MemStats
		for r := 0; r < reps; r++ {
			runtime.ReadMemStats(&before)
			for i := 0; i < block; i++ {
				op(send)
			}
			runtime.ReadMemStats(&after)
			a := float64(after.Mallocs-before.Mallocs) / block
			b := float64(after.TotalAlloc-before.TotalAlloc) / block
			if allocs < 0 || a < allocs {
				allocs = a
			}
			if bytes < 0 || b < bytes {
				bytes = b
			}
		}
		return allocs, bytes
	}
	routed := c.Send
	upload(routed) // the first upload gives the category a fully sensed place
	ua, ub := perOp(upload, routed)
	ra, rb := perOp(rank, routed)
	t.Logf("routed single-report upload: %.1f allocs, %.0f B per op", ua, ub)
	t.Logf("routed cached rank query: %.1f allocs, %.0f B per op", ra, rb)
	if ua > routedUploadAllocs || ub > routedUploadBytes {
		t.Errorf("a routed upload allocates %.1f times and %.0f B, budget %d and %d B", ua, ub, routedUploadAllocs, routedUploadBytes)
	}
	if ra > routedRankAllocs || rb > routedRankBytes {
		t.Errorf("a routed cached rank query allocates %.1f times and %.0f B, budget %d and %d B", ra, rb, routedRankAllocs, routedRankBytes)
	}

	// The layers. canned answers each op with the member's own reply.
	dispatch := member.Server().Handler()
	ack, err := dispatch(context.Background(), cafeUpload(task, 0))
	acked(t, "upload", ack, err)
	ranked, err := dispatch(context.Background(), &wire.RankRequest{UserID: "bob", Category: "cafe", TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	canned := func(_ context.Context, m wire.Message) (wire.Message, error) {
		if _, ok := m.(*wire.RankRequest); ok {
			return ranked, nil
		}
		return ack, nil
	}
	// Each layer's budgets are the largest of 20 runs plus 15 %; the runs
	// agree within 0.9 %. Readings: upload allocs and B, cached rank allocs
	// and B.
	for _, l := range []struct {
		name   string
		send   sor.Handler
		budget [4]float64 // as the readings
	}{
		// 8, 358–361; 5, 256.
		{"member dispatch in-process", dispatch, [4]float64{9.2, 415, 5.8, 295}},
		// 37, 1 986–1 992; 34, 1 736.
		{"peer session round trip", peerSession(t, canned).Send, [4]float64{42.6, 2291, 39.1, 1997}},
		// 4, 224; 1, 64.
		{"router over an in-process sender", inProcessRouter(t, canned), [4]float64{4.6, 258, 1.2, 74}},
		// 126.0–126.1, 10 694–10 700; 123.0–123.1, 10 464–10 476.
		{"HTTP client and handler", httpClient(t, canned).Send, [4]float64{145, 12305, 141.6, 12048}},
	} {
		var got [4]float64
		got[0], got[1] = perOp(upload, l.send)
		got[2], got[3] = perOp(rank, l.send)
		t.Logf("%s: upload %.1f allocs, %.0f B; cached rank %.1f allocs, %.0f B per op", l.name, got[0], got[1], got[2], got[3])
		for i := range got {
			if got[i] > l.budget[i] {
				t.Errorf("%s: %v per op, budget %v", l.name, got, l.budget)
				break
			}
		}
	}
}

// peerSession is a peer session (session.DialPeer) to a member that
// serves h.
func peerSession(t *testing.T, h sor.Handler) *session.Client {
	t.Helper()
	peers, err := session.NewServer(h, session.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle(session.UpgradePath, peers.UpgradeHandler())
	srv := httptest.NewServer(mux)
	c, err := session.DialPeer(srv.URL, "router/1", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		srv.Close()
		_ = peers.Close()
	})
	return c
}

// inProcessRouter is a router's handler whose one shard's leader is h,
// reached without a transport.
func inProcessRouter(t *testing.T, h sor.Handler) sor.Handler {
	t.Helper()
	reg := cluster.NewRegistry()
	reg.AddShard("shard-a")
	if err := reg.AddMember(cluster.Member{Name: "cafe-a", Shard: "shard-a", Role: cluster.RoleLeader, Addr: "in-process"}); err != nil {
		t.Fatal(err)
	}
	reg.RegisterApp("cafe-1", "cafe")
	reg.PinKey("cafe", "shard-a")
	rt, err := cluster.NewRouter("router-1", reg, func(string) (cluster.Sender, error) { return handlerSender{h}, nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt.Handler()
}

// httpClient is a phone's client, one attempt per send, to an HTTP
// endpoint (NewHTTPHandler) that serves h.
func httpClient(t *testing.T, h sor.Handler) *sor.Client {
	t.Helper()
	hh, err := sor.NewHTTPHandler(h)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hh)
	t.Cleanup(srv.Close)
	c, err := sor.NewClient(srv.URL, sor.WithClientRetry(sor.Retry{Attempts: -1}))
	if err != nil {
		t.Fatal(err)
	}
	return c
}
