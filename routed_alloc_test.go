package sor_test

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"sor"
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
	upload := func() {
		seq++
		resp, err := c.Send(context.Background(), cafeUpload(task, seq))
		acked(t, "upload", resp, err)
	}
	rank := func() {
		resp, err := c.Send(context.Background(), &wire.RankRequest{UserID: "bob", Category: "cafe", TopK: 10})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := resp.(*wire.RankResponse); !ok {
			t.Fatalf("rank answered %+v", resp)
		}
	}
	// perOp is the fewest allocations and bytes one op of a block took.
	perOp := func(op func()) (allocs, bytes float64) {
		for i := 0; i < block; i++ { // warm pools, sessions and the cache
			op()
		}
		allocs, bytes = -1, -1
		var before, after runtime.MemStats
		for r := 0; r < reps; r++ {
			runtime.ReadMemStats(&before)
			for i := 0; i < block; i++ {
				op()
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
	upload() // the first upload gives the category a fully sensed place
	ua, ub := perOp(upload)
	ra, rb := perOp(rank)
	t.Logf("routed single-report upload: %.1f allocs, %.0f B per op", ua, ub)
	t.Logf("routed cached rank query: %.1f allocs, %.0f B per op", ra, rb)
	if ua > routedUploadAllocs || ub > routedUploadBytes {
		t.Errorf("a routed upload allocates %.1f times and %.0f B, budget %d and %d B", ua, ub, routedUploadAllocs, routedUploadBytes)
	}
	if ra > routedRankAllocs || rb > routedRankBytes {
		t.Errorf("a routed cached rank query allocates %.1f times and %.0f B, budget %d and %d B", ra, rb, routedRankAllocs, routedRankBytes)
	}
}
