package server

// Allocation gate for the rank hot path (the re-plan gate, with its work
// bound, is TestReplanAllocsAndWork at the end of the file). A cached-hit rank query must
// cost a small constant number of allocations — the profile map, the
// canonical key string, and the wire response — independent of category
// size. The scratch that used to dominate (order/tie slices in the
// ranker, the profileKey buffer) is pooled; a regression that
// reintroduces per-place allocation on the hit path fails this gate
// loudly rather than showing up as a latency drift in a benchmark
// nobody reruns.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"sor/internal/schedule"
	"sor/internal/wire"
	"sor/internal/world"
)

// rankCachedHitAllocBudget is the gate. The measured cost today is ~5
// allocations (request profile map, key string, response struct, ranked
// slice); the budget leaves headroom for innocuous churn while still
// catching any O(places) regression.
const rankCachedHitAllocBudget = 16

func TestRankCachedHitAllocs(t *testing.T) {
	s, clock := newTestServer(t)
	for i := 0; i < 4; i++ {
		if err := s.CreateApp(concApp(i)); err != nil {
			t.Fatal(err)
		}
		task := concJoin(t, s, i, "alloc-user")
		up := reportWithReadings(task, concApp(i).ID, "alloc-user", clock.Now(), float64(10+i))
		if _, err := s.Handler()(nil, up); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()
	req := &wire.RankRequest{
		UserID: "alloc-user", Category: world.CategoryCoffee, TopK: 2,
		Prefs: []wire.PrefEntry{
			{Feature: "temperature", Kind: 1, Value: 11, Weight: 3},
			{Feature: "noise", Kind: 2, Weight: 2},
		},
	}
	// Prime the snapshot and the profile cache.
	if _, err := h(nil, req); err != nil {
		t.Fatal(err)
	}
	_ = clock // virtual clock frozen: the snapshot stays fresh throughout

	avg := testing.AllocsPerRun(200, func() {
		resp, err := h(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := resp.(*wire.RankResponse); !ok || len(r.Ranked) != 2 {
			t.Fatalf("unexpected response %+v", resp)
		}
	})
	if avg > rankCachedHitAllocBudget {
		t.Fatalf("cached-hit rank query costs %.1f allocs, budget %d", avg, rankCachedHitAllocBudget)
	}
	t.Logf("cached-hit rank query: %.1f allocs (budget %d)", avg, rankCachedHitAllocBudget)
}

// TestRankTopKBoundsResponse pins the wire-visible contract of the TopK
// knob: the response is truncated to k places, and k larger than the
// category degrades to the full ranking.
func TestRankTopKBoundsResponse(t *testing.T) {
	s, clock := newTestServer(t)
	for i := 0; i < 5; i++ {
		if err := s.CreateApp(concApp(i)); err != nil {
			t.Fatal(err)
		}
		task := concJoin(t, s, i, "topk-user")
		up := reportWithReadings(task, concApp(i).ID, "topk-user", clock.Now().Add(time.Duration(i)*time.Second), float64(50-i))
		if _, err := s.Handler()(nil, up); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()
	full, err := h(nil, &wire.RankRequest{UserID: "topk-user", Category: world.CategoryCoffee,
		Prefs: []wire.PrefEntry{{Feature: "temperature", Kind: 2, Weight: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	fullResp := full.(*wire.RankResponse)
	if len(fullResp.Ranked) != 5 {
		t.Fatalf("full rank returned %d places, want 5", len(fullResp.Ranked))
	}
	for _, k := range []int{1, 3, 9} {
		resp, err := h(nil, &wire.RankRequest{UserID: "topk-user", Category: world.CategoryCoffee, TopK: k,
			Prefs: []wire.PrefEntry{{Feature: "temperature", Kind: 2, Weight: 3}}})
		if err != nil {
			t.Fatal(err)
		}
		r := resp.(*wire.RankResponse)
		want := k
		if want > 5 {
			want = 5
		}
		if len(r.Ranked) != want {
			t.Fatalf("TopK=%d returned %d places, want %d", k, len(r.Ranked), want)
		}
		// The bounded prefix must agree with the full ranking.
		for i := range r.Ranked {
			if r.Ranked[i].Place != fullResp.Ranked[i].Place {
				t.Fatalf("TopK=%d rank %d: %s != full %s", k, i, r.Ranked[i].Place, fullResp.Ranked[i].Place)
			}
		}
	}
}

// replanAllocBudget is the gate on one re-plan. Measured today: 10 — the
// sorted member list, the accumulator and its miss products, the plan, its
// map, and the two arrays the assignments are carved from. The heap, the
// stale flags and the per-member windows are pooled scratch, so neither
// the 30 members nor the 1 081 instants show up here.
const replanAllocBudget = 16

// TestReplanAllocsAndWork gates a re-plan at the size a busy place
// reaches: 30 members on the default 3-hour period. Allocations must not
// grow with members or instants, and the lazy greedy must stay inside its
// work bound — one gain per instant up front, then per selection at most
// the 4·radius+1 entries an Add can stale.
func TestReplanAllocsAndWork(t *testing.T) {
	s, clock := newTestServer(t)
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	const members = 30
	for i := 0; i < members; i++ {
		clock.Set(t0.Add(time.Duration(i) * 4 * time.Minute))
		user := fmt.Sprintf("member-%02d", i)
		participate(t, s, user, "tok-"+user, 3+i%15)
	}
	st := s.states.get("app-sb")
	if n := st.timeline.N(); n != 1081 {
		t.Fatalf("timeline has %d instants, want 1081", n)
	}
	now := clock.Now()
	var plan *schedule.Plan
	avg := testing.AllocsPerRun(50, func() {
		var err error
		if plan, err = st.online.Replan(now); err != nil {
			t.Fatal(err)
		}
	})
	if avg > replanAllocBudget {
		t.Fatalf("a %d-member re-plan costs %.1f allocs, budget %d", members, avg, replanAllocBudget)
	}
	selections := 0
	for _, a := range plan.Assignments {
		selections += len(a.Instants)
	}
	if len(plan.Assignments) != members || selections < 100 {
		t.Fatalf("re-plan scheduled %d members, %d measurements", len(plan.Assignments), selections)
	}
	radius := int(math.Ceil(s.kernel.Support() / st.timeline.Step().Seconds()))
	if bound := st.timeline.N() + (4*radius+1)*selections; plan.OracleCalls > bound {
		t.Fatalf("re-plan made %d gain evaluations for %d selections, bound %d", plan.OracleCalls, selections, bound)
	}
	t.Logf("%d-member re-plan: %.1f allocs (budget %d), %d gain evaluations for %d selections",
		members, avg, replanAllocBudget, plan.OracleCalls, selections)
}
