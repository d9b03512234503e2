package mcmf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(0); err == nil {
		t.Fatal("zero nodes must error")
	}
	g, err := NewGraph(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(-1, 0, 1, 0); err == nil {
		t.Fatal("out-of-range edge must error")
	}
	if _, err := g.AddEdge(0, 2, 1, 0); err == nil {
		t.Fatal("out-of-range edge must error")
	}
	if _, err := g.AddEdge(0, 1, -1, 0); err == nil {
		t.Fatal("negative capacity must error")
	}
	if _, err := g.AddEdge(0, 1, 1, math.NaN()); err == nil {
		t.Fatal("NaN cost must error")
	}
	if _, err := g.MinCostFlow(0, 0, 1); err == nil {
		t.Fatal("s==t must error")
	}
	if _, err := g.MinCostFlow(0, 5, 1); err == nil {
		t.Fatal("bad sink must error")
	}
	if _, err := g.MinCostFlow(0, 1, -1); err == nil {
		t.Fatal("negative request must error")
	}
}

func TestMinCostFlowSimplePath(t *testing.T) {
	// 0 -> 1 -> 2, capacities 5, costs 1 and 2.
	g, err := NewGraph(3)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.AddEdge(0, 1, 5, 1)
	b, _ := g.AddEdge(1, 2, 5, 2)
	res, err := g.MinCostFlow(0, 2, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 5 {
		t.Fatalf("flow = %d", res.Total)
	}
	if res.Cost != 15 {
		t.Fatalf("cost = %v", res.Cost)
	}
	if res.Flow(a) != 5 || res.Flow(b) != 5 {
		t.Fatalf("arc flows = %d, %d", res.Flow(a), res.Flow(b))
	}
	if res.Flow(999) != 0 {
		t.Fatal("unknown arc should report 0")
	}
}

func TestMinCostFlowPrefersCheapPath(t *testing.T) {
	// Two parallel paths 0->1->3 (cost 1+1) and 0->2->3 (cost 5+5), cap 1
	// each; requesting 1 unit must take the cheap one.
	g, err := NewGraph(4)
	if err != nil {
		t.Fatal(err)
	}
	cheap1, _ := g.AddEdge(0, 1, 1, 1)
	_, _ = g.AddEdge(1, 3, 1, 1)
	expensive1, _ := g.AddEdge(0, 2, 1, 5)
	_, _ = g.AddEdge(2, 3, 1, 5)
	res, err := g.MinCostFlow(0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 2 {
		t.Fatalf("cost = %v, want 2", res.Cost)
	}
	if res.Flow(cheap1) != 1 || res.Flow(expensive1) != 0 {
		t.Fatal("flow took the expensive path")
	}
	// Requesting max flow uses both.
	g2, _ := NewGraph(4)
	_, _ = g2.AddEdge(0, 1, 1, 1)
	_, _ = g2.AddEdge(1, 3, 1, 1)
	_, _ = g2.AddEdge(0, 2, 1, 5)
	_, _ = g2.AddEdge(2, 3, 1, 5)
	res2, err := g2.MinCostFlow(0, 3, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Total != 2 || res2.Cost != 12 {
		t.Fatalf("flow=%d cost=%v", res2.Total, res2.Cost)
	}
}

func TestMinCostFlowRerouting(t *testing.T) {
	// Classic residual test: the greedy first path must be partially
	// undone via the residual arc to achieve min cost at full flow.
	//   0->1 cap1 cost1, 0->2 cap1 cost2, 1->2 cap1 cost-2 ... keep costs
	// non-negative variant: diamond with a cross edge.
	g, err := NewGraph(4)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = g.AddEdge(0, 1, 2, 1)
	_, _ = g.AddEdge(0, 2, 1, 3)
	_, _ = g.AddEdge(1, 2, 1, 0)
	_, _ = g.AddEdge(1, 3, 1, 3)
	_, _ = g.AddEdge(2, 3, 2, 1)
	res, err := g.MinCostFlow(0, 3, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	// Best: 0->1->2->3 (1+0+1=2) and then 0->1->3 (1+3=4) vs 0->2->3 (3+1=4):
	// flow 3 total: 0->1 twice (1,1), 1->2 once, 1->3 once, 0->2 once, 2->3 twice.
	if res.Total != 3 {
		t.Fatalf("flow = %d, want 3", res.Total)
	}
	if math.Abs(res.Cost-10) > 1e-9 {
		t.Fatalf("cost = %v, want 10", res.Cost)
	}
}

func TestMinCostFlowNegativeCosts(t *testing.T) {
	// A negative-cost edge must be handled by the Bellman-Ford potentials.
	g, err := NewGraph(3)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = g.AddEdge(0, 1, 1, 4)
	_, _ = g.AddEdge(1, 2, 1, -3)
	res, err := g.MinCostFlow(0, 2, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 1 || math.Abs(res.Cost-1) > 1e-9 {
		t.Fatalf("flow=%d cost=%v", res.Total, res.Cost)
	}
}

func TestMinCostFlowDisconnected(t *testing.T) {
	g, err := NewGraph(4)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = g.AddEdge(0, 1, 1, 1)
	// node 3 unreachable
	res, err := g.MinCostFlow(0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 0 || res.Cost != 0 {
		t.Fatalf("flow=%d cost=%v, want zero", res.Total, res.Cost)
	}
}

func TestAssignValidation(t *testing.T) {
	if _, _, err := Assign(nil); err == nil {
		t.Fatal("empty matrix must error")
	}
	if _, _, err := Assign([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged matrix must error")
	}
	if _, _, err := Assign([][]float64{{math.Inf(1)}}); err == nil {
		t.Fatal("inf cost must error")
	}
}

func TestAssignIdentity(t *testing.T) {
	cost := [][]float64{
		{0, 10, 10},
		{10, 0, 10},
		{10, 10, 0},
	}
	perm, total, err := Assign(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 0 {
		t.Fatalf("total = %v", total)
	}
	for i, j := range perm {
		if i != j {
			t.Fatalf("perm = %v", perm)
		}
	}
}

func TestAssignAntiDiagonal(t *testing.T) {
	cost := [][]float64{
		{9, 9, 1},
		{9, 1, 9},
		{1, 9, 9},
	}
	perm, total, err := Assign(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Fatalf("total = %v", total)
	}
	want := []int{2, 1, 0}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("perm = %v", perm)
		}
	}
}

func TestAssignSingle(t *testing.T) {
	perm, total, err := Assign([][]float64{{7}})
	if err != nil || total != 7 || perm[0] != 0 {
		t.Fatalf("perm=%v total=%v err=%v", perm, total, err)
	}
}

// bruteAssign finds the optimal assignment by enumerating permutations.
func bruteAssign(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			var tot float64
			for i, j := range perm {
				tot += cost[i][j]
			}
			if tot < best {
				best = tot
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

// Property: Assign matches brute force on random small matrices, and the
// returned perm is a valid permutation achieving the returned cost.
func TestAssignMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = float64(rng.Intn(50))
			}
		}
		perm, total, err := Assign(cost)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		var check float64
		for i, j := range perm {
			if j < 0 || j >= n || seen[j] {
				return false
			}
			seen[j] = true
			check += cost[i][j]
		}
		if math.Abs(check-total) > 1e-9 {
			return false
		}
		return math.Abs(total-bruteAssign(cost)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: min-cost flow conservation — at every interior node inflow
// equals outflow.
func TestFlowConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		g, err := NewGraph(n)
		if err != nil {
			return false
		}
		type edge struct{ u, v, id int }
		var edges []edge
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			id, err := g.AddEdge(u, v, int64(1+rng.Intn(4)), float64(rng.Intn(9)))
			if err != nil {
				return false
			}
			edges = append(edges, edge{u, v, id})
		}
		res, err := g.MinCostFlow(0, n-1, math.MaxInt64)
		if err != nil {
			return false
		}
		net := make([]int64, n)
		for _, e := range edges {
			f := res.Flow(e.id)
			if f < 0 {
				return false
			}
			net[e.u] -= f
			net[e.v] += f
		}
		for v := 1; v < n-1; v++ {
			if net[v] != 0 {
				return false
			}
		}
		return net[n-1] == res.Total && net[0] == -res.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
