package mcmf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// legacyAssign solves the assignment on the paper's §IV-B auxiliary flow
// graph (source → items → slots → sink, unit capacities) with the general
// min-cost-flow oracle, returning its perm and its flow cost.
func legacyAssign(tb testing.TB, cost [][]float64) ([]int, float64) {
	tb.Helper()
	n := len(cost)
	g, err := NewGraph(2*n + 2)
	if err != nil {
		tb.Fatal(err)
	}
	src, sink := 0, 2*n+1
	for i := 0; i < n; i++ {
		if _, err := g.AddEdge(src, 1+i, 1, 0); err != nil {
			tb.Fatal(err)
		}
		if _, err := g.AddEdge(n+1+i, sink, 1, 0); err != nil {
			tb.Fatal(err)
		}
	}
	arcID := make([][]int, n)
	for i := 0; i < n; i++ {
		arcID[i] = make([]int, n)
		for j := 0; j < n; j++ {
			id, err := g.AddEdge(1+i, n+1+j, 1, cost[i][j])
			if err != nil {
				tb.Fatal(err)
			}
			arcID[i][j] = id
		}
	}
	res, err := g.MinCostFlow(src, sink, int64(n))
	if err != nil {
		tb.Fatal(err)
	}
	if res.Total != int64(n) {
		tb.Fatalf("oracle flow %d < %d", res.Total, n)
	}
	perm := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if res.Flow(arcID[i][j]) > 0 {
				perm[i] = j
			}
		}
	}
	return perm, res.Cost
}

// footruleCost builds a §IV-B block: m random rankings of n items with
// integer weights 1–5, cost[i][r] = Σ_k w_k·|pos_k(i) − r|.
func footruleCost(rng *rand.Rand, n, m int) [][]float64 {
	pos := make([][]int, m)
	w := make([]float64, m)
	for k := range pos {
		pos[k] = rng.Perm(n)
		w[k] = float64(1 + rng.Intn(5))
	}
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for r := range cost[i] {
			for k := range pos {
				d := pos[k][i] - r
				if d < 0 {
					d = -d
				}
				cost[i][r] += w[k] * float64(d)
			}
		}
	}
	return cost
}

// checkPerm fails unless perm is a permutation of 0..n-1 whose item-order
// cost sum has exactly the bits of total.
func checkPerm(tb testing.TB, cost [][]float64, perm []int, total float64) {
	tb.Helper()
	n := len(cost)
	if len(perm) != n {
		tb.Fatalf("perm length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	var sum float64
	for i, j := range perm {
		if j < 0 || j >= n || seen[j] {
			tb.Fatalf("perm %v is not a permutation", perm)
		}
		seen[j] = true
		sum += cost[i][j]
	}
	if math.Float64bits(sum) != math.Float64bits(total) {
		tb.Fatalf("total %v, but the perm's item-order sum is %v", total, sum)
	}
}

// TestSolverRecycledMatchesFresh reuses one Solver across many solves of
// varying sizes and checks every solve equals a fresh Solver's, perm and
// total bits — buffer recycling must never leak state between solves.
func TestSolverRecycledMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSolver()
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(12)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				// Small integer costs force plenty of ties, the regime
				// where leftover state could steer the choice.
				cost[i][j] = float64(rng.Intn(4))
			}
		}
		wantPerm, wantCost, err := NewSolver().Assign(cost)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		gotPerm, gotCost, err := s.Assign(cost)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Float64bits(gotCost) != math.Float64bits(wantCost) {
			t.Fatalf("trial %d (n=%d): cost %v, want %v", trial, n, gotCost, wantCost)
		}
		for i := range wantPerm {
			if gotPerm[i] != wantPerm[i] {
				t.Fatalf("trial %d (n=%d): perm %v, want %v", trial, n, gotPerm, wantPerm)
			}
		}
	}
}

// TestAssignMatchesFlowGraphCost is the differential check against the
// paper's flow graph: on integer and footrule-shaped costs (exact float
// arithmetic) the optimum equals the oracle's bit for bit; on random float
// costs the two agree within 1e-9 relative. Tied optima may pick different
// permutations, so only the totals are compared.
func TestAssignMatchesFlowGraphCost(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	sizes := []int{1, 2, 3, 4, 5, 6, 8, 13, 21, 34, 64, 86, 120, 182, 200}
	if testing.Short() {
		sizes = sizes[:11]
	}
	for _, n := range sizes {
		for _, shape := range []string{"integer", "footrule", "float"} {
			var cost [][]float64
			switch shape {
			case "integer":
				cost = make([][]float64, n)
				for i := range cost {
					cost[i] = make([]float64, n)
					for j := range cost[i] {
						cost[i][j] = float64(rng.Intn(2*n+1) - n)
					}
				}
			case "footrule":
				cost = footruleCost(rng, n, 1+rng.Intn(6))
			case "float":
				cost = make([][]float64, n)
				for i := range cost {
					cost[i] = make([]float64, n)
					for j := range cost[i] {
						cost[i][j] = rng.NormFloat64() * 100
					}
				}
			}
			perm, total, err := Assign(cost)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, shape, err)
			}
			checkPerm(t, cost, perm, total)
			_, want := legacyAssign(t, cost)
			if shape == "float" {
				if math.Abs(total-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Fatalf("n=%d %s: total %v, oracle %v", n, shape, total, want)
				}
			} else if total != want {
				t.Fatalf("n=%d %s: total %v, oracle %v", n, shape, total, want)
			}
		}
	}
}

// TestAssignSpreadOverflow: matrices whose finite entries span more than
// the float range can carry are refused with an error, never solved into
// a non-finite total or a scan that picks no column; a narrow band of
// huge entries still solves to a finite optimum.
func TestAssignSpreadOverflow(t *testing.T) {
	for _, cost := range [][][]float64{
		{{1.16e308, -7.9e307}, {7.95e307, -1.39e308}},
		{{8e307, -8e307}, {-8e307, 8e307}},
		{{math.MaxFloat64, -math.MaxFloat64}, {0, 0}},
		{{math.MaxFloat64, math.MaxFloat64}, {math.MaxFloat64, math.MaxFloat64}},
	} {
		if perm, total, err := Assign(cost); err == nil {
			t.Fatalf("%v: perm %v total %v, want an error", cost, perm, total)
		}
	}
	cost := [][]float64{{8e307, 7e307}, {7.5e307, 8e307}}
	perm, total, err := Assign(cost)
	if err != nil {
		t.Fatal(err)
	}
	checkPerm(t, cost, perm, total)
	if total != 7e307+7.5e307 {
		t.Fatalf("total %v, want %v", total, 7e307+7.5e307)
	}
}

// FuzzAssign checks Assign against brute force on n ≤ 6 matrices of
// scaled small integers: negative, huge (scale up to the float limit),
// all-equal (one data byte) and heavily tied. Every input either solves
// to an optimal permutation with a finite total or returns an error, and
// non-finite entries always error; moderate magnitudes must solve.
func FuzzAssign(f *testing.F) {
	f.Add(uint8(3), 1.0, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(5), -3.5, []byte{0x80, 0x7f, 0, 1, 0xff})
	f.Add(uint8(1), 1e308, []byte{0x7f, 0x80, 0x40, 0xc0})
	f.Add(uint8(2), math.MaxFloat64, []byte{0x7f, 0x81, 0x7e, 0x80})
	f.Add(uint8(4), 8e307, []byte{0x40})
	f.Add(uint8(0), 0.0, []byte{})
	f.Fuzz(func(t *testing.T, nb uint8, scale float64, data []byte) {
		n := 1 + int(nb)%6
		cost := make([][]float64, n)
		finite, maxAbs := true, 0.0
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				var b int8
				if len(data) > 0 {
					b = int8(data[(i*n+j)%len(data)])
				}
				c := scale * (float64(b) / 128)
				cost[i][j] = c
				finite = finite && !math.IsNaN(c) && !math.IsInf(c, 0)
				maxAbs = math.Max(maxAbs, math.Abs(c))
			}
		}
		perm, total, err := Assign(cost)
		if !finite {
			if err == nil {
				t.Fatalf("non-finite cost %v solved to %v", cost, total)
			}
			return
		}
		if err != nil {
			if maxAbs <= 1e300 {
				t.Fatalf("moderate cost %v: %v", cost, err)
			}
			return
		}
		if math.IsInf(total, 0) || math.IsNaN(total) {
			t.Fatalf("cost %v: non-finite total %v", cost, total)
		}
		checkPerm(t, cost, perm, total)
		best := bruteAssign(cost)
		if math.Abs(total-best) > 1e-9*maxAbs*float64(n) {
			t.Fatalf("cost %v: total %v, brute force %v", cost, total, best)
		}
	})
}

// TestPooledAssignMatchesSolver checks the package-level Assign (pool path)
// agrees with a private Solver.
func TestPooledAssignMatchesSolver(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	s := NewSolver()
	wantPerm, wantCost, err := s.Assign(cost)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		perm, total, err := Assign(cost)
		if err != nil {
			t.Fatal(err)
		}
		if total != wantCost {
			t.Fatalf("pooled cost %v, want %v", total, wantCost)
		}
		for i := range wantPerm {
			if perm[i] != wantPerm[i] {
				t.Fatalf("pooled perm %v, want %v", perm, wantPerm)
			}
		}
	}
}

// TestSolverSteadyStateAllocs pins the point of the Solver: after warm-up,
// a same-size solve allocates only the returned permutation, not its
// scratch buffers.
func TestSolverSteadyStateAllocs(t *testing.T) {
	n := 16
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = float64((i*7 + j*3) % 11)
		}
	}
	s := NewSolver()
	if _, _, err := s.Assign(cost); err != nil { // warm-up sizes the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := s.Assign(cost); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("steady-state Assign made %.0f allocations, want only the perm", allocs)
	}
}

// TestSolverScratchIsLinear: after a 1 000 × 1 000 solve a Solver retains
// O(n) scratch — at most 16·(n+1) elements over all its slices — not the
// 2(n² + 2n)-arc flow graph a general min-cost-flow solver would keep.
func TestSolverScratchIsLinear(t *testing.T) {
	const n = 1000
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = float64((i*7 + j*13) % 101)
		}
	}
	s := NewSolver()
	perm, total, err := s.Assign(cost)
	if err != nil {
		t.Fatal(err)
	}
	checkPerm(t, cost, perm, total)
	kept := cap(s.u) + cap(s.v) + cap(s.minv) + cap(s.match) + cap(s.way) + cap(s.used)
	if kept > 16*(n+1) {
		t.Fatalf("Solver keeps %d elements after n=%d, want ≤ %d", kept, n, 16*(n+1))
	}
}

// TestAssignWarmCertificate checks the warm-start contract: a hint is used
// only when the dual certificate proves it optimal for the given costs, an
// accepted hint's total equals the cold optimum, and a stale or invalid
// hint silently degrades to a cold solve with the same result.
func TestAssignWarmCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s := NewSolver()
	warmHits := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(7)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				// Small integers: exact float arithmetic, heavy ties.
				cost[i][j] = float64(rng.Intn(6))
			}
		}
		coldPerm, coldTotal, err := NewSolver().Assign(cost)
		if err != nil {
			t.Fatal(err)
		}
		var hint []int
		switch trial % 3 {
		case 0: // the true optimum — certificate may or may not fire
			hint = append([]int(nil), coldPerm...)
		case 1: // identity, usually stale
			hint = make([]int, n)
			for i := range hint {
				hint[i] = i
			}
		case 2: // not a permutation
			hint = make([]int, n)
		}
		perm, total, warm, err := s.AssignWarm(cost, hint)
		if err != nil {
			t.Fatal(err)
		}
		if total != coldTotal {
			t.Fatalf("trial %d: warm total %v != cold optimum %v (warm=%v)", trial, total, coldTotal, warm)
		}
		if warm {
			warmHits++
			for i := range perm {
				if perm[i] != hint[i] {
					t.Fatalf("trial %d: warm accepted but perm differs from hint", trial)
				}
			}
		}
		if len(perm) != n {
			t.Fatalf("trial %d: perm length %d want %d", trial, len(perm), n)
		}
	}
	if warmHits == 0 {
		t.Fatal("certificate never accepted any hint — warm path untested")
	}
}

// TestAssignWarmIdenticalCosts pins the headline warm-start case: re-solving
// an unchanged cost matrix with the previous optimum as hint must certify
// and skip the solve.
func TestAssignWarmIdenticalCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewSolver()
	accepted := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(6)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = float64(rng.Intn(40))
			}
		}
		perm, total, err := s.Assign(cost)
		if err != nil {
			t.Fatal(err)
		}
		perm2, total2, warm, err := s.AssignWarm(cost, perm)
		if err != nil {
			t.Fatal(err)
		}
		if total2 != total {
			t.Fatalf("trial %d: rewarm total %v != %v", trial, total2, total)
		}
		if warm {
			accepted++
			for i := range perm {
				if perm2[i] != perm[i] {
					t.Fatalf("trial %d: warm perm differs", trial)
				}
			}
		}
	}
	if accepted < trials/4 {
		t.Fatalf("certificate accepted only %d/%d unchanged optima — too weak to matter", accepted, trials)
	}
}

// benchSizes are the median, p99 and largest clean-cut block sizes the
// rank workload's cold solves hit.
var benchSizes = []int{13, 86, 182}

func benchBlocks(b *testing.B, solve func(cost [][]float64)) {
	for _, n := range benchSizes {
		cost := footruleCost(rand.New(rand.NewSource(int64(n))), n, 4)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solve(cost)
			}
		})
	}
}

// BenchmarkAssign times the pooled dense solver on footrule blocks.
func BenchmarkAssign(b *testing.B) {
	benchBlocks(b, func(cost [][]float64) {
		if _, _, err := Assign(cost); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkAssignFlowGraph times the §IV-B flow-graph oracle on the same
// blocks, building the graph per solve as its callers did.
func BenchmarkAssignFlowGraph(b *testing.B) {
	benchBlocks(b, func(cost [][]float64) { legacyAssign(b, cost) })
}
