package submodular

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sor/internal/coverage"
	"sor/internal/matroid"
)

// setCover is a classic monotone submodular objective: each element covers
// a subset of a universe; f(S) = |union of covered subsets|.
type setCover struct {
	covers  [][]int
	covered map[int]bool
}

func newSetCover(covers [][]int) *setCover {
	return &setCover{covers: covers, covered: make(map[int]bool)}
}

func (s *setCover) Gain(e int) float64 {
	var g float64
	for _, u := range s.covers[e] {
		if !s.covered[u] {
			g++
		}
	}
	return g
}

func (s *setCover) Add(e int) {
	for _, u := range s.covers[e] {
		s.covered[u] = true
	}
}

func (s *setCover) eval(set []int) float64 {
	seen := make(map[int]bool)
	for _, e := range set {
		for _, u := range s.covers[e] {
			seen[u] = true
		}
	}
	return float64(len(seen))
}

func TestGreedyNilArgs(t *testing.T) {
	u, err := matroid.NewUniform(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Greedy(nil, u, 0); err != ErrNilArgs {
		t.Fatalf("nil objective: %v", err)
	}
	if _, err := Greedy(&FuncObjective{}, nil, 0); err != ErrNilArgs {
		t.Fatalf("nil matroid: %v", err)
	}
}

func TestGreedySetCoverPicksObviousBest(t *testing.T) {
	covers := [][]int{
		{1, 2, 3, 4}, // big element
		{1, 2},
		{5},
		{3, 4},
	}
	sc := newSetCover(covers)
	u, err := matroid.NewUniform(len(covers), 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Greedy(sc, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chosen) != 2 {
		t.Fatalf("chose %v", res.Chosen)
	}
	if res.Chosen[0] != 0 {
		t.Fatalf("first pick = %d, want 0", res.Chosen[0])
	}
	if res.Chosen[1] != 2 {
		t.Fatalf("second pick = %d, want 2 (the only element adding new coverage)", res.Chosen[1])
	}
	if res.Value != 5 {
		t.Fatalf("value = %v, want 5", res.Value)
	}
}

func TestGreedyStopsWhenNoPositiveGain(t *testing.T) {
	covers := [][]int{{1}, {1}, {1}}
	sc := newSetCover(covers)
	u, err := matroid.NewUniform(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Greedy(sc, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	// After the first pick the others add nothing; minGain=0 stops them.
	if len(res.Chosen) != 1 {
		t.Fatalf("chose %v, want a single element", res.Chosen)
	}
}

func TestGreedyRespectsPartitionBudgets(t *testing.T) {
	covers := [][]int{{1}, {2}, {3}, {4}, {5}, {6}}
	sc := newSetCover(covers)
	// Elements 0-2 belong to user 0 (budget 1), 3-5 to user 1 (budget 2).
	m, err := matroid.NewPartition([]int{0, 0, 0, 1, 1, 1}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Greedy(sc, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chosen) != 3 {
		t.Fatalf("chose %d elements, want 3", len(res.Chosen))
	}
	var user0 int
	for _, e := range res.Chosen {
		if e < 3 {
			user0++
		}
	}
	if user0 != 1 {
		t.Fatalf("user 0 scheduled %d times, budget 1", user0)
	}
}

// brute-force optimum for tiny instances.
func bruteForceOpt(covers [][]int, part, capacity []int) float64 {
	n := len(covers)
	best := 0.0
	for s := 0; s < 1<<n; s++ {
		used := make([]int, len(capacity))
		feasible := true
		var set []int
		for e := 0; e < n; e++ {
			if s&(1<<e) == 0 {
				continue
			}
			used[part[e]]++
			if used[part[e]] > capacity[part[e]] {
				feasible = false
				break
			}
			set = append(set, e)
		}
		if !feasible {
			continue
		}
		if v := newSetCover(covers).eval(set); v > best {
			best = v
		}
	}
	return best
}

// Property: greedy achieves at least 1/2 of the optimum over a partition
// matroid — the paper's approximation guarantee for Algorithm 1.
func TestGreedyHalfApproximationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9) // <= 10 so brute force is cheap
		universe := 3 + rng.Intn(12)
		covers := make([][]int, n)
		for i := range covers {
			sz := 1 + rng.Intn(4)
			for j := 0; j < sz; j++ {
				covers[i] = append(covers[i], rng.Intn(universe))
			}
		}
		parts := 1 + rng.Intn(3)
		part := make([]int, n)
		for i := range part {
			part[i] = rng.Intn(parts)
		}
		capacity := make([]int, parts)
		for i := range capacity {
			capacity[i] = rng.Intn(3)
		}
		res, err := Greedy(newSetCover(covers), mustPartition(t, part, capacity), 0)
		if err != nil {
			return false
		}
		opt := bruteForceOpt(covers, part, capacity)
		return res.Value >= opt/2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func mustPartition(t *testing.T, part, capacity []int) matroid.Matroid {
	t.Helper()
	m, err := matroid.NewPartition(part, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// coverageObjective adapts the coverage accumulator; this is exactly the
// objective the SOR scheduler maximizes.
type coverageObjective struct{ acc *coverage.Accumulator }

func (c *coverageObjective) Gain(e int) float64 { return c.acc.Gain(e) }
func (c *coverageObjective) Add(e int)          { c.acc.Add(e) }

func TestGreedyOnCoverageSpreadsMeasurements(t *testing.T) {
	start := time.Date(2013, time.November, 17, 11, 0, 0, 0, time.UTC)
	tl, err := coverage.NewTimeline(start, 10*time.Second, 120)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := coverage.NewAccumulator(tl, coverage.GaussianKernel{Sigma: 10})
	if err != nil {
		t.Fatal(err)
	}
	u, err := matroid.NewUniform(tl.N(), 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Greedy(&coverageObjective{acc: acc}, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chosen) != 12 {
		t.Fatalf("chose %d instants", len(res.Chosen))
	}
	// Greedy should spread: no two chosen instants adjacent.
	seen := make(map[int]bool)
	for _, e := range res.Chosen {
		if seen[e-1] || seen[e] || seen[e+1] {
			t.Fatalf("greedy clustered instants: %v", res.Chosen)
		}
		seen[e] = true
	}
	// And beat a clustered baseline schedule of the same size.
	baseline := coverage.Eval(tl, coverage.GaussianKernel{Sigma: 10}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	if res.Value <= baseline {
		t.Fatalf("greedy %v should beat clustered baseline %v", res.Value, baseline)
	}
}

func BenchmarkGreedyCoverage(b *testing.B) {
	start := time.Date(2013, time.November, 17, 11, 0, 0, 0, time.UTC)
	tl, err := coverage.NewTimeline(start, 10*time.Second, 1080)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc, err := coverage.NewAccumulator(tl, coverage.GaussianKernel{Sigma: 10})
		if err != nil {
			b.Fatal(err)
		}
		u, err := matroid.NewUniform(tl.N(), 100)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Greedy(&coverageObjective{acc: acc}, u, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}
