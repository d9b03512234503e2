package mcmf

import (
	"errors"
	"fmt"
	"math"
)

// Solver runs assignment solves over reusable buffers: the row and column
// potentials and the per-augmentation arrays survive across Assign calls,
// so a steady-state caller (the rank-serving hot path aggregates one
// matching per cache-miss query) allocates only the returned permutation.
// Every buffer has n+1 entries, so a Solver retains O(n) memory for the
// largest n it has solved. A Solver is not safe for concurrent use; the
// package-level Assign hands out Solvers from a sync.Pool.
//
// Index 0 of every buffer is the Hungarian method's virtual column, and
// rows are numbered 1..n; a recycled Solver clears what it reads, so
// results are identical to a fresh Solver's.
type Solver struct {
	u, v  []float64 // row and column potentials: u[i]+v[j] ≤ cost[i-1][j-1]
	minv  []float64 // minv[j]: reduced length of the shortest path to column j
	match []int     // match[j]: row holding column j, 0 if free
	way   []int     // way[j]: previous column on the shortest path to j
	used  []bool    // used[j]: column j is in the shortest-path tree
}

// NewSolver returns an empty Solver. The zero value is also ready to use.
func NewSolver() *Solver { return &Solver{} }

// grow resizes a slice to n elements, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// validate checks cost is a non-empty n×n matrix of finite entries whose
// spread (max − min) times n+1 is finite. Row potentials stay within
// [min, max], column potentials within one spread below zero, and the
// reduced costs of placed items within two spreads, so under the bound
// every potential and every selected reduced cost is finite.
func validate(cost [][]float64) error {
	n := len(cost)
	if n == 0 {
		return errors.New("mcmf: empty cost matrix")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, row := range cost {
		if len(row) != n {
			return fmt.Errorf("mcmf: cost matrix row %d has %d entries, want %d", i, len(row), n)
		}
		for j, c := range row {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("mcmf: invalid cost[%d][%d] = %v", i, j, c)
			}
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
	}
	if math.IsInf(float64(n+1)*(hi-lo), 0) {
		return fmt.Errorf("mcmf: cost spread [%v, %v] overflows over %d items", lo, hi, n)
	}
	return nil
}

// Assign solves the n×n assignment problem exactly as the package-level
// Assign does, reusing the Solver's buffers. Items enter in order; each
// one grows a shortest-path tree over the columns by Dijkstra on reduced
// costs (an O(n) scan per step) until it reaches a free column, then
// augments along it. Among equal reduced costs the lowest column wins.
// total is Σ cost[i][perm[i]] summed in item order.
func (s *Solver) Assign(cost [][]float64) (perm []int, total float64, err error) {
	if err := validate(cost); err != nil {
		return nil, 0, err
	}
	n := len(cost)
	s.u, s.v, s.minv = grow(s.u, n+1), grow(s.v, n+1), grow(s.minv, n+1)
	s.match, s.way, s.used = grow(s.match, n+1), grow(s.way, n+1), grow(s.used, n+1)
	u, v, minv, match, way, used := s.u, s.v, s.minv, s.match, s.way, s.used
	for j := range u {
		u[j], v[j], match[j] = 0, 0, 0
	}
	inf := math.Inf(1)
	for i := 1; i <= n; i++ {
		match[0] = i
		j0 := 0
		for j := range minv {
			minv[j], used[j] = inf, false
		}
		for {
			used[j0] = true
			i0 := match[j0]
			row, ui := cost[i0-1], u[i0]
			delta, j1 := inf, 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				if cur := row[j-1] - ui - v[j]; cur < minv[j] {
					minv[j], way[j] = cur, j0
				}
				if minv[j] < delta {
					delta, j1 = minv[j], j
				}
			}
			if j1 == 0 {
				return nil, 0, fmt.Errorf("mcmf: item %d reached no free slot", i-1)
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[match[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if match[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			match[j0] = match[j1]
			j0 = j1
		}
	}
	perm = make([]int, n)
	for j := 1; j <= n; j++ {
		perm[match[j]-1] = j - 1
	}
	for i, j := range perm {
		total += cost[i][j]
	}
	if math.IsInf(total, 0) {
		return nil, 0, fmt.Errorf("mcmf: assignment total overflows over %d items", n)
	}
	return perm, total, nil
}

// AssignWarm solves the same problem as Assign but first tries to reuse a
// hint permutation — typically the previous epoch's optimal assignment for
// the same profile and candidate block. The hint is accepted only when an
// O(n²) dual-feasibility certificate proves it is optimal for THIS cost
// matrix: with column potentials v[j] = min_i cost[i][j] and row
// potentials u[i] = cost[i][hint[i]] − v[hint[i]], the pair (u, v) is a
// feasible assignment-LP dual iff u[i] + v[j] ≤ cost[i][j] everywhere,
// and then Σu + Σv equals the hint's cost, which by weak duality makes
// the hint optimal. The comparison is exact (no epsilon), so a certified
// warm start returns a result any cold solve could also have returned;
// anything uncertifiable falls back to a cold Assign. warm reports
// whether the hint was used.
func (s *Solver) AssignWarm(cost [][]float64, hint []int) (perm []int, total float64, warm bool, err error) {
	n := len(cost)
	if n > 0 && len(hint) == n && s.certifyHint(cost, hint) {
		perm = make([]int, n)
		copy(perm, hint)
		for i, j := range hint {
			total += cost[i][j]
		}
		if !math.IsInf(total, 0) {
			return perm, total, true, nil
		}
	}
	perm, total, err = s.Assign(cost)
	return perm, total, false, err
}

// certifyHint reports whether hint is a permutation provably optimal for
// cost, via the dual certificate described on AssignWarm.
func (s *Solver) certifyHint(cost [][]float64, hint []int) bool {
	n := len(cost)
	s.u, s.v, s.used = grow(s.u, n+1), grow(s.v, n+1), grow(s.used, n+1)
	u, v, seen := s.u, s.v, s.used
	for j := 0; j < n; j++ {
		seen[j] = false
	}
	for i, row := range cost {
		if len(row) != n {
			return false
		}
		j := hint[i]
		if j < 0 || j >= n || seen[j] {
			return false
		}
		seen[j] = true
		for _, c := range row {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return false
			}
		}
	}
	for j := 0; j < n; j++ {
		v[j] = cost[0][j]
		for i := 1; i < n; i++ {
			if c := cost[i][j]; c < v[j] {
				v[j] = c
			}
		}
	}
	for i, row := range cost {
		u[i] = row[hint[i]] - v[hint[i]]
		for j, c := range row {
			if u[i]+v[j] > c {
				return false
			}
		}
	}
	return true
}
