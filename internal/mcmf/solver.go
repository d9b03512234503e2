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
