// Package mcmf implements the assignment (min-cost perfect matching)
// solver SOR's ranking aggregation needs (§IV-B). The paper constructs an
// auxiliary flow graph — source → places → ranks → sink, unit capacities,
// footrule costs on the middle edges — and observes that a min-cost flow
// of value N yields the aggregated ranking; with all-unit capacities the
// LP relaxation is integral.
//
// Successive shortest augmenting paths with potentials solve that flow.
// On this graph every augmenting path enters one new item, alternates
// between ranks and the items holding them, and leaves at a free rank, so
// the solver runs it on the cost matrix itself: the dense
// shortest-augmenting-path form of the Hungarian method (Kuhn–Munkres
// with row and column potentials, as in Jonker–Volgenant). Each
// augmentation is O(n) array scans per step, O(n³) in all, and no graph
// is built.
package mcmf

import "sync"

// solverPool recycles Solvers for the package-level Assign.
var solverPool = sync.Pool{New: func() interface{} { return &Solver{} }}

// Assign solves the n×n assignment problem: cost[i][j] is the cost of
// assigning item i to slot j; the result perm satisfies perm[i] = j with
// every slot used exactly once and total cost minimized. Solves run on a
// pooled Solver, so steady-state callers allocate only the permutation.
func Assign(cost [][]float64) (perm []int, total float64, err error) {
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	return s.Assign(cost)
}

// AssignWarm is Assign with a warm-start hint (see Solver.AssignWarm):
// the hint is used only when a dual certificate proves it optimal for
// cost, otherwise the solve falls back to a cold Assign.
func AssignWarm(cost [][]float64, hint []int) (perm []int, total float64, warm bool, err error) {
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	return s.AssignWarm(cost, hint)
}
