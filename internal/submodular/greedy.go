// Package submodular implements greedy maximization of a monotone
// submodular set function subject to a matroid constraint — the engine
// behind Algorithm 1 in SOR §III. For this class of problems the greedy
// algorithm is a 1/2-approximation (Fisher–Nemhauser–Wolsey; the paper
// cites Gargano & Hammar [10]).
//
// This is the textbook greedy that re-scans all candidates each round (the
// paper's Algorithm 1, O(n²) oracle calls). The scheduler's lazy variant is
// specialised to the coverage objective and lives in internal/schedule,
// which tests it against this one.
package submodular

import (
	"errors"
	"fmt"

	"sor/internal/matroid"
)

// Objective is the oracle for a set function being maximized. The greedy
// algorithms only ever extend the current set by single elements, so the
// oracle is stateful: Gain reports the marginal value of adding e to the
// current set, Add commits it.
type Objective interface {
	// Gain returns f(S ∪ {e}) − f(S) for the current set S.
	Gain(e int) float64
	// Add commits element e to the current set.
	Add(e int)
}

// Result reports the outcome of a greedy run.
type Result struct {
	// Chosen lists the selected elements in selection order.
	Chosen []int
	// Value is the accumulated objective value Σ of realized gains.
	Value float64
	// OracleCalls counts Gain evaluations (for the lazy-greedy ablation).
	OracleCalls int
}

// ErrNilArgs is returned when the objective or matroid is nil.
var ErrNilArgs = errors.New("submodular: nil objective or matroid")

// Greedy runs the paper's Algorithm 1: repeatedly add the feasible element
// with the maximum marginal gain until no feasible element remains or the
// best gain drops below minGain (use 0 to emulate the paper exactly; gains
// of a monotone function are never negative).
func Greedy(obj Objective, m matroid.Matroid, minGain float64) (*Result, error) {
	if obj == nil || m == nil {
		return nil, ErrNilArgs
	}
	n := m.GroundSize()
	taken := make([]bool, n)
	res := &Result{}
	for {
		best, bestGain := -1, minGain
		for e := 0; e < n; e++ {
			if taken[e] || !m.CanAdd(e) {
				continue
			}
			res.OracleCalls++
			if g := obj.Gain(e); g > bestGain {
				best, bestGain = e, g
			}
		}
		if best < 0 {
			return res, nil
		}
		if err := m.Add(best); err != nil {
			return nil, fmt.Errorf("submodular: matroid rejected feasible element %d: %w", best, err)
		}
		obj.Add(best)
		taken[best] = true
		res.Chosen = append(res.Chosen, best)
		res.Value += bestGain
	}
}

// FuncObjective adapts plain functions to the Objective interface; handy in
// tests.
type FuncObjective struct {
	GainFunc func(e int) float64
	AddFunc  func(e int)
}

var _ Objective = (*FuncObjective)(nil)

// Gain implements Objective.
func (f *FuncObjective) Gain(e int) float64 { return f.GainFunc(e) }

// Add implements Objective.
func (f *FuncObjective) Add(e int) { f.AddFunc(e) }
