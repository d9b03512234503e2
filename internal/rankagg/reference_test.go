package rankagg

import (
	"errors"
	"fmt"
)

// The functions below are references the tests check the production
// aggregators against: the footrule distance and the weighted objective
// computed from whole rankings, the clean cuts and top k computed
// directly, and local Kemenization as a Kemeny-side baseline.

// Position returns π(item, r): the 0-based position of item.
func (r Ranking) Position(item int) int {
	for p, it := range r {
		if it == item {
			return p
		}
	}
	return -1
}

// Clone copies the ranking.
func (r Ranking) Clone() Ranking {
	cp := make(Ranking, len(r))
	copy(cp, r)
	return cp
}

// FootruleDistance is Spearman's footrule (Eq. 9): Σ_i |π(i,a) − π(i,b)|.
func FootruleDistance(a, b Ranking) (int, error) {
	n := len(a)
	if len(b) != n {
		return 0, errors.New("rankagg: rankings differ in length")
	}
	if err := a.Validate(n); err != nil {
		return 0, err
	}
	if err := b.Validate(n); err != nil {
		return 0, err
	}
	pa, pb := a.Positions(), b.Positions()
	sum := 0
	for i := 0; i < n; i++ {
		d := pa[i] - pb[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum, nil
}

// WeightedFootrule is κ_f(r, Ω) = Σ_j w_j · df(r, R_j)   (Eq. 11).
func (c Collection) WeightedFootrule(r Ranking) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	var total float64
	for j, rj := range c.Rankings {
		d, err := FootruleDistance(r, rj)
		if err != nil {
			return 0, err
		}
		total += c.Weights[j] * float64(d)
	}
	return total, nil
}

// LocalKemenization applies the standard post-processing: repeatedly swap
// adjacent items while the swap lowers the weighted Kemeny distance. The
// result is locally Kemeny-optimal and never worse than the input.
func LocalKemenization(c Collection, r Ranking) (Ranking, float64, error) {
	if err := c.Validate(); err != nil {
		return nil, 0, err
	}
	n := c.N()
	if err := r.Validate(n); err != nil {
		return nil, 0, err
	}
	// before[a][b] = weighted votes for a before b.
	before := make([][]float64, n)
	for i := range before {
		before[i] = make([]float64, n)
	}
	for j, rj := range c.Rankings {
		pos := rj.Positions()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b && pos[a] < pos[b] {
					before[a][b] += c.Weights[j]
				}
			}
		}
	}
	out := r.Clone()
	improved := true
	for improved {
		improved = false
		for p := 0; p+1 < n; p++ {
			a, b := out[p], out[p+1]
			// Swapping helps when more weight prefers b before a.
			if before[b][a] > before[a][b]+1e-12 {
				out[p], out[p+1] = b, a
				improved = true
			}
		}
	}
	cost, err := c.WeightedKemeny(out)
	if err != nil {
		return nil, 0, err
	}
	return out, cost, nil
}

// CleanCuts returns the clean-cut boundaries of the collection in
// increasing order, considering only rankings with positive weight. The
// final boundary n is always a cut. Returns nil when every weight is zero
// (every permutation is optimal, so no decomposition is meaningful).
func CleanCuts(c Collection) []int {
	lb, ok := minPositions(c)
	if !ok {
		return nil
	}
	return cutsFromLB(lb)
}

// FootruleAggregateTopK determines the exact top k ranks of the weighted
// footrule optimum by solving only the prefix blocks up to the smallest
// clean cut ≥ k (see the package comment for why that is sound).
func FootruleAggregateTopK(c Collection, k int) (TopKResult, error) {
	if k < 1 {
		return TopKResult{}, fmt.Errorf("rankagg: top-k needs k ≥ 1, got %d", k)
	}
	out, cost, err := aggregateBlocks(c, k)
	if err != nil {
		return TopKResult{}, err
	}
	solved := len(out)
	for solved > 0 && out[solved-1] < 0 {
		solved--
	}
	return TopKResult{
		Prefix:  out,
		Solved:  solved,
		Cost:    cost,
		Bounded: solved < c.N(),
	}, nil
}
