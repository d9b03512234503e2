// Package rankagg implements the rank-aggregation machinery of SOR §IV-B:
// the Kemeny distance (Definition 2), Spearman's footrule (Eq. 9) with the
// dK ≤ df ≤ 2·dK sandwich (Eq. 10), their weighted collection variants
// (Eq. 7 and 11), and three aggregators —
//
//   - FootruleAggregate: the paper's algorithm; minimizes the weighted
//     f-ranking distance exactly via min-cost perfect matching on the
//     auxiliary flow graph, giving a 2-approximation of the NP-hard
//     weighted-Kemeny optimum;
//   - ExactKemeny: Held–Karp dynamic program, exponential but exact, used
//     to validate the approximation on small instances;
//   - BordaAggregate: the classic positional baseline, used by ablations.
package rankagg

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sor/internal/mcmf"
)

// Ranking is a permutation of N items: Ranking[pos] = item index at that
// position (position 0 = best). The paper's index function π(i, R) is
// Position.
type Ranking []int

// Validate reports whether r is a permutation of 0..n-1.
func (r Ranking) Validate(n int) error {
	if len(r) != n {
		return fmt.Errorf("rankagg: ranking has %d entries, want %d", len(r), n)
	}
	seen := make([]bool, n)
	for pos, item := range r {
		if item < 0 || item >= n {
			return fmt.Errorf("rankagg: item %d at position %d out of range", item, pos)
		}
		if seen[item] {
			return fmt.Errorf("rankagg: item %d appears twice", item)
		}
		seen[item] = true
	}
	return nil
}

// Positions returns the inverse permutation: pos[item] = its position.
func (r Ranking) Positions() []int {
	pos := make([]int, len(r))
	for p, item := range r {
		pos[item] = p
	}
	return pos
}

// KemenyDistance counts pairwise order violations between two rankings of
// the same item set (Definition 2). Each unordered pair ranked oppositely
// contributes 1.
func KemenyDistance(a, b Ranking) (int, error) {
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
	count := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if (pa[i]-pa[j])*(pb[i]-pb[j]) < 0 {
				count++
			}
		}
	}
	return count, nil
}

// Collection is the paper's Ω: individual per-feature rankings with the
// user's weights.
type Collection struct {
	Rankings []Ranking
	Weights  []float64
}

// Validate checks shape, permutation validity, and weight sanity.
func (c Collection) Validate() error {
	if len(c.Rankings) == 0 {
		return errors.New("rankagg: empty collection")
	}
	if len(c.Weights) != len(c.Rankings) {
		return fmt.Errorf("rankagg: %d weights for %d rankings",
			len(c.Weights), len(c.Rankings))
	}
	n := len(c.Rankings[0])
	for j, r := range c.Rankings {
		if err := r.Validate(n); err != nil {
			return fmt.Errorf("rankagg: ranking %d: %w", j, err)
		}
	}
	for j, w := range c.Weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("rankagg: invalid weight %v at %d", w, j)
		}
	}
	return nil
}

// N returns the number of items being ranked.
func (c Collection) N() int {
	if len(c.Rankings) == 0 {
		return 0
	}
	return len(c.Rankings[0])
}

// WeightedKemeny is κ_K(r, Ω) = Σ_j w_j · dK(r, R_j)   (Eq. 7).
func (c Collection) WeightedKemeny(r Ranking) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	var total float64
	for j, rj := range c.Rankings {
		d, err := KemenyDistance(r, rj)
		if err != nil {
			return 0, err
		}
		total += c.Weights[j] * float64(d)
	}
	return total, nil
}

// FootruleAggregate finds the ranking minimizing the weighted f-ranking
// distance (Eq. 12) exactly, via the §IV-B auxiliary flow graph: item i →
// rank r edge of cost Σ_j w_j |π(i,R_j) − r|, unit capacities, min-cost
// perfect matching. The result is a ½·… — strictly, a 2-approximation of
// the weighted Kemeny optimum by Eq. 10.
func FootruleAggregate(c Collection) (Ranking, float64, error) {
	if err := c.Validate(); err != nil {
		return nil, 0, err
	}
	n := c.N()
	cost := make([][]float64, n)
	positions := make([][]int, len(c.Rankings))
	for j, rj := range c.Rankings {
		positions[j] = rj.Positions()
	}
	for i := 0; i < n; i++ {
		cost[i] = make([]float64, n)
		for r := 0; r < n; r++ {
			var sum float64
			for j := range c.Rankings {
				d := positions[j][i] - r
				if d < 0 {
					d = -d
				}
				sum += c.Weights[j] * float64(d)
			}
			cost[i][r] = sum
		}
	}
	perm, total, err := mcmf.Assign(cost)
	if err != nil {
		return nil, 0, fmt.Errorf("rankagg: footrule matching failed: %w", err)
	}
	out := make(Ranking, n)
	for item, rank := range perm {
		out[rank] = item
	}
	return out, total, nil
}

// ExactKemeny finds the ranking minimizing the weighted Kemeny distance by
// a Held–Karp subset DP (O(2^n·n²·m) pair precompute). It refuses n > 16.
func ExactKemeny(c Collection) (Ranking, float64, error) {
	if err := c.Validate(); err != nil {
		return nil, 0, err
	}
	n := c.N()
	if n > 16 {
		return nil, 0, fmt.Errorf("rankagg: exact Kemeny limited to 16 items, got %d", n)
	}
	// pairCost[i][j] = weighted cost of placing i before j.
	pairCost := make([][]float64, n)
	for i := range pairCost {
		pairCost[i] = make([]float64, n)
	}
	for j, rj := range c.Rankings {
		pos := rj.Positions()
		w := c.Weights[j]
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				// Placing a before b violates rj when rj puts b before a.
				if pos[b] < pos[a] {
					pairCost[a][b] += w
				}
			}
		}
	}
	size := 1 << n
	dp := make([]float64, size)
	choice := make([]int8, size)
	for s := 1; s < size; s++ {
		dp[s] = math.Inf(1)
		choice[s] = -1
	}
	// dp[S] = min cost of ordering the items in S as a prefix; adding item
	// x to prefix S costs Σ_{y∉S∪{x}} pairCost[x][y].
	for s := 0; s < size; s++ {
		if math.IsInf(dp[s], 1) {
			continue
		}
		for x := 0; x < n; x++ {
			bit := 1 << x
			if s&bit != 0 {
				continue
			}
			var add float64
			rest := ^(s | bit)
			for y := 0; y < n; y++ {
				if rest&(1<<y) != 0 && y < n {
					add += pairCost[x][y]
				}
			}
			ns := s | bit
			if nd := dp[s] + add; nd < dp[ns]-1e-15 {
				dp[ns] = nd
				choice[ns] = int8(x)
			}
		}
	}
	out := make(Ranking, 0, n)
	s := size - 1
	for s != 0 {
		x := int(choice[s])
		if x < 0 {
			return nil, 0, errors.New("rankagg: exact Kemeny reconstruction failed")
		}
		out = append(out, x)
		s &^= 1 << x
	}
	// Reconstruction walked from the full set backwards: reverse to get
	// best-first order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out, dp[size-1], nil
}

// BordaAggregate ranks items by weighted mean position across the
// collection (ascending), breaking ties by item index. A fast baseline.
func BordaAggregate(c Collection) (Ranking, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := c.N()
	score := make([]float64, n)
	for j, rj := range c.Rankings {
		pos := rj.Positions()
		for i := 0; i < n; i++ {
			score[i] += c.Weights[j] * float64(pos[i])
		}
	}
	out := make(Ranking, n)
	for i := range out {
		out[i] = i
	}
	sort.SliceStable(out, func(a, b int) bool {
		if score[out[a]] != score[out[b]] {
			return score[out[a]] < score[out[b]]
		}
		return out[a] < out[b]
	})
	return out, nil
}
