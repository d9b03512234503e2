// Clean-cut block decomposition of the §IV-B footrule aggregation.
//
// Let pos_j(i) be item i's position in individual ranking R_j and call
// b ∈ (0, n] a *clean cut* when the union of every positive-weight
// ranking's top-b prefix has exactly b members — equivalently, when all
// rankings agree on the same top-b SET S_b (each ranking may order it
// differently). Clean cuts are exactly respected by the optimum:
//
// Theorem. If b is a clean cut and the total weight W = Σ_j w_j > 0, then
// EVERY minimizer of the weighted footrule distance assigns the members
// of S_b to ranks 0..b-1.
//
// Proof sketch (strict exchange). Members of S_b have pos_j < b and
// non-members pos_j ≥ b for every positive-weight j. Suppose an optimal
// assignment places non-member x at rank r < b; then some member y sits
// at rank r' ≥ b. Swapping them changes the cost by
// Σ_j w_j (|p_x−r| + |p_y−r'| − |p_x−r'| − |p_y−r|) with p_x ≥ b > p_y,
// r < b ≤ r'. Case analysis on each j's term gives 2(r'−r), 2(p_x−r),
// 2(r'−p_y) or 2(p_x−p_y) — all strictly positive — so the swap strictly
// lowers the cost, contradicting optimality. ∎
//
// Hence the aggregation decomposes exactly: solve each inter-cut block as
// an independent |block|×|block| assignment (same §IV-B edge costs, ranks
// offset by the block start) and concatenate. A top-k query only needs
// the prefix blocks covering ranks 0..k-1 — the smallest clean cut b ≥ k
// is the provably-sound candidate set ("k + margin", with the margin
// determined by the data). When no cut below n exists the prefix is the
// whole permutation and the solve degrades to the full aggregation.
package rankagg

import (
	"fmt"

	"sor/internal/mcmf"
)

// minPositions computes lb[i] = min over positive-weight rankings of
// pos_j(i). ok is false when no ranking has positive weight.
func minPositions(c Collection) (lb []int, ok bool) {
	n := c.N()
	lb = make([]int, n)
	for i := range lb {
		lb[i] = n
	}
	for j, rj := range c.Rankings {
		if c.Weights[j] <= 0 {
			continue
		}
		ok = true
		for p, item := range rj {
			if p < lb[item] {
				lb[item] = p
			}
		}
	}
	return lb, ok
}

// cutsFromLB histograms the per-item minimum positions and returns every
// boundary b with |{i : lb[i] < b}| == b.
func cutsFromLB(lb []int) []int {
	n := len(lb)
	cnt := make([]int, n+1)
	for _, p := range lb {
		if p < n {
			cnt[p]++
		}
	}
	cuts := make([]int, 0, 8)
	running := 0
	for b := 1; b <= n; b++ {
		running += cnt[b-1]
		if running == b {
			cuts = append(cuts, b)
		}
	}
	return cuts
}

// blockScratch recycles the per-block cost-matrix storage across the
// blocks of one aggregation.
type blockScratch struct {
	costBack []float64   // backing array for the block cost matrix
	costRows [][]float64 // row headers into costBack
}

// solve assigns items (in the order given) onto global ranks
// r0..r0+len(items)-1 exactly, writing the block's slice of out. cost is
// the §IV-B edge cost of an item at a global rank.
func (sc *blockScratch) solve(cost func(item, r int) float64, items []int, r0 int, out Ranking) (float64, error) {
	b := len(items)
	if b == 1 {
		out[r0] = items[0]
		return cost(items[0], r0), nil
	}
	if cap(sc.costBack) < b*b {
		sc.costBack = make([]float64, b*b)
		sc.costRows = make([][]float64, 0, b)
	}
	rows := sc.costRows[:0]
	back := sc.costBack[:b*b]
	for x, it := range items {
		row := back[x*b : (x+1)*b : (x+1)*b]
		for r := 0; r < b; r++ {
			row[r] = cost(it, r0+r)
		}
		rows = append(rows, row)
	}
	sc.costRows = rows
	perm, total, err := mcmf.Assign(rows)
	if err != nil {
		return 0, fmt.Errorf("rankagg: block matching at rank %d failed: %w", r0, err)
	}
	for x, r := range perm {
		out[r0+r] = items[x]
	}
	return total, nil
}

// blockSolver carries the per-aggregation state of the materialized
// entry points: individual positions, weights, and the block scratch.
type blockSolver struct {
	blockScratch
	positions [][]int
	weights   []float64
}

func newBlockSolver(c Collection) *blockSolver {
	bs := &blockSolver{weights: c.Weights}
	bs.positions = make([][]int, len(c.Rankings))
	for j, rj := range c.Rankings {
		bs.positions[j] = rj.Positions()
	}
	return bs
}

// cost is the §IV-B edge cost of item i at global rank r.
func (bs *blockSolver) cost(i, r int) float64 {
	var sum float64
	for j, pos := range bs.positions {
		d := pos[i] - r
		if d < 0 {
			d = -d
		}
		sum += bs.weights[j] * float64(d)
	}
	return sum
}

// blockItems buckets items by block. blocks[bi] lists the items of the
// bi-th block in increasing item order; cuts[bi] is that block's end
// boundary.
func blockItems(lb []int, cuts []int) [][]int {
	blocks := make([][]int, len(cuts))
	start := 0
	for bi, end := range cuts {
		blocks[bi] = make([]int, 0, end-start)
		start = end
	}
	for i, p := range lb {
		// Find the block whose [start, end) contains p: cuts is sorted,
		// and p belongs to the first block with end > p.
		bi := firstGreater(cuts, p)
		blocks[bi] = append(blocks[bi], i)
	}
	return blocks
}

// firstGreater returns the index of the first element of sorted s that is
// strictly greater than v.
func firstGreater(s []int, v int) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] > v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// FootruleAggregateBlocks computes the same exact weighted-footrule
// optimum as FootruleAggregate but decomposes the assignment at every
// clean cut, solving each block independently. Worst case (no cuts below
// n) it is one full n×n solve; with correlated individual rankings the
// blocks stay small and the solve cost collapses. The returned ranking is
// a footrule optimum; when the optimum is not unique the block-local
// choice may differ from FootruleAggregate's global-solve choice.
func FootruleAggregateBlocks(c Collection) (Ranking, float64, error) {
	return aggregateBlocks(c, c.N())
}

// TopKResult is the outcome of a bounded-prefix aggregation.
type TopKResult struct {
	// Prefix holds the optimum's first Solved ranks (block-aligned:
	// Solved is the smallest clean cut ≥ the requested k, so
	// len ≥ min(k, n)). Entries past Solved are unset.
	Prefix Ranking
	// Solved is how many leading ranks were exactly determined.
	Solved int
	// Cost is the footrule cost of the solved blocks.
	Cost float64
	// Bounded reports whether the solve stopped before rank n — i.e.
	// whether a clean cut actually bounded the work.
	Bounded bool
}

// aggregateBlocks is the shared engine: solve blocks in rank order until
// at least k ranks are determined. Unsolved trailing ranks are left as -1.
func aggregateBlocks(c Collection, k int) (Ranking, float64, error) {
	if err := c.Validate(); err != nil {
		return nil, 0, err
	}
	n := c.N()
	if k > n {
		k = n
	}
	out := make(Ranking, n)
	lb, ok := minPositions(c)
	if !ok {
		// All weights zero: every permutation is optimal; return the
		// identity for determinism (matching the ranker's convention).
		for i := range out {
			out[i] = i
		}
		return out, 0, nil
	}
	for i := range out {
		out[i] = -1
	}
	cuts := cutsFromLB(lb)
	blocks := blockItems(lb, cuts)
	bs := newBlockSolver(c)
	var total float64
	start := 0
	for bi, end := range cuts {
		if start >= k {
			break
		}
		cost, err := bs.solve(bs.cost, blocks[bi], start, out)
		if err != nil {
			return nil, 0, err
		}
		total += cost
		start = end
	}
	return out, total, nil
}
