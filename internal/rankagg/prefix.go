// Lazy prefix aggregation: the bounded top-k solve driven by ranking
// iterators instead of materialized permutations.
//
// FootruleAggregateTopK still walks every individual ranking end to end —
// computing lb[], enumerating every clean cut, and bucketing all n items —
// even when the covering cut is at rank 12. At 10k places that fixed
// O(n·m) pass dominates the bounded query. AggregatePrefix removes it:
// the caller hands one iterator per positive-weight ranking, each yielding
// items best-first, and the walk advances all iterators in lockstep one
// rank at a time. After step b (0-based) every iterator has revealed its
// top-(b+1) prefix; the boundary b+1 is a clean cut exactly when the
// number of distinct items seen so far equals b+1 (the same condition
// cutsFromLB tests, restricted to the prefix — sound because lb[i] ≤ b
// iff item i appears in some revealed prefix). The walk stops at the
// first cut ≥ k, so the work is O(cut·m) plus the block solves — at a
// clean cut every ranking's revealed prefix holds exactly the cut's item
// set, so all positions the block costs need are already known.
//
// When no cut below n exists the walk reaches b = n−1 where the union is
// necessarily n: the degenerate case needs no separate path, it simply
// pays the full solve it provably requires.
package rankagg

import (
	"fmt"
	"sort"
)

// PrefixIter yields the items of one individual ranking in rank order,
// best first. It must be able to produce at least n items; Next is called
// at most n times.
type PrefixIter interface {
	Next() int
}

// PrefixScratch recycles the walk state across bounded queries. The zero
// value is ready to use; it is not safe for concurrent use.
type PrefixScratch struct {
	lb        []int32 // lb[item] = step the item was first revealed, -1 unseen
	slot      []int32 // slot[item] = discovery index, valid only for seen items
	seen      []int32 // items in discovery order
	stepItems []int32 // step-major walk log: stepItems[b*m+j] = item
	posBySlot []int32 // transposed: posBySlot[j*cutEnd+slot] = rank in ranking j
	cuts      []int
	offs      []int // block start offsets into blockPool
	blockPool []int // block item storage, ascending within each block
	out       Ranking
	blockScratch
}

// AggregatePrefix computes the same exact top-k prefix as
// FootruleAggregateTopK over the positive-weight rankings exposed by
// iters, without materializing full rankings. weights[j] > 0 is required
// (zero-weight rankings contribute +0.0 to every edge cost and never
// affect cuts, so dropping them is bit-identical — callers filter them
// out). n is the number of items; every iterator must yield a permutation
// of 0..n-1. sc may be nil, or reused across calls for an allocation-free
// steady state — when it is reused, the returned Prefix aliases scratch
// storage and is only valid until the next call; callers that retain
// results must copy.
func AggregatePrefix(iters []PrefixIter, weights []float64, n, k int, sc *PrefixScratch) (TopKResult, error) {
	if k < 1 {
		return TopKResult{}, fmt.Errorf("rankagg: top-k needs k ≥ 1, got %d", k)
	}
	if len(iters) == 0 || len(iters) != len(weights) {
		return TopKResult{}, fmt.Errorf("rankagg: %d iterators with %d weights", len(iters), len(weights))
	}
	for j, w := range weights {
		if w <= 0 {
			return TopKResult{}, fmt.Errorf("rankagg: iterator %d has non-positive weight %v", j, w)
		}
	}
	if n < 1 {
		return TopKResult{}, fmt.Errorf("rankagg: need n ≥ 1, got %d", n)
	}
	if k > n {
		k = n
	}
	if sc == nil {
		sc = &PrefixScratch{}
	}
	m := len(iters)

	// Lockstep walk: reveal one rank of every ranking per step, tracking
	// the union of revealed prefixes; stop at the first clean cut ≥ k.
	lb := resizeI32(&sc.lb, n)
	for i := range lb {
		lb[i] = -1
	}
	seen := sc.seen[:0]
	cuts := sc.cuts[:0]
	stepItems := sc.stepItems[:0]
	cutEnd := 0
	for b := 0; b < n; b++ {
		for _, it := range iters {
			item := it.Next()
			if item < 0 || item >= n {
				return TopKResult{}, fmt.Errorf("rankagg: iterator yielded out-of-range item %d", item)
			}
			if lb[item] < 0 {
				lb[item] = int32(b)
				seen = append(seen, int32(item))
			}
			stepItems = append(stepItems, int32(item))
		}
		bnd := b + 1
		if len(seen) == bnd {
			cuts = append(cuts, bnd)
			if bnd >= k {
				cutEnd = bnd
				break
			}
		}
	}
	sc.seen, sc.cuts, sc.stepItems = seen, cuts, stepItems
	if cutEnd == 0 {
		// The walk reached b = n-1 without the union hitting n: some
		// iterator repeated an item, i.e. was not a permutation.
		return TopKResult{}, fmt.Errorf("rankagg: iterators did not form permutations (revealed %d of %d items)", len(seen), n)
	}

	// Compact item ids into discovery slots so position lookup is dense.
	// stepItems is step-major ([step b][iter j] = item); the clean-cut
	// property guarantees every seen item appears in every iterator's
	// revealed prefix, so the transposed table is total.
	slot := resizeI32(&sc.slot, n)
	for s, item := range seen {
		slot[item] = int32(s)
	}
	pos := resizeI32(&sc.posBySlot, m*cutEnd)
	for b := 0; b < cutEnd; b++ {
		for j := 0; j < m; j++ {
			item := stepItems[b*m+j]
			pos[j*cutEnd+int(slot[item])] = int32(b)
		}
	}

	// Bucket the prefix items into blocks, ascending item id within each
	// block — the same order blockItems produces, so solver construction
	// (and therefore tie-broken results) is bit-identical to the
	// materialized path.
	nb := len(cuts)
	offs := resizeInt(&sc.offs, nb+1)
	start := 0
	for bi, end := range cuts {
		offs[bi] = start
		start = end
	}
	offs[nb] = cutEnd
	pool := resizeInt(&sc.blockPool, cutEnd)
	fillNext := append([]int(nil), offs[:nb]...)
	for _, item32 := range seen {
		item := int(item32)
		bi := firstGreater(cuts, int(lb[item]))
		pool[fillNext[bi]] = item
		fillNext[bi]++
	}
	for bi := 0; bi < nb; bi++ {
		sort.Ints(pool[offs[bi]:offs[bi+1]])
	}

	out := resizeRanking(&sc.out, cutEnd)
	cost := func(item, r int) float64 {
		s := int(slot[item])
		var sum float64
		for j := 0; j < m; j++ {
			d := int(pos[j*cutEnd+s]) - r
			if d < 0 {
				d = -d
			}
			sum += weights[j] * float64(d)
		}
		return sum
	}
	var total float64
	for bi := 0; bi < nb; bi++ {
		bcost, err := sc.solve(cost, pool[offs[bi]:offs[bi+1]], offs[bi], out)
		if err != nil {
			return TopKResult{}, err
		}
		total += bcost
	}
	return TopKResult{
		Prefix:  out,
		Solved:  cutEnd,
		Cost:    total,
		Bounded: cutEnd < n,
	}, nil
}

// TrimCost drops the block cost-matrix scratch when it has grown past
// maxCells float64 cells. A no-cut epoch degrades to one monolithic n×n
// block; pooling callers use this so that rare fallback doesn't pin its
// matrix for the life of the pool entry.
func (sc *PrefixScratch) TrimCost(maxCells int) {
	if cap(sc.costBack) > maxCells {
		sc.costBack, sc.costRows = nil, nil
	}
}

func resizeI32(s *[]int32, n int) []int32 {
	if cap(*s) < n {
		*s = make([]int32, n)
	}
	*s = (*s)[:n]
	return *s
}

func resizeInt(s *[]int, n int) []int {
	if cap(*s) < n {
		*s = make([]int, n)
	}
	*s = (*s)[:n]
	return *s
}

func resizeRanking(s *Ranking, n int) Ranking {
	if cap(*s) < n {
		*s = make(Ranking, n)
	}
	*s = (*s)[:n]
	return *s
}
