package rankagg

import (
	"math"
	"math/rand"
	"testing"
)

// sliceIter adapts a materialized ranking to the PrefixIter interface.
type sliceIter struct {
	r   Ranking
	pos int
}

func (it *sliceIter) Next() int {
	v := it.r[it.pos]
	it.pos++
	return v
}

// positiveIters builds the iterator/weight pair AggregatePrefix expects:
// positive-weight rankings only, in collection order.
func positiveIters(c Collection) ([]PrefixIter, []float64) {
	var iters []PrefixIter
	var weights []float64
	for j, rj := range c.Rankings {
		if c.Weights[j] > 0 {
			iters = append(iters, &sliceIter{r: rj})
			weights = append(weights, c.Weights[j])
		}
	}
	return iters, weights
}

// TestAggregatePrefixMatchesTopK: the lazy iterator-driven solve must be
// bit-identical to the materialized FootruleAggregateTopK over the solved
// prefix — same Solved, same items at every rank, same cost, and the lazy
// walk must never solve past the materialized covering cut.
func TestAggregatePrefixMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	sc := &PrefixScratch{} // shared across trials: exercises scratch reuse
	bounded := 0
	for trial := 0; trial < 300; trial++ {
		c := testCollections(rng, trial)
		if !hasPositiveWeight(c) {
			continue
		}
		n := c.N()
		for _, k := range []int{1, 3, n} {
			if k > n {
				continue
			}
			want, err := FootruleAggregateTopK(c, k)
			if err != nil {
				t.Fatal(err)
			}
			iters, weights := positiveIters(c)
			got, err := AggregatePrefix(iters, weights, n, k, sc)
			if err != nil {
				t.Fatal(err)
			}
			if got.Solved != want.Solved {
				t.Fatalf("trial %d k=%d: lazy solved %d, materialized %d", trial, k, got.Solved, want.Solved)
			}
			if got.Bounded != want.Bounded {
				t.Fatalf("trial %d k=%d: lazy bounded=%v, materialized %v", trial, k, got.Bounded, want.Bounded)
			}
			if math.Abs(got.Cost-want.Cost) > 0 {
				t.Fatalf("trial %d k=%d: lazy cost %v != %v (must be bit-identical)", trial, k, got.Cost, want.Cost)
			}
			for r := 0; r < got.Solved; r++ {
				if got.Prefix[r] != want.Prefix[r] {
					t.Fatalf("trial %d k=%d rank %d: lazy %d != %d", trial, k, r, got.Prefix[r], want.Prefix[r])
				}
			}
			if got.Bounded {
				bounded++
			}
		}
	}
	if bounded == 0 {
		t.Fatal("no trial was ever bounded — lazy path untested")
	}
}

// TestAggregatePrefixRejectsBadInput pins the error contract: bad k,
// mismatched weights, non-positive weights, and non-permutation iterators
// must all fail loudly rather than return a wrong prefix.
func TestAggregatePrefixRejectsBadInput(t *testing.T) {
	r := Ranking{0, 1, 2}
	good := func() ([]PrefixIter, []float64) {
		return []PrefixIter{&sliceIter{r: r}}, []float64{1}
	}
	iters, w := good()
	if _, err := AggregatePrefix(iters, w, 3, 0, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	iters, _ = good()
	if _, err := AggregatePrefix(iters, []float64{1, 2}, 3, 1, nil); err == nil {
		t.Fatal("weight/iterator mismatch accepted")
	}
	iters, _ = good()
	if _, err := AggregatePrefix(iters, []float64{0}, 3, 1, nil); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := AggregatePrefix(nil, nil, 3, 1, nil); err == nil {
		t.Fatal("no iterators accepted")
	}
	dup := &sliceIter{r: Ranking{0, 0, 1}} // repeats an item: not a permutation
	if _, err := AggregatePrefix([]PrefixIter{dup}, []float64{1}, 3, 3, nil); err == nil {
		t.Fatal("non-permutation iterator accepted")
	}
	oob := &sliceIter{r: Ranking{5, 0, 1}}
	if _, err := AggregatePrefix([]PrefixIter{oob}, []float64{1}, 3, 1, nil); err == nil {
		t.Fatal("out-of-range item accepted")
	}
}

// TestPrefixScratchTrimCost: an oversized cost matrix is dropped, a small
// one is kept.
func TestPrefixScratchTrimCost(t *testing.T) {
	sc := &PrefixScratch{}
	sc.costBack = make([]float64, 100)
	sc.TrimCost(1000)
	if sc.costBack == nil {
		t.Fatal("small scratch dropped")
	}
	sc.TrimCost(10)
	if sc.costBack != nil {
		t.Fatal("oversized scratch kept")
	}
}
