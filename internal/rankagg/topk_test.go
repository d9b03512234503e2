package rankagg

import (
	"math"
	"math/rand"
	"testing"
)

// correlatedCollection builds rankings that are local perturbations of one
// base permutation — the regime where clean cuts are dense, mirroring
// real sensed features that all correlate with underlying place quality.
func correlatedCollection(rng *rand.Rand, n, m, churn int) Collection {
	base := randRanking(rng, n)
	c := Collection{}
	for j := 0; j < m; j++ {
		r := base.Clone()
		for s := 0; s < churn; s++ {
			p := rng.Intn(n)
			q := p + rng.Intn(3) - 1
			if q >= 0 && q < n {
				r[p], r[q] = r[q], r[p]
			}
		}
		w := 0.1 + 4.9*rng.Float64()
		if rng.Intn(8) == 0 {
			w = 0
		}
		c.Rankings = append(c.Rankings, r)
		c.Weights = append(c.Weights, w)
	}
	return c
}

func randomCollection(rng *rand.Rand, n, m int) Collection {
	c := Collection{}
	for j := 0; j < m; j++ {
		c.Rankings = append(c.Rankings, randRanking(rng, n))
		w := 0.1 + 4.9*rng.Float64()
		if rng.Intn(8) == 0 {
			w = 0
		}
		c.Weights = append(c.Weights, w)
	}
	return c
}

func testCollections(rng *rand.Rand, trial int) Collection {
	n := 1 + rng.Intn(24)
	m := 1 + rng.Intn(4)
	if trial%2 == 0 {
		return correlatedCollection(rng, n, m, 1+rng.Intn(2*n))
	}
	return randomCollection(rng, n, m)
}

func hasPositiveWeight(c Collection) bool {
	for _, w := range c.Weights {
		if w > 0 {
			return true
		}
	}
	return false
}

// TestBlocksMatchesFullCost: the clean-cut decomposition must reach the
// same optimal cost as the single global matching, on both correlated and
// uncorrelated collections.
func TestBlocksMatchesFullCost(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 300; trial++ {
		c := testCollections(rng, trial)
		n := c.N()
		full, fullCost, err := FootruleAggregate(c)
		if err != nil {
			t.Fatal(err)
		}
		blocks, blocksCost, err := FootruleAggregateBlocks(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := blocks.Validate(n); err != nil {
			t.Fatalf("trial %d: blocks result invalid: %v", trial, err)
		}
		if hasPositiveWeight(c) {
			if math.Abs(blocksCost-fullCost) > 1e-9 {
				t.Fatalf("trial %d: blocks cost %v != full cost %v", trial, blocksCost, fullCost)
			}
		}
		// Cross-check the reported cost against the objective.
		check, err := c.WeightedFootrule(blocks)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(check-blocksCost) > 1e-9 {
			t.Fatalf("trial %d: reported %v but objective is %v", trial, blocksCost, check)
		}
		_ = full
	}
}

// TestCleanCutTheorem empirically validates the decomposition lemma: at
// every clean cut b, the INDEPENDENT global solve must place exactly the
// candidate set S_b on ranks 0..b-1. This is the soundness argument for
// top-k serving — if it ever failed, bounded candidates could exclude a
// true top-k member.
func TestCleanCutTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cutsSeen := 0
	for trial := 0; trial < 300; trial++ {
		c := testCollections(rng, trial)
		if !hasPositiveWeight(c) {
			continue
		}
		full, _, err := FootruleAggregate(c)
		if err != nil {
			t.Fatal(err)
		}
		lb, _ := minPositions(c)
		for _, b := range CleanCuts(c) {
			if b < c.N() {
				cutsSeen++
			}
			for r := 0; r < b; r++ {
				if lb[full[r]] >= b {
					t.Fatalf("trial %d: global optimum put item %d (min position %d) at rank %d inside clean cut %d",
						trial, full[r], lb[full[r]], r, b)
				}
			}
		}
	}
	if cutsSeen < 50 {
		t.Fatalf("only %d non-trivial clean cuts across all trials — generator too adversarial to test the theorem", cutsSeen)
	}
}

// TestTopKPrefixMatchesBlocks: the bounded solve must be bit-identical to
// the full block decomposition over the solved prefix, for k ∈ {1, 5, n}.
func TestTopKPrefixMatchesBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	bounded := 0
	for trial := 0; trial < 300; trial++ {
		c := testCollections(rng, trial)
		n := c.N()
		blocks, _, err := FootruleAggregateBlocks(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 5, n} {
			if k > n {
				continue
			}
			res, err := FootruleAggregateTopK(c, k)
			if err != nil {
				t.Fatal(err)
			}
			if res.Solved < k {
				t.Fatalf("trial %d k=%d: solved only %d ranks", trial, k, res.Solved)
			}
			if res.Bounded {
				bounded++
			}
			for r := 0; r < res.Solved; r++ {
				if res.Prefix[r] != blocks[r] {
					t.Fatalf("trial %d k=%d rank %d: top-k gave item %d, blocks gave %d",
						trial, k, r, res.Prefix[r], blocks[r])
				}
			}
		}
	}
	if bounded == 0 {
		t.Fatal("no trial was ever bounded — top-k path untested")
	}
}

// TestTopKAllZeroWeights: with no positive weight every permutation is
// optimal; the decomposition must fall back to the deterministic identity.
func TestTopKAllZeroWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := Collection{
		Rankings: []Ranking{randRanking(rng, 9), randRanking(rng, 9)},
		Weights:  []float64{0, 0},
	}
	res, err := FootruleAggregateTopK(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if res.Prefix[i] != i {
			t.Fatalf("rank %d: got %d, want identity", i, res.Prefix[i])
		}
	}
	if CleanCuts(c) != nil {
		t.Fatal("clean cuts should be nil for an all-zero-weight collection")
	}
}
