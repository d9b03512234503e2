package ranking

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRankHybridValidation(t *testing.T) {
	r, err := NewRanker(coffeeMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RankHybrid(emma(), []float64{1, 2}, 3); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := r.RankHybrid(emma(), []float64{1, 2, math.NaN()}, 3); err == nil {
		t.Fatal("NaN rating must error")
	}
	if _, err := r.RankHybrid(emma(), []float64{1, 2, 3}, -1); err == nil {
		t.Fatal("negative weight must error")
	}
	if _, err := r.RankHybrid(emma(), []float64{1, 2, 3}, 6); err == nil {
		t.Fatal("weight > 5 must error")
	}
}

func TestRankHybridZeroWeightEqualsObjective(t *testing.T) {
	r, err := NewRanker(coffeeMatrix())
	if err != nil {
		t.Fatal(err)
	}
	objective, err := r.Rank(emma())
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := r.RankHybrid(emma(), []float64{5, 1, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertOrder(t, hybrid.Order, objective.Order)
}

// A hybrid solve is a full one: every rank is exact, as for Rank.
func TestRankHybridSolvesEveryRank(t *testing.T) {
	r, err := NewRanker(coffeeMatrix())
	if err != nil {
		t.Fatal(err)
	}
	objective, err := r.Rank(emma())
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := r.RankHybrid(emma(), []float64{5, 1, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(hybrid.Order); hybrid.Solved != n || objective.Solved != n {
		t.Fatalf("solved: hybrid %d, objective %d, want both %d", hybrid.Solved, objective.Solved, n)
	}
}

func TestRankHybridPureSubjective(t *testing.T) {
	// All objective weights zero: the hybrid must follow the stars.
	r, err := NewRanker(coffeeMatrix())
	if err != nil {
		t.Fatal(err)
	}
	apathetic := Profile{Name: "stars-only", Prefs: map[string]Preference{
		"temperature": {Kind: PrefDefault, Weight: 0},
		"brightness":  {Kind: PrefDefault, Weight: 0},
		"noise":       {Kind: PrefDefault, Weight: 0},
		"wifi":        {Kind: PrefDefault, Weight: 0},
	}}
	// Stars: Starbucks 4.5, Tim Hortons 4.0, B&N 3.0.
	res, err := r.RankHybrid(apathetic, []float64{4.0, 3.0, 4.5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertOrder(t, res.Order, []string{"Starbucks", "Tim Hortons", "B&N Cafe"})
	if res.Weights[SubjectiveFeatureName] != 5 {
		t.Fatal("subjective weight not recorded")
	}
	if _, ok := res.Individual[SubjectiveFeatureName]; !ok {
		t.Fatal("subjective individual ranking not recorded")
	}
}

func TestRankHybridBlendsBothSignals(t *testing.T) {
	// A warmth-seeker's objective order is Starbucks > B&N > Tim Hortons
	// (temperature 73 > 71 > 66 against a 75 °F preference at weight 2).
	// Terrible stars for Starbucks at a weak weight leave the objective
	// order intact; at maximum weight they flip the ranking to follow the
	// crowd.
	r, err := NewRanker(coffeeMatrix())
	if err != nil {
		t.Fatal(err)
	}
	warm := Profile{Name: "warm-seeker", Prefs: map[string]Preference{
		"temperature": {Kind: PrefValue, Value: 75, Weight: 2},
		"brightness":  {Kind: PrefDefault, Weight: 0},
		"noise":       {Kind: PrefDefault, Weight: 0},
		"wifi":        {Kind: PrefDefault, Weight: 0},
	}}
	stars := []float64{5.0, 3.0, 1.0} // TH, B&N, SB
	weak, err := r.RankHybrid(warm, stars, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertOrder(t, weak.Order, []string{"Starbucks", "B&N Cafe", "Tim Hortons"})
	strong, err := r.RankHybrid(warm, stars, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertOrder(t, strong.Order, []string{"Tim Hortons", "B&N Cafe", "Starbucks"})
}

// TestRankHybridCannotOutvoteHeavyObjective documents the weight
// arithmetic: Emma's 15 points of objective weight cannot be flipped by a
// single subjective ranking capped at weight 5.
func TestRankHybridCannotOutvoteHeavyObjective(t *testing.T) {
	r, err := NewRanker(coffeeMatrix())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RankHybrid(emma(), []float64{2.0, 3.0, 5.0}, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertOrder(t, res.Order, []string{"B&N Cafe", "Tim Hortons", "Starbucks"})
}

func TestRankHybridTieBreaksDeterministic(t *testing.T) {
	r, err := NewRanker(coffeeMatrix())
	if err != nil {
		t.Fatal(err)
	}
	// All ratings equal: subjective ranking is by place index; result must
	// be deterministic across calls.
	a, err := r.RankHybrid(emma(), []float64{3, 3, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RankHybrid(emma(), []float64{3, 3, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertOrder(t, a.Order, b.Order)
}

// Property: the hybrid result is always a permutation, and its weighted
// Kemeny cost never exceeds its footrule cost.
func TestRankHybridPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := coffeeMatrix()
		r, err := NewRanker(m)
		if err != nil {
			return false
		}
		stars := []float64{rng.Float64() * 5, rng.Float64() * 5, rng.Float64() * 5}
		res, err := r.RankHybrid(emma(), stars, rng.Intn(6))
		if err != nil {
			return false
		}
		seen := make([]bool, len(m.Places))
		for _, idx := range res.OrderIdx {
			if idx < 0 || idx >= len(m.Places) || seen[idx] {
				return false
			}
			seen[idx] = true
		}
		return res.KemenyCost <= res.FootruleCost+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
