package ranking

import (
	"fmt"
	"math"
	"sort"

	"sor/internal/rankagg"
)

// SubjectiveFeatureName labels the star-rating pseudo-feature in hybrid
// results.
const SubjectiveFeatureName = "subjective rating"

// RankHybrid extends Algorithm 2 with the integration the paper's
// introduction motivates: objective sensed features are aggregated
// *together with* an existing subjective rating (e.g. Yelp stars, higher =
// better), which enters as one more individual ranking with its own user
// weight. With subjectiveWeight = 0 the result equals Rank; with all
// feature weights 0 and subjectiveWeight > 0 it degenerates to the pure
// star-rating order.
func (r *Ranker) RankHybrid(prof Profile, subjective []float64, subjectiveWeight int) (*Result, error) {
	n := len(r.matrix.Places)
	if len(subjective) != n {
		return nil, fmt.Errorf("ranking: %d subjective ratings for %d places", len(subjective), n)
	}
	for i, v := range subjective {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("ranking: invalid subjective rating %v for place %d", v, i)
		}
	}
	if subjectiveWeight < 0 || subjectiveWeight > MaxWeight {
		return nil, fmt.Errorf("ranking: subjective weight %d outside [0,%d]", subjectiveWeight, MaxWeight)
	}

	base, err := r.Rank(prof)
	if err != nil {
		return nil, err
	}

	// Subjective ranking: higher rating first, ties by place index.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if subjective[order[a]] != subjective[order[b]] {
			return subjective[order[a]] > subjective[order[b]]
		}
		return order[a] < order[b]
	})

	collection := rankagg.Collection{}
	for _, f := range r.matrix.Features {
		collection.Rankings = append(collection.Rankings, rankagg.Ranking(base.Individual[f.Name]))
		collection.Weights = append(collection.Weights, float64(base.Weights[f.Name]))
	}
	collection.Rankings = append(collection.Rankings, rankagg.Ranking(order))
	collection.Weights = append(collection.Weights, float64(subjectiveWeight))

	allZero := float64(subjectiveWeight) == 0
	if allZero {
		for _, w := range collection.Weights {
			if w > 0 {
				allZero = false
				break
			}
		}
	}
	var final rankagg.Ranking
	var footCost float64
	if allZero {
		final = make(rankagg.Ranking, n)
		for i := range final {
			final[i] = i
		}
	} else {
		final, footCost, err = rankagg.FootruleAggregate(collection)
		if err != nil {
			return nil, err
		}
	}
	kemeny, err := collection.WeightedKemeny(final)
	if err != nil {
		return nil, err
	}

	res := &Result{
		OrderIdx:     []int(final),
		Individual:   base.Individual,
		Gamma:        base.Gamma,
		FootruleCost: footCost,
		KemenyCost:   kemeny,
		Weights:      base.Weights,
		Solved:       n,
	}
	res.Individual[SubjectiveFeatureName] = order
	res.Weights[SubjectiveFeatureName] = subjectiveWeight
	res.Order = make([]string, n)
	for pos, idx := range final {
		res.Order[pos] = r.matrix.Places[idx]
	}
	return res, nil
}
