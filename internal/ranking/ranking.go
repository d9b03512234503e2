// Package ranking implements SOR's Personalizable Ranking Algorithm
// (§IV-B, Algorithm 2). Input: the feature matrix H (N places × M
// features) produced by the Data Processor, plus a user's preference
// profile — a preferred value u_j and an integer weight w_j ∈ {0..5} per
// feature. The algorithm:
//
//  1. Γ_ij = |h_ij − u_j|  (distance to the preferred value; MIN/MAX
//     sentinel preferences resolve to extreme values so "the more the
//     better" features work, and features with no stated preference fall
//     back to a configured default, e.g. 73 °F for temperature);
//  2. sorts each feature column of Γ ascending to obtain the individual
//     rankings R_j;
//  3. aggregates {R_j} under the weighted footrule distance via min-cost
//     perfect matching (rankagg.FootruleAggregate), a 2-approximation of
//     the NP-hard weighted-Kemeny optimum.
package ranking

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"sor/internal/rankagg"
)

// tiePool recycles the tie-group scratch slice Rank needs per call; the
// groups never outlive the call, so pooling removes one per-query alloc.
var tiePool = sync.Pool{New: func() interface{} { s := make([]int, 0, 64); return &s }}

// PrefKind states how a user's preference for a feature is expressed.
type PrefKind int

// Preference kinds. Values start at 1 per the style guide so the zero
// value is invalid and cannot be mistaken for a real preference.
const (
	// PrefValue targets a specific preferred value (e.g. 73 °F).
	PrefValue PrefKind = iota + 1
	// PrefMin means "the smaller the better" (e.g. background noise).
	PrefMin
	// PrefMax means "the larger the better" (e.g. WiFi signal strength).
	PrefMax
	// PrefDefault defers to the feature's configured default preference.
	PrefDefault
)

// MaxWeight is the largest weight a user can assign (the paper's scale is
// 0..5, with 0 = "don't care" and 5 = "really care").
const MaxWeight = 5

// Preference is one user's stance on one feature.
type Preference struct {
	Kind PrefKind
	// Value is the preferred value; used only when Kind == PrefValue.
	Value float64
	// Weight ∈ {0..5}.
	Weight int
}

// Validate checks the preference fields.
func (p Preference) Validate() error {
	switch p.Kind {
	case PrefValue:
		if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
			return fmt.Errorf("ranking: invalid preferred value %v", p.Value)
		}
	case PrefMin, PrefMax, PrefDefault:
	default:
		return fmt.Errorf("ranking: invalid preference kind %d", p.Kind)
	}
	if p.Weight < 0 || p.Weight > MaxWeight {
		return fmt.Errorf("ranking: weight %d outside [0,%d]", p.Weight, MaxWeight)
	}
	return nil
}

// Feature describes one column of the feature matrix.
type Feature struct {
	// Name is the humanly understandable feature name ("temperature").
	Name string
	// Unit documents the measurement unit ("°F").
	Unit string
	// Default is the preference applied when the user picks PrefDefault
	// or supplies no preference (the paper's example: 73 °F for
	// temperature; "a very large default" for WiFi strength → PrefMax).
	Default Preference
}

// Profile is a named user's full preference vector, keyed by feature name.
type Profile struct {
	Name  string
	Prefs map[string]Preference
}

// Matrix is the feature matrix H: Values[i][j] = value of feature j at
// place i.
type Matrix struct {
	Places   []string
	Features []Feature
	Values   [][]float64
}

// Validate checks the matrix shape.
func (m *Matrix) Validate() error {
	if m == nil {
		return errors.New("ranking: nil matrix")
	}
	if len(m.Places) == 0 {
		return errors.New("ranking: no places")
	}
	if len(m.Features) == 0 {
		return errors.New("ranking: no features")
	}
	if len(m.Values) != len(m.Places) {
		return fmt.Errorf("ranking: %d value rows for %d places", len(m.Values), len(m.Places))
	}
	seen := make(map[string]bool, len(m.Features))
	for _, f := range m.Features {
		if f.Name == "" {
			return errors.New("ranking: feature with empty name")
		}
		if seen[f.Name] {
			return fmt.Errorf("ranking: duplicate feature %q", f.Name)
		}
		seen[f.Name] = true
		if err := f.Default.Validate(); err != nil {
			return fmt.Errorf("ranking: feature %q default: %w", f.Name, err)
		}
		if f.Default.Kind == PrefDefault {
			return fmt.Errorf("ranking: feature %q default cannot itself be PrefDefault", f.Name)
		}
	}
	for i, row := range m.Values {
		if len(row) != len(m.Features) {
			return fmt.Errorf("ranking: row %d has %d values for %d features",
				i, len(row), len(m.Features))
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ranking: invalid H[%d][%d] = %v", i, j, v)
			}
		}
	}
	return nil
}

// Result is the output of one personalized ranking run.
type Result struct {
	// Order lists place names best-first.
	Order []string
	// OrderIdx lists place indices best-first.
	OrderIdx []int
	// Individual holds the per-feature rankings R_j (place indices
	// best-first), keyed by feature name — Step 2's output, retained so
	// callers can explain the final ranking.
	Individual map[string][]int
	// Gamma is the distance matrix Γ built in Step 1.
	Gamma [][]float64
	// FootruleCost is the minimized weighted f-ranking distance (Eq. 11).
	FootruleCost float64
	// KemenyCost is the weighted Kemeny distance of the final ranking to
	// the individual rankings (Eq. 7), for diagnostics.
	KemenyCost float64
	// Weights are the effective per-feature weights used.
	Weights map[string]int
	// Solved is how many leading ranks of Order/OrderIdx were exactly
	// determined. The full Rank path always solves everything; the
	// columnar top-k path stops at the first clean cut covering the
	// requested k (so Solved ≥ min(k, n)).
	Solved int
}

// Ranker ranks the places of one category. Construction presorts every
// feature column once, so each Rank call derives its per-feature
// individual rankings with an O(n) two-pointer merge instead of an
// O(n log n) sort. A Ranker is immutable after NewRanker and safe for
// concurrent use; the matrix must not be mutated while the Ranker lives.
type Ranker struct {
	matrix *Matrix
	// sortedIdx[j] lists place indices with column j's values ascending
	// (ties by place index); sortedVal[j][k] = Values[sortedIdx[j][k]][j].
	sortedIdx [][]int
	sortedVal [][]float64
	// colLo/colHi are each column's min/max, for MIN/MAX sentinel prefs.
	colLo []float64
	colHi []float64
}

// NewRanker validates H, presorts its feature columns, and returns a
// ranker over it.
func NewRanker(m *Matrix) (*Ranker, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n, mFeat := len(m.Places), len(m.Features)
	r := &Ranker{
		matrix:    m,
		sortedIdx: make([][]int, mFeat),
		sortedVal: make([][]float64, mFeat),
		colLo:     make([]float64, mFeat),
		colHi:     make([]float64, mFeat),
	}
	idxFlat := make([]int, n*mFeat)
	valFlat := make([]float64, n*mFeat)
	for j := 0; j < mFeat; j++ {
		idx := idxFlat[j*n : (j+1)*n : (j+1)*n]
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			va, vb := m.Values[idx[a]][j], m.Values[idx[b]][j]
			if va != vb {
				return va < vb
			}
			return idx[a] < idx[b]
		})
		vals := valFlat[j*n : (j+1)*n : (j+1)*n]
		for k, i := range idx {
			vals[k] = m.Values[i][j]
		}
		r.sortedIdx[j] = idx
		r.sortedVal[j] = vals
		r.colLo[j] = vals[0]
		r.colHi[j] = vals[n-1]
	}
	return r, nil
}

// individualOrder computes Step 2's individual ranking for feature column
// j under preferred value u: place indices by ascending Γ_ij = |h_ij − u|,
// ties by place index. It merges outward from u's insertion point in the
// presorted column, O(n) plus the cost of sorting tie groups.
//
// Ties are detected on the computed gamma, not the raw value: for extreme
// u the subtraction can absorb distinct values into equal gammas, and the
// legacy sort ordered those by place index across both sides of u.
func (r *Ranker) individualOrder(j int, u float64, order, tie []int) []int {
	idx := r.sortedIdx[j]
	vals := r.sortedVal[j]
	n := len(idx)
	order = order[:0]
	rp := sort.SearchFloat64s(vals, u) // first k with vals[k] >= u
	l := rp - 1
	for len(order) < n {
		var g float64
		switch {
		case l < 0:
			g = math.Abs(vals[rp] - u)
		case rp >= n:
			g = math.Abs(vals[l] - u)
		default:
			gl, gr := math.Abs(vals[l]-u), math.Abs(vals[rp]-u)
			g = math.Min(gl, gr)
		}
		// Gamma grows (weakly) monotonically outward on each side, so a
		// tie group is contiguous on both runs.
		tie = tie[:0]
		for l >= 0 && math.Abs(vals[l]-u) == g {
			tie = append(tie, idx[l])
			l--
		}
		for rp < n && math.Abs(vals[rp]-u) == g {
			tie = append(tie, idx[rp])
			rp++
		}
		sort.Ints(tie)
		order = append(order, tie...)
	}
	return order
}

// resolve maps a user preference (possibly absent or PrefDefault) to a
// concrete preferred value for feature column j, plus its weight.
func (r *Ranker) resolve(j int, prof Profile) (value float64, weight int, err error) {
	f := r.matrix.Features[j]
	pref, ok := prof.Prefs[f.Name]
	if !ok {
		pref = Preference{Kind: PrefDefault, Weight: f.Default.Weight}
	}
	if err := pref.Validate(); err != nil {
		return 0, 0, fmt.Errorf("ranking: profile %q feature %q: %w", prof.Name, f.Name, err)
	}
	kind := pref.Kind
	val := pref.Value
	if kind == PrefDefault {
		kind = f.Default.Kind
		val = f.Default.Value
	}
	switch kind {
	case PrefValue:
		return val, pref.Weight, nil
	case PrefMin:
		// "A very small default value": anything at or below the column
		// minimum behaves identically, so use min − range − 1.
		lo, hi := r.columnRange(j)
		return lo - (hi - lo) - 1, pref.Weight, nil
	case PrefMax:
		lo, hi := r.columnRange(j)
		return hi + (hi - lo) + 1, pref.Weight, nil
	default:
		return 0, 0, fmt.Errorf("ranking: unresolvable preference kind %d", kind)
	}
}

func (r *Ranker) columnRange(j int) (lo, hi float64) {
	return r.colLo[j], r.colHi[j]
}

// Rank runs Algorithm 2 for the given profile.
func (r *Ranker) Rank(prof Profile) (*Result, error) {
	n := len(r.matrix.Places)
	mFeat := len(r.matrix.Features)

	// Step 1: Γ_ij = |h_ij − u_j|, with the degenerate all-weights-zero
	// case detected in the same pass.
	gammaFlat := make([]float64, n*mFeat)
	gamma := make([][]float64, n)
	for i := range gamma {
		gamma[i] = gammaFlat[i*mFeat : (i+1)*mFeat : (i+1)*mFeat]
	}
	prefVals := make([]float64, mFeat)
	weights := make([]float64, mFeat)
	weightByName := make(map[string]int, mFeat)
	allZero := true
	for j := 0; j < mFeat; j++ {
		u, w, err := r.resolve(j, prof)
		if err != nil {
			return nil, err
		}
		prefVals[j] = u
		weights[j] = float64(w)
		if w > 0 {
			allZero = false
		}
		weightByName[r.matrix.Features[j].Name] = w
		for i := 0; i < n; i++ {
			gamma[i][j] = math.Abs(r.matrix.Values[i][j] - u)
		}
	}

	// Step 2: per-feature individual rankings (ascending Γ — closest to
	// the preferred value first; ties break by place index). Derived from
	// the presorted columns by an O(n) outward merge — proven equivalent
	// to the legacy per-query sort by TestIndividualOrderMatchesSort.
	individual := make(map[string][]int, mFeat)
	collection := rankagg.Collection{
		Rankings: make([]rankagg.Ranking, 0, mFeat),
		Weights:  make([]float64, 0, mFeat),
	}
	orderFlat := make([]int, n*mFeat)
	tie := tiePool.Get().(*[]int)
	if cap(*tie) < n {
		*tie = make([]int, 0, n)
	}
	for j := 0; j < mFeat; j++ {
		order := r.individualOrder(j, prefVals[j], orderFlat[j*n:j*n:(j+1)*n], *tie)
		individual[r.matrix.Features[j].Name] = order
		collection.Rankings = append(collection.Rankings, rankagg.Ranking(order))
		collection.Weights = append(collection.Weights, weights[j])
	}
	tiePool.Put(tie)

	// Degenerate but legal: all weights zero → any ranking is optimal;
	// return the identity order explicitly rather than an arbitrary
	// matching.

	var final rankagg.Ranking
	var footCost float64
	if allZero {
		final = make(rankagg.Ranking, n)
		for i := range final {
			final[i] = i
		}
	} else {
		// Step 3 runs the clean-cut block decomposition — the same exact
		// optimum as rankagg.FootruleAggregate, but solving one matching
		// per clean-cut block so the columnar top-k path (which solves
		// only the prefix blocks) is bit-identical to this full path over
		// the ranks it serves.
		var err error
		final, footCost, err = rankagg.FootruleAggregateBlocks(collection)
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
		Individual:   individual,
		Gamma:        gamma,
		FootruleCost: footCost,
		KemenyCost:   kemeny,
		Weights:      weightByName,
		Solved:       n,
	}
	res.Order = make([]string, n)
	for pos, idx := range final {
		res.Order[pos] = r.matrix.Places[idx]
	}
	return res, nil
}
