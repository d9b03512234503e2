// Columnar rank core: the struct-of-arrays epoch representation behind
// the 10k-place read path. A ColumnSet holds each feature column of the
// matrix presorted into a shared arena (int32 place indices + float64
// values, packed column-major), built once per epoch. Epoch N+1 derives
// from epoch N by Merge: columns untouched by the epoch's dirty rows are
// aliased — the new ColumnSet's slice headers point into the previous
// epoch's arena — and only changed columns are rebuilt, by deleting the
// dirty entries from the old sorted run and merging the re-sorted dirty
// entries back in (O(n + d·log d) per changed column instead of a full
// O(n·log n) sort). Both paths order by (value asc, place index asc) — a
// total order — so a merged column is bit-identical to a fresh sort.
//
// Arenas are immutable once built and freed only by the garbage
// collector when no ColumnSet aliases them anymore, so a query reading a
// superseded epoch can never observe a torn or freed column.
package ranking

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"sor/internal/rankagg"
)

// column is one presorted feature column. idx and val alias an arena
// owned by whichever epoch last rebuilt this column.
type column struct {
	idx []int32   // place indices, values ascending, ties by index
	val []float64 // val[k] = Values[idx[k]][j]
}

// ColumnSet is the columnar form of one epoch's feature matrix.
type ColumnSet struct {
	matrix *Matrix
	cols   []column
	// aliased counts columns shared with the previous epoch's arena —
	// diagnostics for the delta-merge rate.
	aliased int
}

// NewColumnSet presorts every column of m into a fresh arena.
func NewColumnSet(m *Matrix) (*ColumnSet, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n, mFeat := len(m.Places), len(m.Features)
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("ranking: %d places overflow the columnar index type", n)
	}
	cs := &ColumnSet{matrix: m, cols: make([]column, mFeat)}
	idxArena := make([]int32, n*mFeat)
	valArena := make([]float64, n*mFeat)
	for j := 0; j < mFeat; j++ {
		idx := idxArena[j*n : (j+1)*n : (j+1)*n]
		val := valArena[j*n : (j+1)*n : (j+1)*n]
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.Slice(idx, func(a, b int) bool {
			va, vb := m.Values[idx[a]][j], m.Values[idx[b]][j]
			if va != vb {
				return va < vb
			}
			return idx[a] < idx[b]
		})
		for k, i := range idx {
			val[k] = m.Values[i][j]
		}
		cs.cols[j] = column{idx: idx, val: val}
	}
	return cs, nil
}

// Aliased reports how many columns this set shares with its predecessor's
// arena (zero for a full build).
func (cs *ColumnSet) Aliased() int { return cs.aliased }

// Merge derives the ColumnSet for a new matrix from cs, given the place
// rows that may have changed. The new matrix must cover the same places
// and features in the same order (the caller falls back to NewColumnSet
// when membership changed). Columns whose dirty rows all kept their value
// are aliased from cs; the rest are rebuilt by a sorted merge of the
// surviving run with the re-sorted dirty entries.
func (cs *ColumnSet) Merge(m *Matrix, dirty []int) (*ColumnSet, error) {
	old := cs.matrix
	n, mFeat := len(old.Places), len(old.Features)
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(m.Places) != n || len(m.Features) != mFeat {
		return nil, fmt.Errorf("ranking: merge shape changed (%d×%d → %d×%d)",
			n, mFeat, len(m.Places), len(m.Features))
	}
	for i, p := range m.Places {
		if old.Places[i] != p {
			return nil, fmt.Errorf("ranking: merge place set changed at row %d (%q → %q)", i, old.Places[i], p)
		}
	}
	for j, f := range m.Features {
		if old.Features[j].Name != f.Name {
			return nil, fmt.Errorf("ranking: merge feature set changed at column %d", j)
		}
	}
	for _, i := range dirty {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("ranking: dirty row %d out of range [0,%d)", i, n)
		}
	}

	out := &ColumnSet{matrix: m, cols: make([]column, mFeat)}
	changed := make([]bool, mFeat)
	nChanged := 0
	for j := 0; j < mFeat; j++ {
		for _, i := range dirty {
			if old.Values[i][j] != m.Values[i][j] {
				changed[j] = true
				nChanged++
				break
			}
		}
	}
	// A non-dirty row must be byte-identical in the new matrix — that is
	// the caller's contract; aliasing is only sound under it.
	if nChanged == 0 {
		copy(out.cols, cs.cols)
		out.aliased = mFeat
		return out, nil
	}

	idxArena := make([]int32, n*nChanged)
	valArena := make([]float64, n*nChanged)
	isDirty := make([]bool, n)
	for _, i := range dirty {
		isDirty[i] = true
	}
	type pair struct {
		val float64
		idx int32
	}
	fresh := make([]pair, 0, len(dirty))
	slot := 0
	for j := 0; j < mFeat; j++ {
		if !changed[j] {
			out.cols[j] = cs.cols[j]
			out.aliased++
			continue
		}
		fresh = fresh[:0]
		for _, i := range dirty {
			fresh = append(fresh, pair{val: m.Values[i][j], idx: int32(i)})
		}
		sort.Slice(fresh, func(a, b int) bool {
			if fresh[a].val != fresh[b].val {
				return fresh[a].val < fresh[b].val
			}
			return fresh[a].idx < fresh[b].idx
		})
		oldIdx, oldVal := cs.cols[j].idx, cs.cols[j].val
		idx := idxArena[slot*n : (slot+1)*n : (slot+1)*n]
		val := valArena[slot*n : (slot+1)*n : (slot+1)*n]
		slot++
		w, p, q := 0, 0, 0
		for w < n {
			// Skip superseded entries of the old run.
			for p < n && isDirty[oldIdx[p]] {
				p++
			}
			takeOld := p < n
			if takeOld && q < len(fresh) {
				fv, fi := fresh[q].val, fresh[q].idx
				if fv < oldVal[p] || (fv == oldVal[p] && fi < oldIdx[p]) {
					takeOld = false
				}
			} else if !takeOld && q >= len(fresh) {
				return nil, fmt.Errorf("ranking: merge underflow in column %d", j)
			}
			if takeOld {
				idx[w], val[w] = oldIdx[p], oldVal[p]
				p++
			} else {
				idx[w], val[w] = fresh[q].idx, fresh[q].val
				q++
			}
			w++
		}
		out.cols[j] = column{idx: idx, val: val}
	}
	return out, nil
}

// ColumnarRanker runs Algorithm 2 over a ColumnSet, with query work
// bounded by the requested response size: individual rankings are
// revealed lazily by the same two-pointer walk as Ranker, and the
// footrule aggregation (rankagg.AggregatePrefix) advances them only to
// the smallest clean cut covering the top k ranks, solving just those
// prefix blocks. Immutable and safe for concurrent use.
type ColumnarRanker struct {
	cols *ColumnSet
}

// NewColumnarRanker builds a full columnar epoch over m.
func NewColumnarRanker(m *Matrix) (*ColumnarRanker, error) {
	cs, err := NewColumnSet(m)
	if err != nil {
		return nil, err
	}
	return &ColumnarRanker{cols: cs}, nil
}

// Merge derives the next epoch's ranker; see ColumnSet.Merge.
func (cr *ColumnarRanker) Merge(m *Matrix, dirty []int) (*ColumnarRanker, error) {
	cs, err := cr.cols.Merge(m, dirty)
	if err != nil {
		return nil, err
	}
	return &ColumnarRanker{cols: cs}, nil
}

// Matrix returns the epoch's feature matrix (not to be mutated).
func (cr *ColumnarRanker) Matrix() *Matrix { return cr.cols.matrix }

// Aliased reports the epoch's aliased-column count (see ColumnSet).
func (cr *ColumnarRanker) Aliased() int { return cr.cols.aliased }

// Column returns feature column j's presorted run — place indices and
// their values, ascending (not to be mutated). Differential tests compare
// a derived epoch's arenas with a from-scratch build through it.
func (cr *ColumnarRanker) Column(j int) (idx []int32, val []float64) {
	c := cr.cols.cols[j]
	return c.idx, c.val
}

// colScratch recycles the per-query iterator and aggregation state;
// nothing in it outlives the query (the columnar Result retains no
// individual rankings, and RankTopK copies the solved prefix out).
type colScratch struct {
	iters    []colOrderIter
	iterRefs []rankagg.PrefixIter
	weights  []float64
	prefix   rankagg.PrefixScratch
}

var colScratchPool = sync.Pool{New: func() interface{} { return &colScratch{} }}

// colOrderIter lazily yields one column's individual ranking — place
// indices by ascending Γ_ij = |val − u|, ties by place index — via the
// same outward two-pointer merge as Ranker.individualOrder. Each Γ-tie
// group is buffered and sorted before emission, so the emission order is
// bit-identical to the materialized walk. Next may be called at most
// n times.
type colOrderIter struct {
	c    *column
	u    float64
	l, r int
	buf  []int // current tie group, ascending
	pos  int
}

func (it *colOrderIter) reset(c *column, u float64) {
	it.c, it.u = c, u
	it.r = sort.SearchFloat64s(c.val, u)
	it.l = it.r - 1
	it.buf = it.buf[:0]
	it.pos = 0
}

func (it *colOrderIter) Next() int {
	if it.pos >= len(it.buf) {
		it.fill()
	}
	v := it.buf[it.pos]
	it.pos++
	return v
}

// fill gathers the next Γ-tie group from both frontiers.
func (it *colOrderIter) fill() {
	c, u, n := it.c, it.u, len(it.c.idx)
	var g float64
	switch {
	case it.l < 0:
		g = math.Abs(c.val[it.r] - u)
	case it.r >= n:
		g = math.Abs(c.val[it.l] - u)
	default:
		gl, gr := math.Abs(c.val[it.l]-u), math.Abs(c.val[it.r]-u)
		g = math.Min(gl, gr)
	}
	it.buf = it.buf[:0]
	for it.l >= 0 && math.Abs(c.val[it.l]-u) == g {
		it.buf = append(it.buf, int(c.idx[it.l]))
		it.l--
	}
	for it.r < n && math.Abs(c.val[it.r]-u) == g {
		it.buf = append(it.buf, int(c.idx[it.r]))
		it.r++
	}
	sort.Ints(it.buf)
	it.pos = 0
}

// resolve mirrors Ranker.resolve using the column extremes.
func (cr *ColumnarRanker) resolve(j int, prof Profile) (value float64, weight int, err error) {
	m := cr.cols.matrix
	f := m.Features[j]
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
	c := cr.cols.cols[j]
	lo, hi := c.val[0], c.val[len(c.val)-1]
	switch kind {
	case PrefValue:
		return val, pref.Weight, nil
	case PrefMin:
		return lo - (hi - lo) - 1, pref.Weight, nil
	case PrefMax:
		return hi + (hi - lo) + 1, pref.Weight, nil
	default:
		return 0, 0, fmt.Errorf("ranking: unresolvable preference kind %d", kind)
	}
}

// RankTopK runs Algorithm 2 for the profile, exactly determining the
// first k ranks (all of them when k ≤ 0 or k ≥ n). The Result carries
// the block-aligned solved prefix in Order/OrderIdx — at least min(k, n)
// entries, possibly more — and omits the Individual/Gamma diagnostics
// and the Kemeny cost, which are full-permutation artifacts the serving
// path never reads. FootruleCost is the cost of the solved prefix
// blocks (the full minimized objective when the solve was unbounded).
// The answer depends only on the matrix, prof and k.
//
// The third argument is unused; pass nil. It stays only so that callers
// in the separately versioned bench module keep compiling, and goes with
// their next change.
func (cr *ColumnarRanker) RankTopK(prof Profile, k int, _ []int) (*Result, error) {
	m := cr.cols.matrix
	n, mFeat := len(m.Places), len(m.Features)
	if k <= 0 || k > n {
		k = n
	}

	weightByName := make(map[string]int, mFeat)
	sc := colScratchPool.Get().(*colScratch)
	if cap(sc.iters) < mFeat {
		sc.iters = make([]colOrderIter, mFeat)
	}
	sc.iters = sc.iters[:mFeat]
	iters := sc.iterRefs[:0]
	weights := sc.weights[:0]
	for j := 0; j < mFeat; j++ {
		u, w, err := cr.resolve(j, prof)
		if err != nil {
			colScratchPool.Put(sc)
			return nil, err
		}
		weightByName[m.Features[j].Name] = w
		// Zero-weight features never affect cuts and contribute +0.0 to
		// every edge cost, so dropping them here is bit-identical to the
		// materialized path that carries them through.
		if w > 0 {
			it := &sc.iters[j]
			it.reset(&cr.cols.cols[j], u)
			iters = append(iters, it)
			weights = append(weights, float64(w))
		}
	}
	sc.iterRefs, sc.weights = iters, weights

	res := &Result{Weights: weightByName}
	if len(iters) == 0 {
		colScratchPool.Put(sc)
		// Same degenerate-case convention as Ranker.Rank: identity order.
		res.OrderIdx = make([]int, k)
		for i := range res.OrderIdx {
			res.OrderIdx[i] = i
		}
		res.Solved = k
	} else {
		agg, err := rankagg.AggregatePrefix(iters, weights, n, k, &sc.prefix)
		if err != nil {
			colScratchPool.Put(sc)
			return nil, err
		}
		// The scratch owns agg.Prefix; copy the prefix out before the
		// scratch returns to the pool.
		res.OrderIdx = append([]int(nil), agg.Prefix[:agg.Solved]...)
		res.Solved = agg.Solved
		res.FootruleCost = agg.Cost
		// A rare unbounded solve leaves an n²-cell cost matrix in the
		// scratch; don't pin that in the pool.
		sc.prefix.TrimCost(1 << 20)
		colScratchPool.Put(sc)
	}
	res.Order = make([]string, len(res.OrderIdx))
	for pos, idx := range res.OrderIdx {
		res.Order[pos] = m.Places[idx]
	}
	return res, nil
}
