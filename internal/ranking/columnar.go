// Columnar rank core: the struct-of-arrays epoch representation behind
// the 10k-place read path. A ColumnSet is a shared base plus a small
// overlay. The base holds every feature column presorted into one arena
// (int32 place indices + float64 values, packed column-major) and every
// value row in another; the overlay holds only the rows changed since the
// base was built — their values in one slab, and per column those rows
// sorted the same way — plus an n-bit mask naming them. Epoch N+1 derives
// from epoch N by Patch, which shares N's base and copies N's overlay
// with the changed rows merged in: O((R + d)·m) for R overlay rows and d
// changed ones, plus the mask. When the overlay would outgrow a cap fixed
// by n (⌈2√n⌉ rows) the patch compacts it into new base arenas with one
// linear merge per column, so a patch costs O((√n + d)·m) amortised, not
// O(n·m). NewColumnSet is that compaction over an empty base. Every run
// orders by (value asc, place index asc) — a total order — so a patched
// epoch reads bit-identically to a fresh build.
//
// Arenas and slabs are immutable once built and freed only by the
// garbage collector when no ColumnSet refers to them anymore, so a query
// reading a superseded epoch can never observe a torn or freed column.
package ranking

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"sor/internal/rankagg"
)

// column is one run of place indices and their values, ordered by
// (value, index).
type column struct {
	idx []int32
	val []float64
}

// before reports whether entry p of a orders before entry q of b.
func before(a column, p int, b column, q int) bool {
	if a.val[p] != b.val[q] {
		return a.val[p] < b.val[q]
	}
	return a.idx[p] < b.idx[q]
}

// entry is one cell of a column while it is sorted.
type entry struct {
	val float64
	idx int32
}

func compareEntries(a, b entry) int {
	if a.val != b.val {
		if a.val < b.val {
			return -1
		}
		return 1
	}
	return int(a.idx - b.idx)
}

// mergeRun fills dst with run, less the entries skip names, merged with
// add. The caller sizes dst to exactly the entries that remain.
func mergeRun(dst, run, add column, skip func(int32) bool) {
	p, q := 0, 0
	for w := range dst.idx {
		for p < len(run.idx) && skip(run.idx[p]) {
			p++
		}
		if p < len(run.idx) && (q == len(add.idx) || before(run, p, add, q)) {
			dst.idx[w], dst.val[w] = run.idx[p], run.val[p]
			p++
		} else {
			dst.idx[w], dst.val[w] = add.idx[q], add.val[q]
			q++
		}
	}
}

// ColumnSet is the columnar form of one epoch's feature matrix.
type ColumnSet struct {
	places   []string
	features []Feature
	vals     []float64 // base rows, row-major: row i is vals[i*m : (i+1)*m]
	base     []column  // per feature, every base row by (value, index)
	ov       *overlay  // rows changed since the base was built; nil when none
	lo, hi   []float64 // per feature, the first and last value of the epoch's run
}

// overlay is the part of an epoch not in its base. Patch copies it whole,
// so it never grows past overlayCap rows plus one patch's.
type overlay struct {
	mask []uint64  // bit i set: row i's values live here, not in the base
	rows []int32   // the overlay's rows, ascending
	vals []float64 // row rows[k] is vals[k*m : (k+1)*m]
	cols []column  // per feature, the overlay's rows by (value, index)
}

func (ov *overlay) has(i int32) bool { return ov.mask[i>>6]&(1<<(uint(i)&63)) != 0 }

// overlayCap is the most rows an overlay over n places keeps before a
// patch compacts it into the base.
func overlayCap(n int) int { return int(math.Ceil(2 * math.Sqrt(float64(n)))) }

// NewColumnSet presorts every column of m into fresh base arenas.
func NewColumnSet(m *Matrix) (*ColumnSet, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n, mFeat := len(m.Places), len(m.Features)
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("ranking: %d places overflow the columnar index type", n)
	}
	rows := make([]int32, n)
	vals := make([]float64, 0, n*mFeat)
	for i, row := range m.Values {
		rows[i] = int32(i)
		vals = append(vals, row...)
	}
	empty := &ColumnSet{places: m.Places, features: m.Features, base: make([]column, mFeat)}
	return empty.patch(rows, vals), nil
}

// row returns place i's values in this epoch.
func (cs *ColumnSet) row(i int) []float64 {
	m := len(cs.features)
	if ov := cs.ov; ov != nil && ov.has(int32(i)) {
		k, _ := slices.BinarySearch(ov.rows, int32(i))
		return ov.vals[k*m : (k+1)*m : (k+1)*m]
	}
	return cs.vals[i*m : (i+1)*m : (i+1)*m]
}

// patch derives the epoch with rows (ascending, distinct, each changed)
// set to vals, row-major. It compacts when the overlay would pass its cap
// or would hold every row.
func (cs *ColumnSet) patch(rows []int32, vals []float64) *ColumnSet {
	n, m := len(cs.places), len(cs.features)
	old := cs.ov
	if old == nil {
		old = &overlay{cols: make([]column, m)}
	}
	ov := &overlay{mask: make([]uint64, (n+63)/64)}
	copy(ov.mask, old.mask)
	ov.rows = make([]int32, 0, len(old.rows)+len(rows))
	ov.vals = make([]float64, 0, cap(ov.rows)*m)
	for p, q := 0, 0; p < len(old.rows) || q < len(rows); {
		if q == len(rows) || (p < len(old.rows) && old.rows[p] < rows[q]) {
			ov.rows = append(ov.rows, old.rows[p])
			ov.vals = append(ov.vals, old.vals[p*m:(p+1)*m]...)
			p++
			continue
		}
		if p < len(old.rows) && old.rows[p] == rows[q] {
			p++
		}
		i := rows[q]
		ov.mask[i>>6] |= 1 << (uint(i) & 63)
		ov.rows = append(ov.rows, i)
		ov.vals = append(ov.vals, vals[q*m:(q+1)*m]...)
		q++
	}

	r := len(ov.rows)
	ov.cols = make([]column, m)
	idxArena, valArena := make([]int32, r*m), make([]float64, r*m)
	add := column{idx: make([]int32, len(rows)), val: make([]float64, len(rows))}
	sorted := make([]entry, len(rows))
	replaced := func(i int32) bool { _, ok := slices.BinarySearch(rows, i); return ok }
	for j := range ov.cols {
		for q, i := range rows {
			sorted[q] = entry{vals[q*m+j], i}
		}
		slices.SortFunc(sorted, compareEntries)
		for q, e := range sorted {
			add.val[q], add.idx[q] = e.val, e.idx
		}
		ov.cols[j] = column{idx: idxArena[j*r : (j+1)*r : (j+1)*r], val: valArena[j*r : (j+1)*r : (j+1)*r]}
		mergeRun(ov.cols[j], old.cols[j], add, replaced)
	}

	out := &ColumnSet{places: cs.places, features: cs.features, vals: cs.vals, base: cs.base, ov: ov}
	if r == n || r > overlayCap(n) {
		out = out.compact()
	}
	out.extremes()
	return out
}

// compact folds the overlay into new base arenas: one linear merge per
// column and one copy of the value rows. An overlay of every row is laid
// out as a base already, so it becomes one as it is.
func (cs *ColumnSet) compact() *ColumnSet {
	n, m := len(cs.places), len(cs.features)
	ov := cs.ov
	if len(ov.rows) == n {
		return &ColumnSet{places: cs.places, features: cs.features, vals: ov.vals, base: ov.cols}
	}
	out := &ColumnSet{places: cs.places, features: cs.features, vals: make([]float64, n*m), base: make([]column, m)}
	copy(out.vals, cs.vals)
	for k, i := range ov.rows {
		copy(out.vals[int(i)*m:], ov.vals[k*m:(k+1)*m])
	}
	idxArena, valArena := make([]int32, n*m), make([]float64, n*m)
	for j := range out.base {
		out.base[j] = column{idx: idxArena[j*n : (j+1)*n : (j+1)*n], val: valArena[j*n : (j+1)*n : (j+1)*n]}
		mergeRun(out.base[j], cs.base[j], ov.cols[j], ov.has)
	}
	return out
}

// extremes records each column's first and last value, so resolve reads
// two cells per feature whatever the overlay holds.
func (cs *ColumnSet) extremes() {
	m := len(cs.features)
	ext := make([]float64, 2*m)
	cs.lo, cs.hi = ext[:m:m], ext[m:]
	for j, b := range cs.base {
		lo, hi := 0, len(b.idx)-1
		var o column
		if cs.ov != nil {
			for ; lo <= hi && cs.ov.has(b.idx[lo]); lo++ {
			}
			for ; hi >= lo && cs.ov.has(b.idx[hi]); hi-- {
			}
			o = cs.ov.cols[j]
		}
		switch last := len(o.idx) - 1; {
		case lo > hi:
			cs.lo[j], cs.hi[j] = o.val[0], o.val[last]
		case last < 0:
			cs.lo[j], cs.hi[j] = b.val[lo], b.val[hi]
		default:
			cs.lo[j], cs.hi[j] = b.val[lo], b.val[hi]
			if before(o, 0, b, lo) {
				cs.lo[j] = o.val[0]
			}
			if before(b, hi, o, last) {
				cs.hi[j] = o.val[last]
			}
		}
	}
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

// Patch derives the next epoch's ranker: place dirty[k]'s row becomes
// rows[k] (copied; a place listed twice takes its last row), every other
// row is kept. Rows that come out bit-identical to this epoch's are
// dropped, so a conservative dirty set costs nothing extra.
func (cr *ColumnarRanker) Patch(dirty []int, rows [][]float64) (*ColumnarRanker, error) {
	cs := cr.cols
	n, m := len(cs.places), len(cs.features)
	if len(rows) != len(dirty) {
		return nil, fmt.Errorf("ranking: %d rows for %d dirty places", len(rows), len(dirty))
	}
	order := make([]int, len(dirty))
	for k, i := range dirty {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("ranking: dirty row %d out of range [0,%d)", i, n)
		}
		if len(rows[k]) != m {
			return nil, fmt.Errorf("ranking: row %d has %d values for %d features", i, len(rows[k]), m)
		}
		for j, v := range rows[k] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("ranking: invalid H[%d][%d] = %v", i, j, v)
			}
		}
		order[k] = k
	}
	slices.SortStableFunc(order, func(a, b int) int { return dirty[a] - dirty[b] })
	changed := make([]int32, 0, len(order))
	vals := make([]float64, 0, len(order)*m)
	for x, k := range order {
		i := dirty[k]
		if x+1 < len(order) && dirty[order[x+1]] == i {
			continue // a later row for the same place wins
		}
		if !sameBits(rows[k], cs.row(i)) {
			changed = append(changed, int32(i))
			vals = append(vals, rows[k]...)
		}
	}
	if len(changed) == 0 {
		return cr, nil
	}
	return &ColumnarRanker{cols: cs.patch(changed, vals)}, nil
}

func sameBits(a, b []float64) bool {
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// Merge derives the next epoch's ranker from a whole matrix over the same
// places and features, given the rows that may have changed. Every other
// row must be this epoch's row or bit-equal to it. It is Patch for
// callers that hold a matrix; new code should call Patch.
func (cr *ColumnarRanker) Merge(m *Matrix, dirty []int) (*ColumnarRanker, error) {
	cs := cr.cols
	n, mFeat := len(cs.places), len(cs.features)
	if m == nil || len(m.Places) != n || len(m.Features) != mFeat || len(m.Values) != n {
		return nil, fmt.Errorf("ranking: merge shape changed (%d×%d)", n, mFeat)
	}
	for i, p := range m.Places {
		if cs.places[i] != p {
			return nil, fmt.Errorf("ranking: merge place set changed at row %d (%q → %q)", i, cs.places[i], p)
		}
	}
	for j, f := range m.Features {
		if cs.features[j].Name != f.Name {
			return nil, fmt.Errorf("ranking: merge feature set changed at column %d", j)
		}
	}
	rows := make([][]float64, len(dirty))
	isDirty := make([]bool, n)
	for k, i := range dirty {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("ranking: dirty row %d out of range [0,%d)", i, n)
		}
		rows[k], isDirty[i] = m.Values[i], true
	}
	for i, row := range m.Values {
		if isDirty[i] {
			continue
		}
		cur := cs.row(i)
		if len(row) != mFeat || (&row[0] != &cur[0] && !sameBits(row, cur)) {
			return nil, fmt.Errorf("ranking: row %d changed but is not dirty", i)
		}
	}
	return cr.Patch(dirty, rows)
}

// Places returns the epoch's places, in row order (not to be mutated).
func (cr *ColumnarRanker) Places() []string { return cr.cols.places }

// Row returns place i's feature values (not to be mutated).
func (cr *ColumnarRanker) Row(i int) []float64 { return cr.cols.row(i) }

// Column returns feature column j's sorted run — place indices and their
// values, ascending (not to be mutated). Differential tests compare a
// patched epoch with a from-scratch build through it; it allocates the
// merged run when the epoch has an overlay.
func (cr *ColumnarRanker) Column(j int) (idx []int32, val []float64) {
	cs := cr.cols
	if cs.ov == nil {
		return cs.base[j].idx, cs.base[j].val
	}
	n := len(cs.places)
	c := column{idx: make([]int32, n), val: make([]float64, n)}
	mergeRun(c, cs.base[j], cs.ov.cols[j], cs.ov.has)
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
// same outward two-pointer merge as Ranker.individualOrder, walking the
// base run and the overlay run side by side and skipping base entries
// the overlay replaced. Each Γ-tie group is buffered and sorted before
// emission, so the emission order is bit-identical to the materialized
// walk. Next may be called at most n times.
type colOrderIter struct {
	base   *column
	ov     *column  // nil when the epoch has no overlay
	mask   []uint64 // the overlay's rows; nil with ov
	u      float64
	l, r   int   // base frontiers
	ol, or int   // overlay frontiers
	buf    []int // current tie group, ascending
	pos    int
}

func (it *colOrderIter) reset(cs *ColumnSet, j int, u float64) {
	it.base, it.u = &cs.base[j], u
	it.r = sort.SearchFloat64s(it.base.val, u)
	it.l = it.r - 1
	it.ov, it.mask = nil, nil
	if ov := cs.ov; ov != nil {
		it.ov, it.mask = &ov.cols[j], ov.mask
		it.or = sort.SearchFloat64s(it.ov.val, u)
		it.ol = it.or - 1
	}
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

// masked reports whether base entry i was replaced by the overlay.
func (it *colOrderIter) masked(i int32) bool {
	return it.mask != nil && it.mask[i>>6]&(1<<(uint(i)&63)) != 0
}

// fill gathers the next Γ-tie group from all frontiers. Along each side
// of u, Γ is monotone in the sorted order, so a tie group is a prefix of
// each frontier's remaining run.
func (it *colOrderIter) fill() {
	b, u := it.base, it.u
	for it.l >= 0 && it.masked(b.idx[it.l]) {
		it.l--
	}
	for it.r < len(b.idx) && it.masked(b.idx[it.r]) {
		it.r++
	}
	g := math.Inf(1)
	if it.l >= 0 {
		g = math.Abs(b.val[it.l] - u)
	}
	if it.r < len(b.idx) {
		g = math.Min(g, math.Abs(b.val[it.r]-u))
	}
	o := it.ov
	if o != nil {
		if it.ol >= 0 {
			g = math.Min(g, math.Abs(o.val[it.ol]-u))
		}
		if it.or < len(o.idx) {
			g = math.Min(g, math.Abs(o.val[it.or]-u))
		}
	}
	it.buf = it.buf[:0]
	for ; it.l >= 0 && math.Abs(b.val[it.l]-u) == g; it.l-- {
		if i := b.idx[it.l]; !it.masked(i) {
			it.buf = append(it.buf, int(i))
		}
	}
	for ; it.r < len(b.idx) && math.Abs(b.val[it.r]-u) == g; it.r++ {
		if i := b.idx[it.r]; !it.masked(i) {
			it.buf = append(it.buf, int(i))
		}
	}
	if o != nil {
		for ; it.ol >= 0 && math.Abs(o.val[it.ol]-u) == g; it.ol-- {
			it.buf = append(it.buf, int(o.idx[it.ol]))
		}
		for ; it.or < len(o.idx) && math.Abs(o.val[it.or]-u) == g; it.or++ {
			it.buf = append(it.buf, int(o.idx[it.or]))
		}
	}
	sort.Ints(it.buf)
	it.pos = 0
}

// resolve mirrors Ranker.resolve using the column extremes.
func (cr *ColumnarRanker) resolve(j int, prof Profile) (value float64, weight int, err error) {
	cs := cr.cols
	f := cs.features[j]
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
	lo, hi := cs.lo[j], cs.hi[j]
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
	cs := cr.cols
	n, mFeat := len(cs.places), len(cs.features)
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
		weightByName[cs.features[j].Name] = w
		// Zero-weight features never affect cuts and contribute +0.0 to
		// every edge cost, so dropping them here is bit-identical to the
		// materialized path that carries them through.
		if w > 0 {
			it := &sc.iters[j]
			it.reset(cs, j, u)
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
		res.Order[pos] = cs.places[idx]
	}
	return res, nil
}
