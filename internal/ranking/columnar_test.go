package ranking

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomProfile mixes value/min/max/default preferences with weights
// 0..5, occasionally all-zero.
func randomProfile(rng *rand.Rand, m *Matrix, allZero bool) Profile {
	prof := Profile{Name: "diff", Prefs: map[string]Preference{}}
	for j, f := range m.Features {
		w := rng.Intn(MaxWeight + 1)
		if allZero {
			w = 0
		}
		var p Preference
		switch rng.Intn(4) {
		case 0:
			p = Preference{Kind: PrefValue, Value: randomPreferredValue(rng, m, j), Weight: w}
		case 1:
			p = Preference{Kind: PrefMin, Weight: w}
		case 2:
			p = Preference{Kind: PrefMax, Weight: w}
		default:
			p = Preference{Kind: PrefDefault, Weight: w}
		}
		prof.Prefs[f.Name] = p
	}
	return prof
}

// TestColumnarTopKMatchesFullRanker is the differential property test: on
// tie-heavy random matrices (including all-zero-weight profiles) the
// columnar top-k prefix must equal the full Ranker's result prefix
// exactly, for k ∈ {1, 5, n}.
func TestColumnarTopKMatchesFullRanker(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(40)
		mFeat := 1 + rng.Intn(4)
		m := randomTieHeavyMatrix(rng, n, mFeat)
		full, err := NewRanker(m)
		if err != nil {
			t.Fatal(err)
		}
		colr, err := NewColumnarRanker(m)
		if err != nil {
			t.Fatal(err)
		}
		prof := randomProfile(rng, m, trial%10 == 0)
		want, err := full.Rank(prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 5, n} {
			if k > n {
				continue
			}
			got, err := colr.RankTopK(prof, k, nil)
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			if got.Solved < k {
				t.Fatalf("trial %d k=%d: solved only %d", trial, k, got.Solved)
			}
			for r := 0; r < got.Solved; r++ {
				if got.OrderIdx[r] != want.OrderIdx[r] {
					t.Fatalf("trial %d k=%d rank %d: columnar %d (%s) != full %d (%s)",
						trial, k, r, got.OrderIdx[r], got.Order[r],
						want.OrderIdx[r], want.Order[r])
				}
				if got.Order[r] != want.Order[r] {
					t.Fatalf("trial %d k=%d rank %d: name mismatch", trial, k, r)
				}
			}
		}
		// k = n (or 0) must reproduce the full permutation and cost.
		got, err := colr.RankTopK(prof, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Solved != n {
			t.Fatalf("trial %d: full columnar solve stopped at %d/%d", trial, got.Solved, n)
		}
		if got.FootruleCost != want.FootruleCost {
			t.Fatalf("trial %d: columnar cost %v != full cost %v", trial, got.FootruleCost, want.FootruleCost)
		}
	}
}

// mutateRows changes a random subset of rows in place, returning the new
// matrix and the dirty row set (as the server's rebuild would supply it).
func mutateRows(rng *rand.Rand, m *Matrix) (*Matrix, []int) {
	n, mFeat := len(m.Places), len(m.Features)
	next := &Matrix{Places: m.Places, Features: m.Features, Values: make([][]float64, n)}
	for i := range next.Values {
		next.Values[i] = append([]float64(nil), m.Values[i]...)
	}
	nd := 1 + rng.Intn(n)
	seen := map[int]bool{}
	var dirty []int
	for len(dirty) < nd {
		i := rng.Intn(n)
		if seen[i] {
			continue
		}
		seen[i] = true
		dirty = append(dirty, i)
		// Sometimes a dirty row keeps some (or all) of its values — the
		// conservative dirty set the store reports may include rows whose
		// re-derived features came out identical.
		for j := 0; j < mFeat; j++ {
			switch rng.Intn(3) {
			case 0:
			case 1:
				next.Values[i][j] = float64(rng.Intn(5))
			default:
				next.Values[i][j] = rng.NormFloat64() * 100
			}
		}
	}
	return next, dirty
}

// TestColumnSetMergeBitIdentical: chains of incremental merges must stay
// bit-identical to a from-scratch build of the final matrix — same column
// contents, same rows, same query results — across overlay compactions.
func TestColumnSetMergeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	compactions := 0
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(50)
		mFeat := 1 + rng.Intn(4)
		m := randomTieHeavyMatrix(rng, n, mFeat)
		inc, err := NewColumnarRanker(m)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 6; step++ {
			next, dirty := mutateRows(rng, m)
			prev := inc
			inc, err = inc.Merge(next, dirty)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if inc.cols.ov == nil && &inc.cols.vals[0] != &prev.cols.vals[0] {
				compactions++
			}
			m = next
		}
		fresh, err := NewColumnarRanker(m)
		if err != nil {
			t.Fatal(err)
		}
		for j := range m.Features {
			fi, fv := fresh.Column(j)
			ii, iv := inc.Column(j)
			for p := 0; p < n; p++ {
				if fi[p] != ii[p] || math.Float64bits(fv[p]) != math.Float64bits(iv[p]) {
					t.Fatalf("trial %d col %d pos %d: incremental (%d,%v) != fresh (%d,%v)",
						trial, j, p, ii[p], iv[p], fi[p], fv[p])
				}
			}
		}
		for i := 0; i < n; i++ {
			if !sameBits(inc.Row(i), m.Values[i]) {
				t.Fatalf("trial %d row %d: incremental %v != matrix %v", trial, i, inc.Row(i), m.Values[i])
			}
		}
		prof := randomProfile(rng, m, false)
		a, err := inc.RankTopK(prof, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.RankTopK(prof, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for r := range b.OrderIdx {
			if a.OrderIdx[r] != b.OrderIdx[r] {
				t.Fatalf("trial %d rank %d: incremental %d != fresh %d", trial, r, a.OrderIdx[r], b.OrderIdx[r])
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no merge compacted its overlay")
	}
}

// TestPatchSharesBaseRuns: a patched epoch shares its parent's base
// arenas — columns and value rows — and copies only the overlay, until
// the overlay passes its cap and the patch compacts it into new arenas.
func TestPatchSharesBaseRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, mFeat = 64, 4
	m := randomTieHeavyMatrix(rng, n, mFeat)
	root, err := NewColumnarRanker(m)
	if err != nil {
		t.Fatal(err)
	}
	sameBase := func(a, b *ColumnarRanker) bool {
		for j := range a.cols.base {
			if &a.cols.base[j].idx[0] != &b.cols.base[j].idx[0] || &a.cols.base[j].val[0] != &b.cols.base[j].val[0] {
				return false
			}
		}
		return &a.cols.vals[0] == &b.cols.vals[0]
	}
	cr := root
	for i := 0; i <= overlayCap(n)+1; i++ {
		row := []float64{float64(i) + 0.25, -float64(i), 12345.5, 0}
		next, err := cr.Patch([]int{i}, [][]float64{row})
		if err != nil {
			t.Fatal(err)
		}
		m.Values[i] = row
		if !sameBits(next.Row(i), row) || &next.Row(i)[0] == &row[0] {
			t.Fatalf("patch %d: row %v, want a copy of %v", i, next.Row(i), row)
		}
		if i < overlayCap(n) {
			if !sameBase(next, root) || len(next.cols.ov.rows) != i+1 {
				t.Fatalf("patch %d of %d under the cap rebuilt the base", i, overlayCap(n))
			}
			for k := i + 1; k < n; k++ {
				if &next.Row(k)[0] != &root.Row(k)[0] {
					t.Fatalf("patch %d: unchanged base row %d was copied", i, k)
				}
			}
		} else if i == overlayCap(n) {
			if sameBase(next, root) || next.cols.ov != nil {
				t.Fatalf("patch %d passed the cap %d and did not compact", i, overlayCap(n))
			}
		} else if !sameBase(next, cr) {
			t.Fatalf("patch %d after the compaction rebuilt the base", i)
		}
		fresh, err := NewColumnarRanker(m)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < mFeat; j++ {
			gi, gv := next.Column(j)
			wi, wv := fresh.Column(j)
			if !slices.Equal(gi, wi) || !slices.Equal(gv, wv) {
				t.Fatalf("patch %d column %d: %v %v, fresh %v %v", i, j, gi, gv, wi, wv)
			}
		}
		cr = next
	}
	// A dirty row that kept its values patches nothing.
	same, err := cr.Patch([]int{3, 9}, [][]float64{cr.Row(3), append([]float64(nil), cr.Row(9)...)})
	if err != nil {
		t.Fatal(err)
	}
	if same.cols != cr.cols {
		t.Fatal("a patch of unchanged rows built a new epoch")
	}
}

// TestMergeCollapsesRepeatedDirtyRows: a place listed twice as dirty is
// one changed row, not two entries in its columns.
func TestMergeCollapsesRepeatedDirtyRows(t *testing.T) {
	m := &Matrix{Places: []string{"a", "b", "c", "d"}, Features: []Feature{{Name: "f", Default: Preference{Kind: PrefMin, Weight: 1}}},
		Values: [][]float64{{0}, {1}, {2}, {3}}}
	cr, err := NewColumnarRanker(m)
	if err != nil {
		t.Fatal(err)
	}
	next := &Matrix{Places: m.Places, Features: m.Features, Values: [][]float64{m.Values[0], m.Values[1], {-1}, m.Values[3]}}
	got, err := cr.Merge(next, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if idx, _ := got.Column(0); !slices.Equal(idx, []int32{2, 0, 1, 3}) {
		t.Fatalf("column %v, want [2 0 1 3]", idx)
	}
	res, err := got.RankTopK(Profile{Name: "p"}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.OrderIdx, []int{2, 0, 1, 3}) {
		t.Fatalf("order %v, want [2 0 1 3]", res.OrderIdx)
	}
}

// TestMergeRefusesChangedCleanRow: a row that changed but is not listed as
// dirty is refused, not served with its stale column entry.
func TestMergeRefusesChangedCleanRow(t *testing.T) {
	m := &Matrix{Places: []string{"a", "b", "c", "d"}, Features: []Feature{{Name: "f", Default: Preference{Kind: PrefMin, Weight: 1}}},
		Values: [][]float64{{0}, {1}, {2}, {3}}}
	cr, err := NewColumnarRanker(m)
	if err != nil {
		t.Fatal(err)
	}
	next := &Matrix{Places: m.Places, Features: m.Features, Values: [][]float64{{0}, {1}, {2}, {-7}}}
	if got, err := cr.Merge(next, []int{0}); err == nil {
		idx, val := got.Column(0)
		t.Fatalf("merge accepted an undeclared change: column %v %v", idx, val)
	}
	// A clean row that is a bit-equal copy is fine.
	if _, err := cr.Merge(&Matrix{Places: m.Places, Features: m.Features, Values: [][]float64{{5}, {1}, {2}, {3}}}, []int{0}); err != nil {
		t.Fatal(err)
	}
}

// TestColumnSetMergeRejectsShapeChange: membership changes must refuse to
// merge so the caller falls back to a full build.
func TestColumnSetMergeRejectsShapeChange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomTieHeavyMatrix(rng, 10, 2)
	cr, err := NewColumnarRanker(m)
	if err != nil {
		t.Fatal(err)
	}
	grown := randomTieHeavyMatrix(rng, 11, 2)
	if _, err := cr.Merge(grown, nil); err == nil {
		t.Fatal("merge accepted a place-count change")
	}
	renamed := randomTieHeavyMatrix(rng, 10, 2)
	renamed.Places[4] = "other"
	if _, err := cr.Merge(renamed, []int{4}); err == nil {
		t.Fatal("merge accepted a renamed place")
	}
	if _, err := cr.Merge(m, []int{10}); err == nil {
		t.Fatal("merge accepted an out-of-range dirty row")
	}
	if _, err := cr.Patch([]int{1}, [][]float64{{1, math.NaN()}}); err == nil {
		t.Fatal("patch accepted a NaN cell")
	}
	if _, err := cr.Patch([]int{1}, [][]float64{{1}}); err == nil {
		t.Fatal("patch accepted a short row")
	}
}

func BenchmarkColumnarPatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2000, 10000} {
		m := randomTieHeavyMatrix(rng, n, 4)
		cr, err := NewColumnarRanker(m)
		if err != nil {
			b.Fatal(err)
		}
		next, dirty := mutateRows(rng, m)
		rows := make([][]float64, len(dirty))
		for k, i := range dirty {
			rows[k] = next.Values[i]
		}
		b.Run(fmt.Sprintf("places=%d/dirty=%d", n, len(dirty)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cr.Patch(dirty, rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
