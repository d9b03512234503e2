package ranking

import (
	"fmt"
	"math/rand"
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
// contents, same query results.
func TestColumnSetMergeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(50)
		mFeat := 1 + rng.Intn(4)
		m := randomTieHeavyMatrix(rng, n, mFeat)
		inc, err := NewColumnarRanker(m)
		if err != nil {
			t.Fatal(err)
		}
		aliased := 0
		for step := 0; step < 4; step++ {
			next, dirty := mutateRows(rng, m)
			inc, err = inc.Merge(next, dirty)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			aliased += inc.Aliased()
			m = next
		}
		fresh, err := NewColumnarRanker(m)
		if err != nil {
			t.Fatal(err)
		}
		for j := range fresh.cols.cols {
			fc, ic := fresh.cols.cols[j], inc.cols.cols[j]
			for p := 0; p < n; p++ {
				if fc.idx[p] != ic.idx[p] || fc.val[p] != ic.val[p] {
					t.Fatalf("trial %d col %d pos %d: incremental (%d,%v) != fresh (%d,%v)",
						trial, j, p, ic.idx[p], ic.val[p], fc.idx[p], fc.val[p])
				}
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
}

// TestColumnSetMergeAliasesCleanColumns: merging a delta that touches only
// one feature must alias every other column to the previous arena (same
// backing array, not just equal contents).
func TestColumnSetMergeAliasesCleanColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n, mFeat := 64, 4
	m := randomTieHeavyMatrix(rng, n, mFeat)
	base, err := NewColumnSet(m)
	if err != nil {
		t.Fatal(err)
	}
	next := &Matrix{Places: m.Places, Features: m.Features, Values: make([][]float64, n)}
	for i := range next.Values {
		next.Values[i] = append([]float64(nil), m.Values[i]...)
	}
	next.Values[17][2] = 12345.5 // touch a single cell of feature 2
	merged, err := base.Merge(next, []int{17})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Aliased() != mFeat-1 {
		t.Fatalf("aliased %d columns, want %d", merged.Aliased(), mFeat-1)
	}
	for j := 0; j < mFeat; j++ {
		same := &merged.cols[j].idx[0] == &base.cols[j].idx[0]
		if j == 2 && same {
			t.Fatal("changed column 2 still aliases the old arena")
		}
		if j != 2 && !same {
			t.Fatalf("unchanged column %d was rebuilt instead of aliased", j)
		}
	}
	// The conservative case: a dirty row whose values are unchanged must
	// alias everything.
	noop, err := base.Merge(m, []int{3, 9})
	if err != nil {
		t.Fatal(err)
	}
	if noop.Aliased() != mFeat {
		t.Fatalf("no-op merge aliased %d, want all %d", noop.Aliased(), mFeat)
	}
}

// TestColumnSetMergeRejectsShapeChange: membership changes must refuse to
// merge so the caller falls back to a full build.
func TestColumnSetMergeRejectsShapeChange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomTieHeavyMatrix(rng, 10, 2)
	cs, err := NewColumnSet(m)
	if err != nil {
		t.Fatal(err)
	}
	grown := randomTieHeavyMatrix(rng, 11, 2)
	if _, err := cs.Merge(grown, nil); err == nil {
		t.Fatal("merge accepted a place-count change")
	}
	renamed := randomTieHeavyMatrix(rng, 10, 2)
	renamed.Places[4] = "other"
	if _, err := cs.Merge(renamed, []int{4}); err == nil {
		t.Fatal("merge accepted a renamed place")
	}
	if _, err := cs.Merge(m, []int{10}); err == nil {
		t.Fatal("merge accepted an out-of-range dirty row")
	}
}

func BenchmarkColumnarMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2000, 10000} {
		m := randomTieHeavyMatrix(rng, n, 4)
		cs, err := NewColumnSet(m)
		if err != nil {
			b.Fatal(err)
		}
		next, dirty := mutateRows(rng, m)
		b.Run(fmt.Sprintf("places=%d/dirty=%d", n, len(dirty)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cs.Merge(next, dirty); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
