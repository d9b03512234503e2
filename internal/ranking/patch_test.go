package ranking

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

var maskSink []uint64

// allocatedBytes reports the fewest bytes allocated over three runs of f,
// which must allocate the same on every run. TotalAlloc counts every
// goroutine's allocations, so a single run can read another's as its own.
func allocatedBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestEpochPatchCostIndependentOfPlaces gates what an 8-row patch costs at
// 2 000 and at 100 000 places. The dirty rows rotate over more rows than
// either overlay cap, so both sizes compact. A patch that does not compact
// allocates the same bytes at both sizes apart from the n-bit mask, and
// the mean over every patch, compactions included, grows far slower than
// n.
func TestEpochPatchCostIndependentOfPlaces(t *testing.T) {
	const patches, dirtyRows, mFeat = 1000, 8, 4
	const small, large = 2000, 100000
	rotate := 2 * overlayCap(large)
	type cost struct {
		mean        float64
		byOverlay   map[int]uint64 // non-compacting patch bytes by overlay rows before it
		compactions int
	}
	measure := func(n int) cost {
		rng := rand.New(rand.NewSource(7))
		m := randomTieHeavyMatrix(rng, n, mFeat)
		cr, err := NewColumnarRanker(m)
		if err != nil {
			t.Fatal(err)
		}
		c := cost{byOverlay: map[int]uint64{}}
		dirty := make([]int, dirtyRows)
		rows := make([][]float64, dirtyRows)
		for k := range rows {
			rows[k] = make([]float64, mFeat)
		}
		var total uint64
		for p := 0; p < patches; p++ {
			for k := range dirty {
				dirty[k] = (p*dirtyRows + k) % rotate * (n / rotate)
				for j := range rows[k] {
					rows[k][j] = math.Round(rng.NormFloat64()*100) / 4
				}
			}
			r := 0
			if cr.cols.ov != nil {
				r = len(cr.cols.ov.rows)
			}
			var next *ColumnarRanker
			b := allocatedBytes(func() { next, err = cr.Patch(dirty, rows) })
			if err != nil {
				t.Fatal(err)
			}
			if next.cols.ov == nil {
				c.compactions++
			} else if _, seen := c.byOverlay[r]; !seen {
				c.byOverlay[r] = b
			}
			total += b
			cr = next
		}
		c.mean = float64(total) / patches
		return c
	}
	maskBytes := func(n int) uint64 {
		return allocatedBytes(func() { maskSink = make([]uint64, (n+63)/64) })
	}
	a, b := measure(small), measure(large)
	if a.compactions == 0 || b.compactions == 0 {
		t.Fatalf("compactions: %d at %d places, %d at %d", a.compactions, small, b.compactions, large)
	}
	maskDiff := maskBytes(large) - maskBytes(small)
	compared := 0
	for r, bs := range a.byOverlay {
		bl, ok := b.byOverlay[r]
		if !ok {
			continue
		}
		compared++
		if bl-bs != maskDiff {
			t.Fatalf("a patch over %d overlay rows allocates %d B at %d places and %d B at %d; only the mask (%d B more) may differ",
				r, bs, small, bl, large, maskDiff)
		}
	}
	if compared < 5 {
		t.Fatalf("only %d overlay sizes patched without compacting at both sizes", compared)
	}
	if b.mean > 15*a.mean {
		t.Fatalf("a patch allocates %.0f B on average at %d places, %.1f× the %.0f B at %d (limit 15×)",
			b.mean, large, b.mean/a.mean, a.mean, small)
	}
	t.Logf("mean bytes per %d-row patch: %.0f at %d places (%d compactions), %.0f at %d (%d compactions): %.1f×; %d overlay sizes equal up to the mask",
		dirtyRows, a.mean, small, a.compactions, b.mean, large, b.compactions, b.mean/a.mean, compared)
}

// patchFuzzValues are the cells FuzzColumnPatch draws from: ties, both
// zeros, and magnitudes whose differences overflow or absorb.
var patchFuzzValues = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 2, 2, 3,
	1e15, -1e15, 1e15 + 1, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, 5e-324}

// FuzzColumnPatch drives a ranker through a sequence of patches — repeated
// places, unchanged rows, every row at once — over a small n, so the
// sequence crosses overlay compactions, and requires every epoch to read
// bit-identically to NewColumnarRanker over the same matrix: each
// column, each row, and RankTopK for drawn profiles and k.
func FuzzColumnPatch(f *testing.F) {
	f.Add([]byte{5, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 3, 2, 1, 1, 4, 4, 9, 0, 0})
	f.Add([]byte{12, 1, 0, 0, 0, 15, 14, 13, 1, 2, 3, 4, 5, 6, 7, 8, 200, 7, 9, 9, 9, 1, 3, 255, 2, 6, 6})
	f.Add([]byte{30, 3, 7, 7, 7, 11, 12, 13, 1, 1, 1, 4, 4, 4, 255, 0, 255, 0, 255, 0, 9, 9, 9, 9})
	// A column's minimum moving into the overlay, and a replaced base
	// entry left at a walk's frontier.
	f.Add([]byte("%00002000010000011000001200000000000000"))
	f.Add([]byte("%1000000000000700019011"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		value := func() float64 { return patchFuzzValues[next()%len(patchFuzzValues)] }
		n, mFeat := 1+next()%32, 1+next()%3
		m := &Matrix{Places: make([]string, n), Features: make([]Feature, mFeat), Values: make([][]float64, n)}
		for j := range m.Features {
			m.Features[j] = Feature{Name: string(rune('a' + j)), Default: Preference{Kind: PrefMax, Weight: 1}}
		}
		for i := range m.Values {
			m.Places[i] = string(rune('A' + i))
			m.Values[i] = make([]float64, mFeat)
			for j := range m.Values[i] {
				m.Values[i][j] = value()
			}
		}
		cr, err := NewColumnarRanker(m)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 8 && len(data) > 0; step++ {
			var dirty []int
			switch d := next(); {
			case d >= 250: // every row
				for i := 0; i < n; i++ {
					dirty = append(dirty, i)
				}
			default: // some rows, possibly repeated
				for k := 0; k <= d%(n+3); k++ {
					dirty = append(dirty, next()%n)
				}
			}
			rows := make([][]float64, len(dirty))
			for k, i := range dirty {
				rows[k] = append([]float64(nil), m.Values[i]...)
				if next()%4 != 0 { // else the row is unchanged
					for j := range rows[k] {
						rows[k][j] = value()
					}
				}
				m.Values[i] = rows[k]
			}
			if cr, err = cr.Patch(dirty, rows); err != nil {
				t.Fatal(err)
			}
			checkPatched(t, cr, m, next)
		}
	})
}

// checkPatched compares cr with a fresh build over m.
func checkPatched(t *testing.T, cr *ColumnarRanker, m *Matrix, next func() int) {
	t.Helper()
	want, err := NewColumnarRanker(m)
	if err != nil {
		t.Fatal(err)
	}
	for j := range m.Features {
		gi, gv := cr.Column(j)
		wi, wv := want.Column(j)
		for p := range wi {
			if gi[p] != wi[p] || math.Float64bits(gv[p]) != math.Float64bits(wv[p]) {
				t.Fatalf("column %d pos %d: (%d, %v), fresh (%d, %v)", j, p, gi[p], gv[p], wi[p], wv[p])
			}
		}
	}
	for i := range m.Values {
		if !sameBits(cr.Row(i), m.Values[i]) {
			t.Fatalf("row %d: %v, matrix %v", i, cr.Row(i), m.Values[i])
		}
	}
	for q := 0; q < 2; q++ {
		prof := Profile{Name: "fuzz", Prefs: map[string]Preference{}}
		for _, f := range m.Features {
			p := Preference{Kind: PrefKind(1 + next()%4), Weight: next() % (MaxWeight + 1)}
			if p.Kind == PrefValue {
				p.Value = patchFuzzValues[next()%len(patchFuzzValues)]
			}
			prof.Prefs[f.Name] = p
		}
		k := next() % (len(m.Places) + 1)
		got, err := cr.RankTopK(prof, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := want.RankTopK(prof, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Solved != exp.Solved || math.Float64bits(got.FootruleCost) != math.Float64bits(exp.FootruleCost) {
			t.Fatalf("k=%d: solved %d cost %v, fresh %d %v", k, got.Solved, got.FootruleCost, exp.Solved, exp.FootruleCost)
		}
		for r := range exp.OrderIdx {
			if got.OrderIdx[r] != exp.OrderIdx[r] || got.Order[r] != exp.Order[r] {
				t.Fatalf("k=%d rank %d: %d, fresh %d", k, r, got.OrderIdx[r], exp.OrderIdx[r])
			}
		}
	}
}
