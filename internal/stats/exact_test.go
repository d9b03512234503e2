package stats

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ulps is the distance between a and b in units in the last place: the
// number of float64s between them, counting across zero.
func ulps(a, b float64) uint64 {
	ordered := func(x float64) int64 {
		if b := int64(math.Float64bits(x)); b >= 0 {
			return b
		} else {
			return math.MinInt64 - b
		}
	}
	d := ordered(a) - ordered(b)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// bigSum is the reference: the exact sum of xs rounded once, by math/big.
func bigSum(xs []float64) float64 {
	sum := new(big.Float).SetPrec(4096)
	var x big.Float
	for _, v := range xs {
		sum.Add(sum, x.SetFloat64(v))
	}
	f, _ := sum.Float64()
	return f
}

// admitted maps 8 fuzzed bytes onto an admitted input: a NaN or an
// infinity keeps its sign and fraction as a subnormal, and a magnitude
// above MaxExact keeps its fraction with the exponent folded into range.
func admitted(b []byte) float64 {
	bits := binary.LittleEndian.Uint64(b)
	x := math.Float64frombits(bits)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 0):
		return math.Float64frombits(bits &^ (0x7ff << 52))
	case !Admits(x):
		frac, exp := math.Frexp(x)
		return math.Ldexp(frac, exp%401)
	}
	return x
}

// FuzzExactSum: a sum's bits do not depend on the order of its inputs or
// on reads between them, and they are within 1 ulp of math/big's exact sum
// rounded once — over the whole admitted range, subnormals and values near
// MaxExact included. cancel appends, for every other input, its negation
// one ulp toward zero, so most of the sum cancels.
func FuzzExactSum(f *testing.F) {
	le := func(xs ...float64) []byte {
		out := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
		return out
	}
	f.Add(le(1e16, 1, -1e16, 1e-16), int64(1), uint8(2), false)
	f.Add(le(0.1, 0.2, 0.3, -0.6), int64(2), uint8(1), true)
	f.Add(le(MaxExact, -MaxExact, math.Nextafter(MaxExact, 0), 1), int64(3), uint8(3), false)
	f.Add(le(5e-324, -5e-324, 2.2250738585072014e-308, 1e-310), int64(4), uint8(0), true)
	f.Add(le(1, 0x1p-53, 0x1p-106, 0x1p-160), int64(5), uint8(2), false)
	f.Fuzz(func(t *testing.T, data []byte, seed int64, split uint8, cancel bool) {
		var xs []float64
		for ; len(data) >= 8 && len(xs) < 256; data = data[8:] {
			xs = append(xs, admitted(data))
		}
		if cancel {
			for i := 0; i < len(xs); i += 2 {
				xs = append(xs, math.Nextafter(-xs[i], 0))
			}
		}
		var in ExactSum
		for _, x := range xs {
			in.Add(x)
		}
		want := in.Sum()
		if ref := bigSum(xs); ulps(want, ref) > 1 {
			t.Fatalf("sum %v (%x), math/big %v (%x)", want, math.Float64bits(want), ref, math.Float64bits(ref))
		}
		perm := rand.New(rand.NewSource(seed)).Perm(len(xs))
		cut := 0
		if len(xs) > 0 {
			cut = int(split) % (len(xs) + 1)
		}
		var out ExactSum
		for i, p := range perm {
			if i == cut {
				_ = out.Sum()
			}
			out.Add(xs[p])
		}
		if got := out.Sum(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("permuted sum %v (%x), in order %v (%x)", got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// TestExactSumIsCorrectlyRounded: on sums a left fold gets wrong — a tie
// broken by a partial far below it, cancellation to a tiny remainder — Sum
// equals math/big's exact sum rounded once.
func TestExactSumIsCorrectlyRounded(t *testing.T) {
	for _, xs := range [][]float64{
		{1e16, 1, 1e-16},
		{1, 0x1p-53, 0x1p-106},
		{1, -0x1p-53, -0x1p-106},
		{1e100, 1, -1e100, 1e-100},
		{0.1, 0.2, 0.3, -0.6},
		{MaxExact, MaxExact, -MaxExact, 5e-324},
		{},
	} {
		var s ExactSum
		for _, x := range xs {
			s.Add(x)
		}
		if got, want := s.Sum(), bigSum(xs); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("sum of %v = %v, exact %v", xs, got, want)
		}
	}
}

// TestStdDevOfMatchesBig: the spread from exact sums is within 2 ulp of
// math/big's population standard deviation, including means far larger
// than the spread, where n·Q − S² cancels almost entirely.
func TestStdDevOfMatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		center, spread := math.Ldexp(1, r.Intn(60)-20), math.Ldexp(1, r.Intn(40)-30)
		var sum, squares ExactSum
		ref := new(big.Float).SetPrec(4096)
		refSq := new(big.Float).SetPrec(4096)
		var x big.Float
		for i := 0; i < n; i++ {
			m := center + spread*r.NormFloat64()
			sum.Add(m)
			squares.AddSquare(m)
			x.SetFloat64(m)
			ref.Add(ref, &x)
			refSq.Add(refSq, new(big.Float).SetPrec(4096).Mul(&x, &x))
		}
		// σ² = (n·Q − S²) / n², to 4096 bits, then σ.
		refSq.Mul(refSq, new(big.Float).SetInt64(int64(n)))
		ref.Mul(ref, ref)
		v := refSq.Sub(refSq, ref)
		v.Quo(v, new(big.Float).SetInt64(int64(n)*int64(n)))
		want, _ := v.Sqrt(v).Float64()
		if got := StdDevOf(n, &sum, &squares); ulps(got, want) > 2 {
			t.Fatalf("trial %d (n=%d, center %g, spread %g): %v, math/big %v (%d ulp)", trial, n, center, spread, got, want, ulps(got, want))
		}
	}
}
