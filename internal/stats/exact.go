package stats

import (
	"math"
	"math/big"
)

// MaxExact is the largest magnitude an ExactSum admits, for Add's input
// and for the value AddSquare squares. Up to 2^62 admitted inputs keep
// every partial, and every two-sum forming one, below 2^862, far from
// overflow.
const MaxExact = 0x1p400

// Admits reports whether x is an admitted ExactSum input: finite, with
// |x| ≤ MaxExact.
func Admits(x float64) bool { return math.Abs(x) <= MaxExact }

// ExactSum holds the exact sum of the float64s added to it, as Shewchuk's
// non-overlapping partials (the algorithm behind Python's math.fsum):
// floats of increasing magnitude whose real sum is exactly the sum of the
// inputs, usually two or three of them. Sum rounds that sum once, so it is
// a function of the input multiset alone: any order of adds, with reads
// anywhere between them, gives the same bits.
//
// Every input must be admitted (see Admits). The zero value is an empty
// sum. Copies share partials, so an ExactSum must not be copied after its
// first Add.
type ExactSum struct {
	parts []float64
}

// Add adds x to the sum exactly.
func (s *ExactSum) Add(x float64) {
	i := 0
	for _, y := range s.parts {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		if lo := y - (hi - x); lo != 0 {
			s.parts[i] = lo
			i++
		}
		x = hi
	}
	s.parts = s.parts[:i]
	if x != 0 {
		s.parts = append(s.parts, x)
	}
}

// AddSquare adds x² exactly, as the rounded product and its rounding
// error. The error is exact unless x² is within 2^53 of the subnormal
// range (|x| < 2^-484); either way the pair depends on x alone.
func (s *ExactSum) AddSquare(x float64) {
	p := x * x
	s.Add(p)
	s.Add(math.FMA(x, x, -p))
}

// Sum returns the exact sum rounded to the nearest float64, ties to even.
func (s *ExactSum) Sum() float64 {
	n := len(s.parts)
	if n == 0 {
		return 0
	}
	// Sum the partials from the top until a sum is inexact; lo is then the
	// rounding error of hi, and every partial below it is smaller than
	// half an ulp of hi.
	n--
	hi, lo := s.parts[n], 0.0
	for n > 0 {
		x, y := hi, s.parts[n-1]
		n--
		hi = x + y
		if lo = y - (hi - x); lo != 0 {
			break
		}
	}
	// hi + lo is a tie rounded to even, but the partials below lo push the
	// exact sum off the tie, toward lo: round the other way.
	if n > 0 && (lo < 0) == (s.parts[n-1] < 0) {
		y := lo * 2
		if x := hi + y; x-hi == y {
			hi = x
		}
	}
	return hi
}

// StdDevOf returns the population standard deviation of n observations
// from their exact sum and exact sum of squares, as √(n·Q − S²) / n. The
// difference n·Q − S² is formed exactly and rounded once, so the value is
// a function of the observations alone and lies within 1.5 ulp of the
// exact deviation.
func StdDevOf(n int, sum, squares *ExactSum) float64 {
	// Partials span at most 2^462 down to 2^-1074, so S² needs at most
	// 3 072 bits and n·Q fewer: every operation below is exact.
	const prec = 4096
	s, q := sum.exact(prec), squares.exact(prec)
	q.Mul(q, new(big.Float).SetInt64(int64(n)))
	s.Mul(s, s)
	v, _ := q.Sub(q, s).Float64()
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v) / float64(n)
}

// exact returns the sum as a big.Float of precision prec, exact when the
// partials span no more than prec bits.
func (s *ExactSum) exact(prec uint) *big.Float {
	x := new(big.Float).SetPrec(prec)
	var p big.Float
	for _, y := range s.parts {
		x.Add(x, p.SetFloat64(y))
	}
	return x
}
