package main

import (
	"math"
	"sort"
)

// rng is a splitmix64 generator. Every generated input is a pure function
// of (seed, stream, index): at() derives an independent generator for one
// op without the 607-word seeding cost of math/rand, so a client can make
// its i-th op without having made the ones before it.
type rng struct{ s uint64 }

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// at returns the generator for item i of a named stream under seed.
func at(seed int64, stream string, i int) *rng {
	h := mix(uint64(seed))
	for j := 0; j < len(stream); j++ {
		h = mix(h ^ uint64(stream[j]))
	}
	return &rng{s: mix(h ^ uint64(i))}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw from [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// sym returns a uniform draw from [-1, 1).
func (r *rng) sym() float64 { return r.float()*2 - 1 }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// quantile returns the q-quantile of sorted (nearest rank, no
// interpolation: a reported latency is one that a client saw).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
