package schedule

import (
	"sync"

	"sor/internal/coverage"
)

// pick is one selected measurement, in selection order.
type pick struct {
	user    int // index into participants
	instant int // timeline index
}

// candidate is the heap entry of one instant: the coverage gain depends on
// the instant alone, so of all (user, instant) pairs at an instant only the
// one the eager scan would reach first — the lowest-index user who can
// still sense there — ever competes.
type candidate struct {
	gain    float64 // marginal gain when last computed; an upper bound since
	user    int32   // lowest user who could take the instant when last checked
	instant int32
}

// before is the eager scan's choice rule as a total order: larger gain
// first, ties to the lower element index — elements are numbered user by
// user, instant by instant.
func (c candidate) before(o candidate) bool {
	if c.gain != o.gain {
		return c.gain > o.gain
	}
	if c.user != o.user {
		return c.user < o.user
	}
	return c.instant < o.instant
}

// siftDown restores the heap below slot i after h[i]'s key got worse.
func siftDown(h []candidate, i int) {
	c := h[i]
	for {
		kid := 2*i + 1
		if kid >= len(h) {
			break
		}
		if r := kid + 1; r < len(h) && h[r].before(h[kid]) {
			kid = r
		}
		if !h[kid].before(c) {
			break
		}
		h[i] = h[kid]
		i = kid
	}
	h[i] = c
}

// lazyScratch is one run's working memory. It is pooled, not kept per
// scheduler: a server holds one scheduler per app and most are idle.
type lazyScratch struct {
	heap   []candidate
	stale  []bool // per instant: gain must be recomputed before it is trusted
	lo, hi []int  // per user: window in instants; lo > hi when it is empty
	left   []int  // per user: budget not yet spent
	picks  []pick
}

var lazyPool = sync.Pool{New: func() any { return new(lazyScratch) }}

// grow returns s[:n], reallocating only when the capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// lazyGreedy selects what submodular.Greedy selects over the (user,
// instant) ground set, in the same order, with one heap entry per instant
// instead of one scan element per pair. Keys only ever get worse — a miss
// product only shrinks, every product and the fixed-order sum in Gain are
// monotone in it even after rounding, and an instant's candidate user only
// moves to a later one — so an out-of-date key is an upper bound, and a
// top entry whose key is up to date is the true maximum. The picks and the
// number of Gain evaluations go into plan.
func (s *Scheduler) lazyGreedy(parts []Participant, acc *coverage.Accumulator, plan *Plan) {
	n := s.tl.N()
	oracleCalls := 0
	sc := lazyPool.Get().(*lazyScratch)
	defer lazyPool.Put(sc)
	sc.lo, sc.hi, sc.left = grow(sc.lo, len(parts)), grow(sc.hi, len(parts)), grow(sc.left, len(parts))
	lo, hi, left := sc.lo, sc.hi, sc.left
	for k, p := range parts {
		var ok bool
		if lo[k], hi[k], ok = s.tl.IndexRange(p.Arrive, p.Leave); !ok {
			lo[k], hi[k] = 1, 0
		}
		left[k] = p.Budget
	}
	// next returns the first user at or after from who can still sense at
	// instant i, or -1. A user who took i is skipped by starting past them.
	next := func(i, from int) int {
		for k := from; k < len(parts); k++ {
			if left[k] > 0 && lo[k] <= i && i <= hi[k] {
				return k
			}
		}
		return -1
	}

	sc.stale = grow(sc.stale, n)
	stale := sc.stale
	h := sc.heap[:0]
	for i := 0; i < n; i++ {
		stale[i] = false
		k := next(i, 0)
		if k < 0 {
			continue
		}
		oracleCalls++
		if g := acc.Gain(i); g > minGain {
			h = append(h, candidate{gain: g, user: int32(k), instant: int32(i)})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	pop := func() {
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		if len(h) > 0 {
			siftDown(h, 0)
		}
	}
	// An Add at i moves miss[i−r..i+r]; Gain(j) reads miss[j−r..j+r].
	reach := 2 * s.table.Radius()
	if reach == 0 {
		reach = n
	}

	picks := sc.picks[:0]
	for len(h) > 0 {
		top := &h[0]
		i := int(top.instant)
		k := next(i, int(top.user))
		if k < 0 {
			pop()
			continue
		}
		moved := k != int(top.user)
		top.user = int32(k)
		if stale[i] {
			stale[i] = false
			oracleCalls++
			if top.gain = acc.Gain(i); top.gain <= minGain {
				pop()
				continue
			}
			moved = true
		}
		if moved {
			siftDown(h, 0)
			continue
		}
		acc.Add(i)
		picks = append(picks, pick{user: k, instant: i})
		left[k]--
		top.user++ // k has taken i; the next round re-keys this entry
		for j, end := max(i-reach, 0), min(i+reach, n-1); j <= end; j++ {
			stale[j] = true
		}
	}
	plan.OracleCalls = oracleCalls
	plan.assign(parts, picks)
	sc.heap, sc.picks = h[:0], picks[:0]
}
