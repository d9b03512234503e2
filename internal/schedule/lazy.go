package schedule

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"sor/internal/coverage"
)

// pick is one selected measurement, in selection order.
type pick struct {
	user    int // index into participants
	instant int // timeline index
}

// key is one instant's place in the tournament: the coverage gain depends
// on the instant alone, so of all (user, instant) pairs at an instant only
// the one the eager scan would reach first — the lowest-index user who can
// still sense there, the instant's candidate — ever competes. The eager
// scan's choice rule — larger gain first, ties to the lower element index,
// elements numbered user by user, instant by instant — is the order of
// keys as 128-bit integers, larger first: a gain is never negative, so its
// IEEE bits order as it does.
type key struct {
	gain uint64 // bits of the marginal gain when last computed; an upper bound while stale
	tie  uint64 // ^(candidate<<32 | instant)
}

func keyOf(gain uint64, cand, instant int) key {
	return key{gain: gain, tie: ^(uint64(cand)<<32 | uint64(instant))}
}

func (a key) cand() int    { return int(^a.tie >> 32) }
func (a key) instant() int { return int(uint32(^a.tie)) }

// dead is the key of an instant nobody can take any more, or whose gain
// fell to minGain: it loses to every live key, and a dead root ends the
// run.
var dead = key{}

// live reports whether the key's gain is above minGain.
func (a key) live() bool { return a.gain > minGainBits }

var minGainBits = math.Float64bits(minGain)

// winner returns 0 when a comes first in the eager order and 1 when b
// does, without a branch: the borrow out of the 128-bit a − b.
func winner(a, b key) int {
	_, borrow := bits.Sub64(a.tie, b.tie, 0)
	_, borrow = bits.Sub64(a.gain, b.gain, borrow)
	return int(borrow)
}

// tree is a tournament over the live horizon's instants: leaves at
// [len/2, len), node x holds the winner of nodes 2x and 2x+1, the root is
// node 1.
type tree []key

// replay rewrites the path from leaf x to the root, one compare per level.
// The winner so far rides along in registers, so no level waits on the
// store of the one below.
func (t tree) replay(x int) {
	win := t[x]
	for ; x > 1; x >>= 1 {
		sib := t[x^1]
		take := -uint64(winner(win, sib)) // all ones when sib wins
		win.gain ^= (win.gain ^ sib.gain) & take
		win.tie ^= (win.tie ^ sib.tie) & take
		t[x>>1] = win
	}
}

// rebuild rewrites every ancestor of the leaves in [a, b], level by level.
func (t tree) rebuild(a, b int) {
	for a, b = a>>1, b>>1; a >= 1; a, b = a>>1, b>>1 {
		for x := a; x <= b; x++ {
			t[x] = t[2*x+winner(t[2*x], t[2*x+1])]
		}
	}
}

// lowestFrom returns the lowest member at or after from whose bit is set
// in row, or -1.
func lowestFrom(row []uint64, from int) int {
	w := from >> 6
	word := row[w] &^ (1<<(from&63) - 1)
	for word == 0 {
		if w++; w == len(row) {
			return -1
		}
		word = row[w]
	}
	return w<<6 | bits.TrailingZeros64(word)
}

// lazyWork counts, over every lazy run in the process, the tree's leaf
// writes and path replays. Tests bound it; nothing else reads it.
var lazyWork struct{ leafWrites, replays atomic.Int64 }

// LazyWork reports the leaf writes and path replays of every lazy run so
// far, beyond building each run's tree: a leaf write re-keys one instant
// after the build, a replay walks one leaf-to-root path.
func LazyWork() (leafWrites, replays int64) {
	return lazyWork.leafWrites.Load(), lazyWork.replays.Load()
}

// lazyScratch is one run's working memory. It is pooled, not kept per
// scheduler: a server holds one scheduler per app and most are idle.
type lazyScratch struct {
	tree   tree
	mask   []uint64 // per horizon instant: one bit per member who can still take it
	stale  []bool   // per horizon instant: gain must be recomputed before it is trusted
	lo, hi []int    // per user: window in instants; lo > hi when it is empty
	left   []int    // per user: budget not yet spent
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
// instant) ground set, in the same order, with one tournament leaf per
// instant instead of one scan element per pair. Keys only ever get worse —
// a miss product only shrinks, every product and the fixed-order sum in
// Gain are monotone in it even after rounding, and an instant's candidate
// only moves to a later user — so an out-of-date key is an upper bound,
// and a root whose key is up to date is the true maximum. The picks and
// the number of Gain evaluations go into plan.
func (s *Scheduler) lazyGreedy(parts []Participant, acc *coverage.Accumulator, plan *Plan) {
	sc := lazyPool.Get().(*lazyScratch)
	defer lazyPool.Put(sc)
	sc.lo, sc.hi, sc.left = grow(sc.lo, len(parts)), grow(sc.hi, len(parts)), grow(sc.left, len(parts))
	lo, hi, left := sc.lo, sc.hi, sc.left
	// The live horizon [first, first+width) spans every window with budget
	// behind it; no instant outside it can be taken.
	first, last := s.tl.N(), -1
	for k, p := range parts {
		var ok bool
		left[k] = p.Budget
		if lo[k], hi[k], ok = s.tl.IndexRange(p.Arrive, p.Leave); !ok || p.Budget == 0 {
			lo[k], hi[k] = 1, 0
			continue
		}
		first, last = min(first, lo[k]), max(last, hi[k])
	}
	if first > last {
		return
	}
	width, words := last-first+1, (len(parts)+63)/64

	// Member k's bit flips on at lo[k] and off at hi[k]+1, so a running
	// XOR down the instants leaves it set exactly over k's window.
	mask := grow(sc.mask, width*words)
	clear(mask)
	for k := range parts {
		if lo[k] > hi[k] {
			continue
		}
		w, bit := k>>6, uint64(1)<<(k&63)
		mask[(lo[k]-first)*words+w] ^= bit
		if end := hi[k] + 1 - first; end < width {
			mask[end*words+w] ^= bit
		}
	}
	for x := words; x < len(mask); x++ {
		mask[x] ^= mask[x-words]
	}
	row := func(x int) []uint64 { return mask[x*words : (x+1)*words] }

	size := 1 << bits.Len(uint(width-1))
	t := tree(grow(sc.tree, 2*size))
	leaves := t[size:]
	stale := grow(sc.stale, width)
	clear(stale)
	oracleCalls := 0
	for x := range leaves {
		leaves[x] = dead
		if x >= width {
			continue
		}
		if k := lowestFrom(row(x), 0); k >= 0 {
			oracleCalls++
			if g := acc.Gain(first + x); g > minGain {
				leaves[x] = keyOf(math.Float64bits(g), k, first+x)
			}
		}
	}
	t.rebuild(size, 2*size-1)
	leafWrites, replays := 0, 0

	// retire takes member k, whose budget ran out, off every instant of
	// their window in one range pass: leaves whose candidate moves are
	// re-keyed and leaves nobody can take any more die, then the span of
	// touched leaves is rebuilt once.
	retire := func(k int) {
		w, bit := k>>6, uint64(1)<<(k&63)
		a, b := -1, -1
		for x := lo[k] - first; x <= hi[k]-first; x++ {
			mask[x*words+w] &^= bit
			leaf := &leaves[x]
			from := leaf.cand()
			if !leaf.live() || from > k || mask[x*words+from>>6]&(1<<(from&63)) != 0 {
				continue // dead, or the candidate is not k and still there
			}
			switch c := lowestFrom(row(x), from); {
			case c == from:
				continue
			case c < 0:
				*leaf = dead
			default:
				*leaf = keyOf(leaf.gain, c, first+x)
			}
			if a < 0 {
				a = x
			}
			b = x
			leafWrites++
		}
		if a >= 0 {
			t.rebuild(size+a, size+b)
		}
	}

	// An Add at i moves miss[i−r..i+r]; Gain(j) reads miss[j−r..j+r].
	reach := 2 * s.table.Radius()
	if reach == 0 {
		reach = width
	}
	picks := sc.picks[:0]
	for t[1].live() {
		top := t[1]
		i := top.instant()
		x := i - first
		next := dead
		if k := lowestFrom(row(x), top.cand()); k >= 0 {
			next = keyOf(top.gain, k, i)
			if stale[x] {
				stale[x] = false
				oracleCalls++
				if next.gain = math.Float64bits(acc.Gain(i)); !next.live() {
					next = dead
				}
			}
		}
		if next != top {
			leaves[x] = next
			t.replay(size + x)
			leafWrites++
			replays++
			continue
		}
		k := top.cand()
		acc.Add(i)
		picks = append(picks, pick{user: k, instant: i})
		// k has taken i, and i is stale from here: the next visit re-keys it.
		mask[x*words+k>>6] &^= 1 << (k & 63)
		if left[k]--; left[k] == 0 {
			retire(k)
		}
		for j, end := max(x-reach, 0), min(x+reach, width-1); j <= end; j++ {
			stale[j] = true
		}
	}
	lazyWork.leafWrites.Add(int64(leafWrites))
	lazyWork.replays.Add(int64(replays))
	plan.OracleCalls = oracleCalls
	plan.assign(parts, picks)
	sc.tree, sc.mask, sc.stale, sc.picks = t, mask, stale, picks[:0]
}
