package vclock

import (
	"container/heap"
	"sync"
	"time"
)

// Virtual is a deterministic discrete-event clock. Time never passes on
// its own: it moves only when Advance/AdvanceTo is called, or — when
// actors are registered — when the last registered actor parks in Sleep
// and the clock jumps to the earliest pending timer ("advance only when
// all actors are parked").
//
// Determinism invariants:
//
//   - Timers fire in (deadline, creation sequence) order. Two timers
//     with the same deadline fire in the order they were created, so a
//     run's fire order is a pure function of the program, never of
//     goroutine scheduling.
//   - AfterFunc callbacks run synchronously on the goroutine that
//     advances the clock, before Advance returns and before any
//     later-deadline timer fires.
//   - Now() is monotone non-decreasing and only changes under Advance.
//
// A single-threaded driver (see internal/fleetsim) calls Advance and
// AdvanceTo directly. The package's tests register clock-driven
// goroutines as actors (vclock_test.go) and let auto-advance run the
// virtual time forward.
type Virtual struct {
	mu     sync.Mutex
	cond   *sync.Cond
	now    time.Time
	seq    uint64
	timers timerHeap
	actors int // registered auto-advance actors
	parked int // goroutines currently blocked in Sleep
}

// NewVirtual returns a Virtual clock frozen at start.
func NewVirtual(start time.Time) *Virtual {
	v := &Virtual{now: start}
	v.cond = sync.NewCond(&v.mu)
	return v
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since is Now().Sub(t).
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// vtimer is one scheduled event: a channel delivery, a callback, or a
// repeating tick.
type vtimer struct {
	when    time.Time
	seq     uint64 // creation order; ties on `when` fire in seq order
	ch      chan time.Time
	fn      func()
	period  time.Duration // > 0 for tickers
	sleeper bool          // backs a Sleep; firing it un-parks the sleeper
	stopped bool
	index   int // heap position, -1 when popped
}

type timerHeap []*vtimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *timerHeap) Push(x any) {
	t := x.(*vtimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}

// schedule registers a timer under the lock.
func (v *Virtual) schedule(d time.Duration, ch chan time.Time, fn func(), period time.Duration) *vtimer {
	t := &vtimer{when: v.now.Add(d), seq: v.seq, ch: ch, fn: fn, period: period}
	v.seq++
	heap.Push(&v.timers, t)
	return t
}

// After returns a channel that delivers the virtual time once the clock
// has been advanced past d from now.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- v.now
		return ch
	}
	v.schedule(d, ch, nil, 0)
	return ch
}

// NewTimer returns a Timer that fires once the clock passes d from now.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- v.now
		return &virtualTimer{v: v, ch: ch}
	}
	return &virtualTimer{v: v, ch: ch, t: v.schedule(d, ch, nil, 0)}
}

// AfterFunc schedules f to run when the clock passes d from now. f runs
// synchronously on the advancing goroutine, with the clock set to the
// timer's deadline.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	if d <= 0 {
		f()
		return &virtualTimer{v: v}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return &virtualTimer{v: v, t: v.schedule(d, nil, f, 0)}
}

// NewTicker returns a Ticker firing every d of virtual time. Like
// time.Ticker, ticks are dropped (not queued) if the receiver lags.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("vclock: non-positive ticker interval")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	ch := make(chan time.Time, 1)
	return &virtualTicker{v: v, t: v.schedule(d, ch, nil, d)}
}

type virtualTimer struct {
	v  *Virtual
	ch chan time.Time
	t  *vtimer // nil when the timer already fired at creation
}

func (vt *virtualTimer) C() <-chan time.Time { return vt.ch }

func (vt *virtualTimer) Stop() bool {
	if vt.t == nil {
		return false
	}
	return vt.v.stop(vt.t)
}

type virtualTicker struct {
	v *Virtual
	t *vtimer
}

func (vt *virtualTicker) C() <-chan time.Time { return vt.t.ch }
func (vt *virtualTicker) Stop()               { vt.v.stop(vt.t) }

// stop cancels a timer; reports whether it was still pending.
func (v *Virtual) stop(t *vtimer) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.stopped || t.index < 0 {
		return false
	}
	t.stopped = true
	heap.Remove(&v.timers, t.index)
	return true
}

// Sleep blocks until the clock has been advanced past d. A goroutine in
// Sleep counts as parked for auto-advance: if every registered actor is
// parked, the last one to park advances the clock to the earliest
// pending timer before blocking, so a fleet of sleeping actors makes
// progress without an external driver.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	ch := make(chan time.Time, 1)
	t := v.schedule(d, ch, nil, 0)
	t.sleeper = true
	// parked is decremented by whoever FIRES the timer (advanceLocked),
	// not here on resume: a woken-but-unscheduled sleeper must not
	// count as parked, or a racing actor would see "everyone parked"
	// and advance past events the woken one is about to schedule.
	v.parked++
	v.cond.Broadcast()
	v.autoAdvanceLocked(ch)
	v.mu.Unlock()

	<-ch
}

// autoAdvanceLocked advances to successive earliest timers while every
// registered actor is parked and the caller's own wakeup (ch) has not
// yet fired. Called with v.mu held; may release and reacquire it.
func (v *Virtual) autoAdvanceLocked(ch chan time.Time) {
	for v.actors > 0 && v.parked >= v.actors && len(v.timers) > 0 && len(ch) == 0 {
		v.advanceLocked(v.timers[0].when)
	}
}

// Advance moves the clock forward by d, firing every timer whose
// deadline falls within the window, in (deadline, seq) order.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.advanceLocked(v.now.Add(d))
}

// AdvanceTo moves the clock forward to t (no-op if t is in the past).
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.advanceLocked(t)
}

// advanceLocked fires all timers with deadline <= target, then sets the
// clock to target. Callback timers run with the lock released, so a
// callback may schedule new timers or advance further; timers it
// schedules inside the window fire in the same pass.
func (v *Virtual) advanceLocked(target time.Time) {
	if target.Before(v.now) {
		return
	}
	for len(v.timers) > 0 && !v.timers[0].when.After(target) {
		t := heap.Pop(&v.timers).(*vtimer)
		if t.stopped {
			continue
		}
		fireAt := t.when
		if fireAt.After(v.now) {
			v.now = fireAt
		}
		if t.sleeper {
			v.parked--
		}
		if t.period > 0 {
			// Re-arm in place (same vtimer, so Stop keeps working)
			// before delivery, at a steady deadline cadence.
			t.when = fireAt.Add(t.period)
			t.seq = v.seq
			v.seq++
			heap.Push(&v.timers, t)
		}
		if t.fn != nil {
			fn := t.fn
			v.mu.Unlock()
			fn()
			v.mu.Lock()
			continue
		}
		// Buffered channel: drop the tick if the receiver hasn't
		// consumed the previous one (time.Ticker semantics).
		select {
		case t.ch <- fireAt:
		default:
		}
	}
	if target.After(v.now) {
		v.now = target
	}
}
