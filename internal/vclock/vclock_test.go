package vclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2013, 11, 15, 11, 0, 0, 0, time.UTC)

func TestRealClockBasics(t *testing.T) {
	c := Or(nil) // nil option means wall clock
	if _, ok := c.(Real); !ok {
		t.Fatalf("Or(nil) = %T, want Real", c)
	}
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(t0) <= 0 {
		t.Fatal("real clock did not move")
	}
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(5 * time.Second):
		t.Fatal("real timer never fired")
	}
}

func TestVirtualNowFrozenUntilAdvance(t *testing.T) {
	v := NewVirtual(epoch)
	if !v.Now().Equal(epoch) {
		t.Fatalf("Now = %v", v.Now())
	}
	v.Advance(3 * time.Second)
	if got := v.Now(); !got.Equal(epoch.Add(3 * time.Second)) {
		t.Fatalf("Now = %v", got)
	}
	// Advancing to the past is a no-op, never a rewind.
	v.AdvanceTo(epoch)
	if got := v.Now(); !got.Equal(epoch.Add(3 * time.Second)) {
		t.Fatalf("Now rewound to %v", got)
	}
}

func TestVirtualAfterDeliversClockTime(t *testing.T) {
	v := NewVirtual(epoch)
	ch := v.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("fired before advance")
	default:
	}
	v.Advance(10 * time.Second)
	select {
	case got := <-ch:
		if !got.Equal(epoch.Add(10 * time.Second)) {
			t.Fatalf("fired at %v", got)
		}
	default:
		t.Fatal("did not fire after advance")
	}
}

func TestVirtualTimerOrderIsDeadlineThenSeq(t *testing.T) {
	v := NewVirtual(epoch)
	var order []int
	v.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	v.AfterFunc(1*time.Second, func() { order = append(order, 1) })
	// Same deadline as the first: creation order breaks the tie.
	v.AfterFunc(2*time.Second, func() { order = append(order, 3) })
	v.Advance(5 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestVirtualAfterFuncSchedulingMore(t *testing.T) {
	v := NewVirtual(epoch)
	var fired []time.Duration
	v.AfterFunc(time.Second, func() {
		fired = append(fired, v.Since(epoch))
		// A callback scheduling inside the advance window fires in
		// the same pass.
		v.AfterFunc(time.Second, func() {
			fired = append(fired, v.Since(epoch))
		})
	})
	v.Advance(3 * time.Second)
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("fired = %v", fired)
	}
	if !v.Now().Equal(epoch.Add(3 * time.Second)) {
		t.Fatalf("Now = %v", v.Now())
	}
}

func TestVirtualTimerStop(t *testing.T) {
	v := NewVirtual(epoch)
	tm := v.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop on pending timer must report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop must report false")
	}
	v.Advance(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	// Zero-duration timer fires immediately.
	tm0 := v.NewTimer(0)
	select {
	case <-tm0.C():
	default:
		t.Fatal("zero timer must be ready")
	}
}

func TestVirtualTickerTicksAndStops(t *testing.T) {
	v := NewVirtual(epoch)
	tk := v.NewTicker(time.Second)
	v.Advance(time.Second)
	select {
	case got := <-tk.C():
		if !got.Equal(epoch.Add(time.Second)) {
			t.Fatalf("tick at %v", got)
		}
	default:
		t.Fatal("no tick")
	}
	// Two periods with no receive coalesce to one pending tick,
	// matching time.Ticker's drop-don't-queue behavior.
	v.Advance(2 * time.Second)
	<-tk.C()
	select {
	case <-tk.C():
		t.Fatal("ticks queued beyond channel buffer")
	default:
	}
	tk.Stop()
	v.Advance(10 * time.Second)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker ticked")
	default:
	}
}

func TestVirtualSleepWakesOnAdvance(t *testing.T) {
	v := NewVirtual(epoch)
	done := make(chan time.Time, 1)
	go func() {
		v.Sleep(5 * time.Second)
		done <- v.Now()
	}()
	v.AwaitParked(1)
	v.Advance(5 * time.Second)
	select {
	case got := <-done:
		if !got.Equal(epoch.Add(5 * time.Second)) {
			t.Fatalf("woke at %v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sleeper never woke")
	}
}

func TestVirtualAutoAdvanceAllActorsParked(t *testing.T) {
	// Two registered actors sleeping in lockstep: the clock advances
	// itself each time the second one parks, with no external driver.
	v := NewVirtual(epoch)
	const rounds = 10
	var wg sync.WaitGroup
	var ticks atomic.Int64
	for i := 0; i < 2; i++ {
		wg.Add(1)
		v.Register()
		go func() {
			defer wg.Done()
			defer v.Unregister()
			for r := 0; r < rounds; r++ {
				v.Sleep(time.Second)
				ticks.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := ticks.Load(); got != 2*rounds {
		t.Fatalf("ticks = %d, want %d", got, 2*rounds)
	}
	if got := v.Now(); !got.Equal(epoch.Add(rounds * time.Second)) {
		t.Fatalf("Now = %v, want %v", got, epoch.Add(rounds*time.Second))
	}
}

func TestVirtualNextFire(t *testing.T) {
	v := NewVirtual(epoch)
	if _, ok := v.NextFire(); ok {
		t.Fatal("empty clock reports a pending timer")
	}
	v.After(7 * time.Second)
	v.After(3 * time.Second)
	when, ok := v.NextFire()
	if !ok || !when.Equal(epoch.Add(3*time.Second)) {
		t.Fatalf("NextFire = %v, %v", when, ok)
	}
}

func TestVirtualDeterministicFireSequence(t *testing.T) {
	// Same program ⇒ identical fire sequence, run twice.
	run := func() []time.Duration {
		v := NewVirtual(epoch)
		var seq []time.Duration
		for i := 1; i <= 5; i++ {
			d := time.Duration(i%3+1) * time.Second
			v.AfterFunc(d, func() { seq = append(seq, v.Since(epoch)) })
		}
		v.Advance(10 * time.Second)
		return seq
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 5 {
		t.Fatalf("lens: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Register adds an actor to the auto-advance census. Every goroutine
// that sleeps on this clock in a multi-actor test should Register
// before its loop and Unregister (usually via defer) when it exits, so
// the clock knows when "everyone is parked".
func (v *Virtual) Register() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.actors++
}

// Unregister removes an actor. If the remaining actors are all parked,
// the caller advances the clock for them before returning.
func (v *Virtual) Unregister() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.actors--
	if v.actors > 0 && v.parked >= v.actors && len(v.timers) > 0 {
		v.advanceLocked(v.timers[0].when)
	}
}

// Parked returns how many goroutines are currently blocked in Sleep.
// Tests condition-poll this instead of sleeping wall-clock time.
func (v *Virtual) Parked() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.parked
}

// AwaitParked blocks until at least n goroutines are parked in Sleep.
func (v *Virtual) AwaitParked(n int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for v.parked < n {
		v.cond.Wait()
	}
}

// NextFire reports the deadline of the earliest pending timer. A
// single-threaded driver merges this with its own event queue to decide
// how far to advance.
func (v *Virtual) NextFire() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.timers) == 0 {
		return time.Time{}, false
	}
	return v.timers[0].when, true
}
