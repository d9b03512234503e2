package session

// Race-enabled churn suite for the session registry: devices attach, the
// server notifies/pushes/broadcasts, devices detach — all concurrently.
// Only meaningful under `go test -race`.

import (
	"fmt"
	"sync"
	"testing"

	"sor/internal/wire"
)

// TestRegistryChurnRace hammers one Registry with concurrent
// Attach/Notify/Close over a shared token space. Invariants: no data
// race, no panic, and Sent() equals the number of successful notifies —
// displacement and teardown must never lose or double-count a wake.
func TestRegistryChurnRace(t *testing.T) {
	const tokens, rounds, notifiers = 8, 200, 4
	r := NewRegistry()
	var wg sync.WaitGroup
	var okNotifies int64
	var okMu sync.Mutex

	// Device churners: attach (displacing any straggler), drain the queue
	// once, close. Attach never fails under churn — reconnects displace.
	for i := 0; i < tokens; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			token := fmt.Sprintf("tok-%d", i)
			for rd := 0; rd < rounds; rd++ {
				s, _, err := r.Attach(token, SupportedCaps)
				if err != nil {
					t.Errorf("attach %s: %v", token, err)
					return
				}
				select {
				case <-s.Ready():
					s.TakePending()
				default:
				}
				s.Close()
			}
		}(i)
	}
	// Notifiers hit rotating tokens; failures (token not attached right
	// now) are expected under churn.
	for n := 0; n < notifiers; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for rd := 0; rd < rounds*tokens; rd++ {
				token := fmt.Sprintf("tok-%d", (n+rd)%tokens)
				if err := r.Notify(token); err == nil {
					okMu.Lock()
					okNotifies++
					okMu.Unlock()
				}
			}
		}(n)
	}
	// One broadcaster sprays epoch invalidations across whatever is live.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for rd := 0; rd < rounds; rd++ {
			r.Broadcast(&wire.EpochInvalidate{Category: "coffee-shop", Epoch: int64(rd)})
		}
	}()
	wg.Wait()
	if int64(r.Sent()) != okNotifies {
		t.Fatalf("Sent() = %d, successful notifies = %d", r.Sent(), okNotifies)
	}
	if got := r.Count(); got != 0 {
		t.Fatalf("%d sessions still live after churn", got)
	}
}

// TestRegistryDisplacement pins reconnect-before-timeout: a second Attach
// for the same token reports displacement, closes the old session, and
// routes subsequent pushes only to the new one.
func TestRegistryDisplacement(t *testing.T) {
	r := NewRegistry()
	old, displaced, err := r.Attach("tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	if displaced {
		t.Fatal("first attach reported displacement")
	}
	fresh, displaced, err := r.Attach("tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !displaced {
		t.Fatal("second attach did not report displacement")
	}
	select {
	case <-old.Done():
	default:
		t.Fatal("displaced session's Done did not close")
	}
	if err := r.Notify("tok"); err != nil {
		t.Fatal(err)
	}
	if got := len(fresh.TakePending()); got != 1 {
		t.Fatalf("fresh session holds %d pending, want 1", got)
	}
	if got := old.pushed.Load(); got != 0 {
		t.Fatalf("displaced session still received %d pushes", got)
	}
	// The displaced session's own Close must not evict its replacement.
	old.Close()
	if !live(r, "tok") {
		t.Fatal("stale Close evicted the live replacement")
	}
	fresh.Close()
	if r.Count() != 0 {
		t.Fatal("registry not empty after close")
	}
	// A token with no live session is unreachable, not silently dropped.
	if err := r.Notify("tok"); err == nil {
		t.Fatal("closed session's token notified")
	}
	if err := r.PushMessage("ghost", &wire.Ping{}); err == nil {
		t.Fatal("unknown token pushed to")
	}
	if _, _, err := r.Attach("", nil); err == nil {
		t.Fatal("empty token attached")
	}
}

// TestSessionQueueBackpressure pins the bounded queue: a stalled session
// keeps the newest pushes, drops the oldest, and a wake ping coalesces
// rather than stacking.
func TestSessionQueueBackpressure(t *testing.T) {
	r := NewRegistry()
	s, _, err := r.Attach("tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Notify("tok"); err != nil {
		t.Fatal(err)
	}
	// A second wake coalesces with the queued one but still counts as sent.
	if err := r.Notify("tok"); err != nil {
		t.Fatal(err)
	}
	if got := r.Sent(); got != 2 {
		t.Fatalf("Sent() = %d, want 2", got)
	}
	for i := 0; i <= DefaultQueueCap; i++ {
		if err := r.PushMessage("tok", &wire.EpochInvalidate{Epoch: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	pend := s.TakePending()
	if len(pend) != DefaultQueueCap {
		t.Fatalf("pending = %d messages, want %d (queue cap)", len(pend), DefaultQueueCap)
	}
	// The wake ping and oldest push were evicted; the newest pushes remain.
	for i, m := range pend {
		inv, ok := m.(*wire.EpochInvalidate)
		if !ok || inv.Epoch != int64(i+1) {
			t.Fatalf("pending[%d] = %#v, want epoch %d", i, m, i+1)
		}
	}
	if got := s.dropped.Load(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	// The eviction cleared wakeQueued, so a new wake queues again.
	if err := r.Notify("tok"); err != nil {
		t.Fatal(err)
	}
	if got := len(s.TakePending()); got != 1 {
		t.Fatalf("post-eviction wake: pending = %d, want 1", got)
	}
}

// live reports whether token has a live session in r.
func live(r *Registry, token string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sessions[token] != nil
}
