package session

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sor/internal/obs"
	"sor/internal/transport"
	"sor/internal/wire"
)

// ErrSessionClosed marks an enqueue on a session that is gone.
var ErrSessionClosed = errors.New("session: closed")

// DefaultQueueCap bounds each session's pending push queue. When a phone
// stops draining, the oldest push is dropped (and counted) rather than
// letting one dead session hold server memory — pushes are hints; the
// schedule itself is always re-fetchable.
const DefaultQueueCap = 64

// Registry tracks every live device session on a server: who is
// connected, and a bounded per-session send queue for server-initiated
// traffic. It is the server's transport.Notifier:
// wake-up pings, schedule pushes, and epoch-invalidation broadcasts all
// go through it (server.Config.Push).
//
// Lock order is registry → session everywhere. Per-session enqueue hooks
// (Session.SetOnEnqueue) may run with the registry lock held and must not
// re-enter the registry.
type Registry struct {
	mu       sync.Mutex
	sessions map[string]*Session
	sent     int

	met registryMetrics
}

type registryMetrics struct {
	active  *obs.Gauge
	opened  *obs.Counter
	closed  *obs.Counter
	pushes  *obs.Counter
	wakes   *obs.Counter
	dropped *obs.Counter
}

// RegistryOption configures NewRegistry.
type RegistryOption func(*Registry)

// WithRegistryMetrics registers the sor_session_* series on reg.
func WithRegistryMetrics(reg *obs.Registry) RegistryOption {
	return func(r *Registry) {
		r.met = registryMetrics{
			active:  reg.Gauge("sor_session_active"),
			opened:  reg.Counter("sor_session_opened_total"),
			closed:  reg.Counter("sor_session_closed_total"),
			pushes:  reg.Counter("sor_session_pushes_total"),
			wakes:   reg.Counter("sor_session_wakes_total"),
			dropped: reg.Counter("sor_session_push_dropped_total"),
		}
	}
}

// NewRegistry builds an empty session registry.
func NewRegistry(opts ...RegistryOption) *Registry {
	r := &Registry{
		sessions: make(map[string]*Session),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

var _ transport.Notifier = (*Registry)(nil)

// Session is one live device stream's server-side state: its negotiated
// capabilities and a bounded pending queue of server-initiated messages.
// The transport that owns the socket consumes the
// queue via Ready/TakePending (or an OnEnqueue hook in deterministic
// simulations).
type Session struct {
	reg   *Registry
	token string
	caps  []string

	mu         sync.Mutex
	pending    []wire.Message
	wakeQueued bool
	onEnqueue  func()
	closed     bool

	notify chan struct{}
	done   chan struct{}

	pushed  atomic.Int64
	dropped atomic.Int64
}

// Attach registers a live session for token, displacing (closing) any
// previous session with the same token — the device reconnected before
// the server noticed the old stream die. It reports whether a previous
// session was displaced, which the handshake surfaces as Welcome.Resumed.
func (r *Registry) Attach(token string, caps []string) (s *Session, displaced bool, err error) {
	if token == "" {
		return nil, false, errors.New("session: empty token")
	}
	r.mu.Lock()
	old := r.sessions[token]
	s = &Session{
		reg:    r,
		token:  token,
		caps:   append([]string(nil), caps...),
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	r.sessions[token] = s
	r.met.opened.Inc()
	if old == nil {
		r.met.active.Add(1)
	}
	r.mu.Unlock()
	if old != nil {
		old.closeInternal(false)
	}
	return s, old != nil, nil
}

// detach removes s from the map if it is still the current session for
// its token. Returns whether the active-session count dropped.
func (r *Registry) detach(s *Session) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sessions[s.token] == s {
		delete(r.sessions, s.token)
		r.met.active.Add(-1)
		return true
	}
	return false
}

// Count returns how many sessions are live.
func (r *Registry) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Sent reports how many wake-ups were delivered.
func (r *Registry) Sent() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sent
}

// Notify implements transport.Notifier: queue a coalesced wake-up ping on
// token's session. Unknown tokens are an error (the phone is truly
// unreachable).
func (r *Registry) Notify(token string) error {
	r.mu.Lock()
	s, ok := r.sessions[token]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("session: token %q not connected", token)
	}
	err := s.enqueue(&wire.Ping{Token: token}, true)
	if err == nil {
		r.sent++
		r.met.wakes.Inc()
	}
	r.mu.Unlock()
	return err
}

// PushMessage implements transport.Notifier: queue a full message
// (schedule push, invalidation) for token's session.
func (r *Registry) PushMessage(token string, m wire.Message) error {
	r.mu.Lock()
	s, ok := r.sessions[token]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("session: token %q not connected", token)
	}
	err := s.enqueue(m, false)
	if err == nil {
		r.met.pushes.Inc()
	}
	r.mu.Unlock()
	return err
}

// Broadcast implements transport.Notifier: queue m on every live
// session, in sorted token order (deterministic under a virtual clock),
// returning how many sessions accepted it.
func (r *Registry) Broadcast(m wire.Message) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	tokens := make([]string, 0, len(r.sessions))
	for t := range r.sessions {
		tokens = append(tokens, t)
	}
	sort.Strings(tokens)
	n := 0
	for _, t := range tokens {
		if err := r.sessions[t].enqueue(m, false); err == nil {
			r.met.pushes.Inc()
			n++
		}
	}
	return n
}

// CloseAll severs every live session (a chaos kill or shutdown).
func (r *Registry) CloseAll() {
	r.mu.Lock()
	sessions := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		sessions = append(sessions, s)
	}
	r.mu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
}

// Caps returns the session's negotiated capabilities.
func (s *Session) Caps() []string { return s.caps }

// Done is closed when the session is closed or displaced.
func (s *Session) Done() <-chan struct{} { return s.done }

// Closed reports whether the session is gone.
func (s *Session) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Ready signals (coalesced, capacity 1) whenever the pending queue goes
// non-empty; the socket writer selects on it.
func (s *Session) Ready() <-chan struct{} { return s.notify }

// SetOnEnqueue installs a hook called after every successful enqueue —
// the deterministic simulator's substitute for a writer goroutine parked
// on Ready. The hook may run with the registry lock held; it must not
// re-enter the registry. Install before the session sees traffic.
func (s *Session) SetOnEnqueue(fn func()) {
	s.mu.Lock()
	s.onEnqueue = fn
	s.mu.Unlock()
}

// enqueue queues m for delivery. A wake enqueue coalesces: if a wake ping
// is already pending, the new one is absorbed (still counted as sent —
// the phone will wake exactly once, which is all a wake means). When the
// queue is full the oldest entry is evicted, so a stalled phone costs
// bounded memory and always sees the newest pushes.
func (s *Session) enqueue(m wire.Message, wake bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	if wake && s.wakeQueued {
		s.mu.Unlock()
		return nil
	}
	if len(s.pending) >= DefaultQueueCap {
		if _, wasWake := s.pending[0].(*wire.Ping); wasWake {
			s.wakeQueued = false
		}
		s.pending = s.pending[1:]
		s.dropped.Add(1)
		s.reg.met.dropped.Inc()
	}
	s.pending = append(s.pending, m)
	if wake {
		s.wakeQueued = true
	}
	s.pushed.Add(1)
	hook := s.onEnqueue
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	if hook != nil {
		hook()
	}
	return nil
}

// TakePending removes and returns everything queued, in order.
func (s *Session) TakePending() []wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.pending
	s.pending = nil
	s.wakeQueued = false
	return out
}

// Close severs the session: it leaves the registry (if still current) and
// Done closes. Idempotent.
func (s *Session) Close() { s.closeInternal(true) }

func (s *Session) closeInternal(detach bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	if detach {
		s.reg.detach(s)
	}
	s.reg.met.closed.Inc()
	close(s.done)
}
