// Package cluster is SOR's scale-out tier: an app-sharded routing and
// membership layer on top of internal/replica. A Registry tracks named
// nodes (the hub-of-named-nodes pattern: registration, roles, liveness
// heartbeats) and assigns every routing key to a shard by rendezvous
// hashing; a Router forwards phone traffic to the owning shard's leader
// over the ordinary transport seam, failing over to a promoted standby
// when the leader dies. The routing key for an app is its *category*, so
// all apps of one category co-locate on one shard and a rank-by-category
// query has exactly one home.
//
// Cross-shard exactly-once needs no new machinery: the ReportID dedup
// window and idempotent budget charging that make phone retries safe
// make router retries safe too.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"sync"
	"time"

	"sor/internal/vclock"
)

// Roles a registered member can hold.
const (
	RoleLeader  = "leader"
	RoleReplica = "replica"
	RoleRouter  = "router"
)

// DefaultMemberTTL is how long a member stays "live" after its last
// heartbeat.
const DefaultMemberTTL = 10 * time.Second

// Member is one named node in the cluster map.
type Member struct {
	// Name is the node's unique registered name ("shard-a-1").
	Name string `json:"name"`
	// Shard is the shard the member serves; empty for routers.
	Shard string `json:"shard,omitempty"`
	// Role is RoleLeader, RoleReplica, or RoleRouter.
	Role string `json:"role"`
	// Addr is how to reach the member (URL for the HTTP transport, or an
	// opaque key a simulation's dialer understands).
	Addr string `json:"addr"`
}

// memberState is a member plus its runtime liveness view.
type memberState struct {
	Member
	lastSeen   time.Time
	everSeen   bool
	appliedLSN uint64
}

// registryFile is the persisted cluster map.
type registryFile struct {
	Shards  []string          `json:"shards"`
	Members []Member          `json:"members"`
	Apps    map[string]string `json:"apps,omitempty"` // app id -> category
	Pins    map[string]string `json:"pins,omitempty"` // routing key -> shard
}

// RegistryOption tunes a Registry.
type RegistryOption func(*Registry)

// WithRegistryPath persists the map to path (temp+rename) on every
// mutation; Load restores it. Empty keeps the map in memory only.
func WithRegistryPath(path string) RegistryOption {
	return func(r *Registry) { r.path = path }
}

// WithRegistryClock substitutes the liveness clock (simulations pass a
// *vclock.Virtual so heartbeats ride virtual time).
func WithRegistryClock(clk vclock.Clock) RegistryOption {
	return func(r *Registry) { r.clock = vclock.Or(clk) }
}

// WithMemberTTL overrides the heartbeat liveness window.
func WithMemberTTL(d time.Duration) RegistryOption {
	return func(r *Registry) { r.ttl = d }
}

// Registry is the cluster map: shards, named members with roles, the
// app→category routing aliases, and heartbeat liveness. Assignment of a
// routing key to a shard is rendezvous (highest-random-weight) hashing,
// so adding a shard moves only the keys that land on it and removing one
// scatters only its own keys.
type Registry struct {
	path  string
	clock vclock.Clock
	ttl   time.Duration

	mu      sync.Mutex
	shards  []string
	members map[string]*memberState
	apps    map[string]string
	pins    map[string]string
}

// NewRegistry builds an empty registry.
func NewRegistry(opts ...RegistryOption) *Registry {
	r := &Registry{
		clock:   vclock.Real{},
		ttl:     DefaultMemberTTL,
		members: make(map[string]*memberState),
		apps:    make(map[string]string),
		pins:    make(map[string]string),
	}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// LoadRegistry restores a registry from its map file; a missing file
// yields an empty registry that will create the file on first mutation.
func LoadRegistry(path string, opts ...RegistryOption) (*Registry, error) {
	r := NewRegistry(append(opts, WithRegistryPath(path))...)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return r, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: reading map %s: %w", path, err)
	}
	var f registryFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("cluster: decoding map %s: %w", path, err)
	}
	r.shards = append(r.shards, f.Shards...)
	sort.Strings(r.shards)
	for _, m := range f.Members {
		r.members[m.Name] = &memberState{Member: m}
	}
	for id, cat := range f.Apps {
		r.apps[id] = cat
	}
	for key, shard := range f.Pins {
		r.pins[key] = shard
	}
	return r, nil
}

// persistLocked writes the map file atomically. Best-effort, like the
// replica ack ledger: a failed write costs durability across a restart,
// never correctness while this process lives.
func (r *Registry) persistLocked() {
	if r.path == "" {
		return
	}
	f := registryFile{
		Shards: append([]string(nil), r.shards...),
		Apps:   make(map[string]string, len(r.apps)),
		Pins:   make(map[string]string, len(r.pins)),
	}
	for _, m := range r.members {
		f.Members = append(f.Members, m.Member)
	}
	sort.Slice(f.Members, func(i, j int) bool { return f.Members[i].Name < f.Members[j].Name })
	for id, cat := range r.apps {
		f.Apps[id] = cat
	}
	for key, shard := range r.pins {
		f.Pins[key] = shard
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return
	}
	tmp := r.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, r.path)
}

// AddShard registers a shard name (idempotent).
func (r *Registry) AddShard(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.shards {
		if s == name {
			return
		}
	}
	r.shards = append(r.shards, name)
	sort.Strings(r.shards)
	r.persistLocked()
}

// AddMember registers (or replaces) a named member.
func (r *Registry) AddMember(m Member) error {
	if m.Name == "" {
		return errors.New("cluster: member needs a name")
	}
	switch m.Role {
	case RoleLeader, RoleReplica, RoleRouter:
	default:
		return fmt.Errorf("cluster: unknown role %q", m.Role)
	}
	if m.Role != RoleRouter && m.Shard == "" {
		return fmt.Errorf("cluster: member %s needs a shard", m.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.members[m.Name] = &memberState{Member: m}
	r.persistLocked()
	return nil
}

// SetRole records a role change (a failover's Demote/Promote pair, or a
// heartbeat discovering a promotion).
func (r *Registry) SetRole(name, role string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[name]
	if !ok {
		return fmt.Errorf("cluster: unknown member %q", name)
	}
	m.Role = role
	r.persistLocked()
	return nil
}

// RegisterApp aliases an app to its category — the routing key. Every
// app of one category lands on the same shard, which is what lets a
// rank-by-category query route to exactly one home.
func (r *Registry) RegisterApp(appID, category string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.apps[appID] = category
	r.persistLocked()
}

// AppCategory resolves an app's routing key.
func (r *Registry) AppCategory(appID string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cat, ok := r.apps[appID]
	return cat, ok
}

// PinKey overrides rendezvous assignment for one routing key (operator
// escape hatch: drain a hot category onto its own shard).
func (r *Registry) PinKey(key, shard string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pins[key] = shard
	r.persistLocked()
}

// rendezvousScore is FNV-1a 64 over shard\x00key pushed through a
// 64-bit finalizer — cheap and stable across processes (no seed, no map
// iteration order). The finalizer matters: FNV's multiply only diffuses
// differences toward the high bits, so keys sharing a long prefix score
// within a few low-order bits of each other and one shard would win
// every such key. Full avalanche restores the per-key shard ordering
// rendezvous hashing depends on.
func rendezvousScore(shard, key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(shard))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ShardFor assigns a routing key: pins win, then the shard with the
// highest rendezvous score. Empty string when no shards exist.
func (r *Registry) ShardFor(key string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if shard, ok := r.pins[key]; ok {
		return shard
	}
	var best string
	var bestScore uint64
	for _, s := range r.shards {
		if score := rendezvousScore(s, key); best == "" || score > bestScore {
			best, bestScore = s, score
		}
	}
	return best
}

// Shards lists the registered shard names, sorted.
func (r *Registry) Shards() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.shards...)
}

// LeaderOf names the shard's current leader.
func (r *Registry) LeaderOf(shard string) (Member, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.members {
		if m.Shard == shard && m.Role == RoleLeader {
			return m.Member, true
		}
	}
	return Member{}, false
}

// MembersOf lists a shard's members, sorted by name.
func (r *Registry) MembersOf(shard string) []Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Member
	for _, m := range r.members {
		if m.Shard == shard {
			out = append(out, m.Member)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MarkAlive records a heartbeat reply from a member.
func (r *Registry) MarkAlive(name string, appliedLSN uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[name]; ok {
		m.lastSeen = r.clock.Now()
		m.everSeen = true
		m.appliedLSN = appliedLSN
	}
}
