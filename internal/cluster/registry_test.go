package cluster

import (
	"path/filepath"
	"testing"
	"time"

	"sor/internal/vclock"
)

var t0 = time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC)

func twoShards(t *testing.T, opts ...RegistryOption) *Registry {
	t.Helper()
	r := NewRegistry(opts...)
	r.AddShard("shard-a")
	r.AddShard("shard-b")
	for _, m := range []Member{
		{Name: "a1", Shard: "shard-a", Role: RoleLeader, Addr: "a1"},
		{Name: "a2", Shard: "shard-a", Role: RoleReplica, Addr: "a2"},
		{Name: "b1", Shard: "shard-b", Role: RoleLeader, Addr: "b1"},
		{Name: "b2", Shard: "shard-b", Role: RoleReplica, Addr: "b2"},
	} {
		if err := r.AddMember(m); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestShardForIsDeterministic(t *testing.T) {
	r := twoShards(t)
	for _, key := range []string{"coffee-shop", "hiking-trail", "parking", "x"} {
		first := r.ShardFor(key)
		if first == "" {
			t.Fatalf("no shard for %q", key)
		}
		for i := 0; i < 5; i++ {
			if got := r.ShardFor(key); got != first {
				t.Fatalf("ShardFor(%q) flapped: %s then %s", key, first, got)
			}
		}
	}
}

// TestRendezvousStability is the property that justifies rendezvous over
// modulo hashing: adding a shard only moves keys that land ON the new
// shard; every other key keeps its home.
func TestRendezvousStability(t *testing.T) {
	r := twoShards(t)
	keys := make([]string, 0, 200)
	for i := 0; i < 200; i++ {
		keys = append(keys, "category-"+string(rune('a'+i%26))+string(rune('0'+i/26)))
	}
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.ShardFor(k)
	}
	r.AddShard("shard-c")
	moved := 0
	for _, k := range keys {
		after := r.ShardFor(k)
		if after != before[k] {
			if after != "shard-c" {
				t.Fatalf("key %q moved %s→%s, not to the new shard", k, before[k], after)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no key moved to the new shard (hash is degenerate)")
	}
	if moved > len(keys)/2 {
		t.Fatalf("%d/%d keys moved; rendezvous should move ~1/3", moved, len(keys))
	}
}

func TestPinOverridesRendezvous(t *testing.T) {
	r := twoShards(t)
	key := "coffee-shop"
	natural := r.ShardFor(key)
	other := "shard-a"
	if natural == "shard-a" {
		other = "shard-b"
	}
	r.PinKey(key, other)
	if got := r.ShardFor(key); got != other {
		t.Fatalf("pinned key routed to %s, want %s", got, other)
	}
}

func TestRegistryPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	r := twoShards(t, WithRegistryPath(path))
	r.RegisterApp("app-sb", "coffee-shop")
	r.PinKey("hiking-trail", "shard-b")
	if err := r.SetRole("a1", RoleReplica); err != nil {
		t.Fatal(err)
	}
	if err := r.SetRole("a2", RoleLeader); err != nil {
		t.Fatal(err)
	}

	r2, err := LoadRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Shards(); len(got) != 2 || got[0] != "shard-a" || got[1] != "shard-b" {
		t.Fatalf("reloaded shards = %v", got)
	}
	if ld, ok := r2.LeaderOf("shard-a"); !ok || ld.Name != "a2" {
		t.Fatalf("reloaded shard-a leader = %+v, %v", ld, ok)
	}
	if cat, ok := r2.AppCategory("app-sb"); !ok || cat != "coffee-shop" {
		t.Fatalf("reloaded app alias = %q, %v", cat, ok)
	}
	if got := r2.ShardFor("hiking-trail"); got != "shard-b" {
		t.Fatalf("reloaded pin routed to %s", got)
	}
	// A key's assignment survives the round trip byte-for-byte (no seed,
	// no map-order dependence).
	if r.ShardFor("parking") != r2.ShardFor("parking") {
		t.Fatal("rendezvous assignment changed across persistence")
	}
}

func TestLoadRegistryMissingFileIsEmpty(t *testing.T) {
	r, err := LoadRegistry(filepath.Join(t.TempDir(), "none.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ShardFor("anything"); got != "" {
		t.Fatalf("empty registry assigned %q", got)
	}
}

func TestLivenessRidesTheClock(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	r := twoShards(t, WithRegistryClock(clk), WithMemberTTL(5*time.Second))
	if live(r, "a1") {
		t.Fatal("member live before any heartbeat")
	}
	r.MarkAlive("a1", 42)
	if !live(r, "a1") {
		t.Fatal("member dead right after heartbeat")
	}
	clk.Advance(6 * time.Second)
	if live(r, "a1") {
		t.Fatal("member live past TTL")
	}
	st := r.Status()
	for _, ss := range st.Shards {
		for _, m := range ss.Members {
			if m.Name == "a1" {
				if m.Live || m.AppliedLSN != 42 || m.SilentForMS != 6000 {
					t.Fatalf("a1 status = %+v", m)
				}
				return
			}
		}
	}
	t.Fatal("a1 missing from status")
}

func TestAddMemberValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.AddMember(Member{Name: "", Role: RoleLeader, Shard: "s"}); err == nil {
		t.Fatal("nameless member accepted")
	}
	if err := r.AddMember(Member{Name: "x", Role: "boss", Shard: "s"}); err == nil {
		t.Fatal("unknown role accepted")
	}
	if err := r.AddMember(Member{Name: "x", Role: RoleLeader}); err == nil {
		t.Fatal("shardless leader accepted")
	}
	if err := r.AddMember(Member{Name: "r", Role: RoleRouter, Addr: "r"}); err != nil {
		t.Fatalf("shardless router refused: %v", err)
	}
}

// live reports a member's liveness as the registry's Status shows it.
func live(r *Registry, name string) bool {
	for _, ss := range r.Status().Shards {
		for _, m := range ss.Members {
			if m.Name == name {
				return m.Live
			}
		}
	}
	return false
}
