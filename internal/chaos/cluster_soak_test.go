package chaos

import (
	"testing"
)

// TestClusterSoakConvergesToBaselines is the scale-out tentpole proof:
// two shards of two nodes each behind a rendezvous-routing router — all
// on one virtual clock — survive random kill -9s on every role, timed
// follower partitions, seeded checkpoints, one planned failover per
// shard (one reconciled by the operator, one left for the router's own
// discovery probes), and one follower deliberately orphaned past
// compaction that rejoins via snapshot-ship resync. Afterward every
// node of each shard carries a state digest byte-identical to a
// never-crashed single-node baseline that applied only that shard's
// category workload: sharding, routing, failover, and resync are all
// invisible in the final state. The calm row is the A/B: the same
// scenario with the seeded chaos off reaches the same digests.
func TestClusterSoakConvergesToBaselines(t *testing.T) {
	for _, name := range []string{"cluster", "cluster-calm"} {
		t.Run(name, func(t *testing.T) {
			for _, seed := range clusterSeeds(t) {
				res := runClusterSoak(t, "cluster", name, seed, 2)
				if res.Failovers != 2 {
					t.Fatalf("seed %d: %d planned failovers performed, want 2\n%s",
						seed, res.Failovers, repro(t, seed))
				}
				if res.RouterFailovers == 0 {
					t.Fatalf("seed %d: the router never discovered a promotion\n%s",
						seed, repro(t, seed))
				}
				if res.Resyncs != 1 {
					t.Fatalf("seed %d: %d snapshot-ship resyncs performed, want 1\n%s",
						seed, res.Resyncs, repro(t, seed))
				}
				if len(res.Digests) != 2 {
					t.Fatalf("seed %d: %d category digests, want 2\n%s",
						seed, len(res.Digests), repro(t, seed))
				}
			}
		})
	}
}

// TestClusterSoakDeterministic pins the cluster row as a pure function of
// its seed.
func TestClusterSoakDeterministic(t *testing.T) {
	clusterSoakTwice(t, "cluster", 7, 3)
}

// Summary renders the soak telemetry for logs, in the entry's format.
func (r *ClusterResult) Summary() string { return r.summary(r) }
