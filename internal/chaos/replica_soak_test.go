package chaos

import (
	"testing"
)

// clusterSeeds is the seed sweep of a converge test: three seeds in full,
// the first under -short, or only SOR_SOAK_SEED when replaying a failure.
func clusterSeeds(t *testing.T) []int64 {
	t.Helper()
	if replay := soakSeed(t, 0); replay != 0 {
		return []int64{replay}
	}
	if testing.Short() {
		return []int64{1}
	}
	return []int64{1, 42, 1337}
}

// runClusterSoak runs the named ClusterSoaks row at seed — with shortKills
// kills under -short, when the row has kills at all — and checks what
// holds for every row: the chaos quota was spent exactly and the run
// matches the goldens of its family.
func runClusterSoak(t *testing.T, family, name string, seed int64, shortKills int) *ClusterResult {
	t.Helper()
	sc, ok := ClusterSoaks[name]
	if !ok {
		t.Fatalf("no cluster scenario %q", name)
	}
	sc.Seed, sc.BaseDir = seed, t.TempDir()
	if testing.Short() && sc.Kills > 0 {
		sc.Kills = shortKills
	}
	res, err := RunCluster(sc)
	if err != nil {
		t.Fatalf("seed %d: %v\n%s", seed, err, repro(t, seed))
	}
	if res.Kills != sc.Kills {
		t.Fatalf("seed %d: %d kills requested, %d performed\n%s", seed, sc.Kills, res.Kills, repro(t, seed))
	}
	if res.Partitions > sc.Partitions {
		t.Fatalf("seed %d: %d partitions allowed, %d performed\n%s", seed, sc.Partitions, res.Partitions, repro(t, seed))
	}
	checkClusterGolden(t, family, sc, res)
	t.Logf("seed %d converged: %s", seed, res.Summary())
	return res
}

// TestReplicaSoakConvergesToBaseline is the replication tentpole proof:
// a 3-node cluster — leader plus two WAL-streaming followers on virtual
// time — survives random kill -9s on every role, timed leader
// partitions, seeded checkpoints (WAL truncation racing the shipper),
// and one planned failover promotion with old-leader rejoin, and every
// node's final state digest is byte-identical to a never-crashed
// single-node baseline that applied the same workload. The engine itself
// enforces the per-read contracts along the way: rank reads past the
// staleness bound are refused, lagging reads carry the Stale flag, and no
// follower is ever forced into a resync (the retention guard). The calm
// row is the A/B: the same scenario with the seeded chaos off reaches the
// same digest.
func TestReplicaSoakConvergesToBaseline(t *testing.T) {
	for _, name := range []string{"replica", "replica-calm"} {
		t.Run(name, func(t *testing.T) {
			for _, seed := range clusterSeeds(t) {
				res := runClusterSoak(t, "replica", name, seed, 3)
				if res.Failovers != 1 {
					t.Fatalf("seed %d: %d failovers performed\n%s", seed, res.Failovers, repro(t, seed))
				}
				if res.Probes == 0 {
					t.Fatalf("seed %d: staleness gate never probed\n%s", seed, repro(t, seed))
				}
			}
		})
	}
}

// clusterSoakTwice runs the family's chaotic row twice at one seed and
// kill count and demands identical digests AND telemetry: the engine is a
// pure function of its scenario, so a failure report's repro instructions
// actually reproduce the failing run.
func clusterSoakTwice(t *testing.T, family string, seed int64, kills int) {
	t.Helper()
	sc := ClusterSoaks[family]
	sc.Seed, sc.Kills = seed, kills
	var runs [2]*ClusterResult
	for i := range runs {
		sc.BaseDir = t.TempDir()
		res, err := RunCluster(sc)
		if err != nil {
			t.Fatal(err)
		}
		checkClusterGolden(t, family, sc, res)
		runs[i] = res
	}
	if runs[0].Summary() != runs[1].Summary() {
		t.Fatalf("same seed, different runs:\n%s\n%s", runs[0].Summary(), runs[1].Summary())
	}
	for cat, d := range runs[0].Digests {
		if runs[1].Digests[cat] != d {
			t.Fatalf("same seed, different %s digest: %.12s vs %.12s", cat, d, runs[1].Digests[cat])
		}
	}
}

// TestReplicaSoakDeterministic pins the replica row as a pure function of
// its seed.
func TestReplicaSoakDeterministic(t *testing.T) {
	clusterSoakTwice(t, "replica", 7, 4)
}
