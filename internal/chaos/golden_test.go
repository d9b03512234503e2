package chaos

import (
	"fmt"
	"sort"
	"testing"

	"sor/internal/world"
)

// The goldens pin the experiments across commits: a refactor of an engine,
// or of anything underneath it, that changes what a seed replays — one
// draw more, one pull later — changes a line here even when every run
// still converges. They were recorded from the five hand-written drivers
// the scenario table replaced.

// clusterSummaryGolden maps "family/seed/kills" to the run's Summary().
// A cluster row's "N checkpoints" also moves with WAL record sizes: its
// resync step checkpoints until the log outgrows the orphan.
var clusterSummaryGolden = map[string]string{
	"replica/1/10":    "22 ops in 600 steps (0 deferred); 10 kills, 2 partitions, 19 checkpoints, 1 failover; 20 pull errors; 73 rank probes (0 stale-flagged, 5 refused); digest 6c4c660fbb25",
	"replica/42/10":   "22 ops in 600 steps (0 deferred); 10 kills, 3 partitions, 12 checkpoints, 1 failover; 50 pull errors; 84 rank probes (0 stale-flagged, 2 refused); digest 6c4c660fbb25",
	"replica/1337/10": "22 ops in 606 steps (0 deferred); 10 kills, 3 partitions, 19 checkpoints, 1 failover; 73 pull errors; 79 rank probes (0 stale-flagged, 5 refused); digest 6c4c660fbb25",
	"replica/7/4":     "22 ops in 600 steps (0 deferred); 4 kills, 3 partitions, 21 checkpoints, 1 failover; 43 pull errors; 90 rank probes (0 stale-flagged, 1 refused); digest 6c4c660fbb25",
	"replica/1/3":     "22 ops in 600 steps (0 deferred); 3 kills, 3 partitions, 21 checkpoints, 1 failover; 21 pull errors; 84 rank probes (0 stale-flagged, 0 refused); digest 6c4c660fbb25",
	"cluster/1/6":     "32 ops in 600 steps (2 deferred); 6 kills, 2 partitions, 23 checkpoints; 2 planned failovers (1 router-discovered), 1 snapshot-ship resyncs; 34 pull errors, 56 rank probes",
	"cluster/42/6":    "32 ops in 600 steps (0 deferred); 6 kills, 2 partitions, 20 checkpoints; 2 planned failovers (1 router-discovered), 1 snapshot-ship resyncs; 26 pull errors, 53 rank probes",
	"cluster/1337/6":  "32 ops in 600 steps (0 deferred); 6 kills, 2 partitions, 22 checkpoints; 2 planned failovers (1 router-discovered), 1 snapshot-ship resyncs; 37 pull errors, 54 rank probes",
	"cluster/7/3":     "32 ops in 600 steps (0 deferred); 3 kills, 2 partitions, 19 checkpoints; 2 planned failovers (1 router-discovered), 1 snapshot-ship resyncs; 14 pull errors, 61 rank probes",
	"cluster/1/2":     "32 ops in 600 steps (0 deferred); 2 kills, 2 partitions, 19 checkpoints; 2 planned failovers (1 router-discovered), 1 snapshot-ship resyncs; 17 pull errors, 47 rank probes",
}

// clusterDigestGolden maps "family/category" to the state digest every
// run of the family — any seed, chaotic or calm — converges to (the
// workload is seed-independent; only the chaos between the ops varies).
var clusterDigestGolden = map[string]string{
	"replica/" + world.CategoryCoffee: "6c4c660fbb25b921129d409694806770aeb8716bfd3c8c37c4ff8f65bb0a2695",
	"cluster/" + world.CategoryCoffee: "afbf6ac2400922b20eab3b3ca2505d429ff9cb20d6e0dc642697c10f24c9234f",
	"cluster/" + world.CategoryTrail:  "bc7f5411808c73fb9df38d18e9e01bbef677f69ae15c0de0c8ecd12a4a71430b",
}

// checkClusterGolden compares a run of one of the family's rows against
// the goldens: its digests always, its Summary() when (seed, kills) is one
// of the pinned runs (a calm row, or a SOR_SOAK_SEED replay of another
// seed, is not).
func checkClusterGolden(t *testing.T, family string, sc Cluster, res *ClusterResult) {
	t.Helper()
	for cat, got := range res.Digests {
		if want := clusterDigestGolden[family+"/"+cat]; got != want {
			t.Errorf("%s seed %d: %s digest %s, golden %s", family, sc.Seed, cat, got, want)
		}
	}
	want, pinned := clusterSummaryGolden[fmt.Sprintf("%s/%d/%d", family, sc.Seed, sc.Kills)]
	if pinned && res.Summary() != want {
		t.Errorf("%s seed %d, %d kills replayed a different run:\n got  %s\n want %s",
			family, sc.Seed, sc.Kills, res.Summary(), want)
	}
}

// fleetDigestGolden maps "phones/budget/seed" to the Result.Digest every
// fleet entry converges to, chaotic or clean: one fleet run through the
// transport × storage grid is one experiment.
var fleetDigestGolden = map[string]string{
	"6/4/42": "3e5fa8c1e76a66750dbbd9607c52820110a9efdd74efd2b7fbc8681f13dbd32a",
	"3/3/42": "371479fb33e1371da300e12badac2856f92c1f273fbf03efad270f5bcdbcf894",
	"4/4/7":  "b3e851011753529b04d574ef4bbeb247f318f4a08d66682731db8120855fb960",
}

// TestFleetSoaksPinned runs every row of the fleet table — including
// stream × durable × server kills, the cell no hand-written driver
// reached — at three fleet sizes and demands the pinned digest from each.
// Under SOR_SOAK_SEED it runs every row at the replayed seed instead,
// against the digest of the "http" row's clean run.
func TestFleetSoaksPinned(t *testing.T) {
	type fleetSize struct {
		phones, budget int
		seed           int64
	}
	sizes := []fleetSize{{6, 4, 42}, {3, 3, 42}, {4, 4, 7}}
	if replay := soakSeed(t, 0); replay != 0 {
		sizes = []fleetSize{{6, 4, replay}}
	}
	names := make([]string, 0, len(FleetSoaks))
	for name := range FleetSoaks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, size := range sizes {
		key := fmt.Sprintf("%d/%d/%d", size.phones, size.budget, size.seed)
		run := func(t *testing.T, sc Fleet) string {
			t.Helper()
			sc.Phones, sc.Budget, sc.Seed = size.phones, size.budget, size.seed
			if sc.Durable {
				sc.DataDir = t.TempDir()
			}
			if sc.ServerKills > 3 {
				sc.ServerKills = 3 // each may wait out its 400 ms fallback
			}
			res, err := RunFleet(sc)
			if err != nil {
				t.Fatalf("%v\n%s", err, repro(t, size.seed))
			}
			if res.Pending != 0 || res.Stored != sc.Phones {
				t.Fatalf("stored %d of %d reports, %d pending\n%s", res.Stored, sc.Phones, res.Pending, repro(t, size.seed))
			}
			return res.Digest()
		}
		want, pinned := fleetDigestGolden[key]
		if !pinned {
			want = run(t, FleetSoaks["http"].Clean())
		}
		for _, name := range names {
			t.Run(fmt.Sprintf("%s/%dx%d@%d", name, size.phones, size.budget, size.seed), func(t *testing.T) {
				if got := run(t, FleetSoaks[name]); got != want {
					t.Fatalf("digest %s, want %s\n%s", got, want, repro(t, size.seed))
				}
			})
		}
	}
}
