package chaos

import (
	"fmt"
	"time"

	"sor/internal/world"
)

// FleetSoaks is the fleet engine's scenario table: transport × storage ×
// faults. An entry is a template — the caller sizes the fleet, sets Seed
// (and DataDir for durable entries), may turn individual faults up or
// down, and hands it to RunFleet; entry.Clean() is its baseline. For one
// (Phones, Budget, Seed) every entry, chaotic or clean, converges to the
// same Result.Digest.
var FleetSoaks = map[string]Fleet{
	// The original exactly-once soak: one-shot HTTP against a memory
	// server over a network dropping requests and acks, spiking, and
	// partitioning as the fleet uploads.
	"http": {Faults: Faults{
		RequestLoss: 0.3, AckLoss: 0.3, SpikeProb: 0.1, Spike: 2 * time.Millisecond,
		Partition: 150 * time.Millisecond,
	}},
	// The crash-restart soak: the same lossy network in front of a durable
	// server that is killed -9 and recovered from snapshot + WAL mid-run.
	"crash": {Durable: true, Faults: Faults{
		RequestLoss: 0.3, AckLoss: 0.3, SpikeProb: 0.1, Spike: 2 * time.Millisecond,
		Partition: 30 * time.Millisecond, ServerKills: 10,
	}},
	// The session soak: persistent multiplexed streams cut by a partition,
	// by timed connection kills, and mid-batch — after the server
	// committed an upload, before its ack frame left.
	"session": {Stream: true, Faults: Faults{
		Partition: 150 * time.Millisecond, ConnKills: 4, MidBatchKills: 2,
	}},
	// Stream sessions against a durable server that is killed -9 and
	// recovered: every kill takes the listener and all sessions with it.
	// The partition parks the reports first, so the kills land on a fleet
	// that is still draining.
	"stream-crash": {Stream: true, Durable: true, Faults: Faults{
		Partition: 30 * time.Millisecond, ServerKills: 2,
	}},
}

// ClusterSoaks is the cluster engine's scenario table: topology × store ×
// workload × rules × invariants. An entry is a template — the caller sets
// Seed and BaseDir (and may change Kills and Partitions; zero means none)
// and hands it to RunCluster. The "-calm" entries are their namesakes
// with the seeded chaos off; the scripted failovers and resync still run.
// Every entry of a family converges to the same digests.
//
// Adding a fault class is adding a rule (and listing it where it should
// draw); adding a topology is adding a row. Editing the rule list of an
// existing row changes the run every seed replays.
var ClusterSoaks = map[string]Cluster{
	"replica":      replicaSoak(10, 3),
	"replica-calm": replicaSoak(0, 0),
	"cluster":      clusterSoak(6, 2),
	"cluster-calm": clusterSoak(0, 0),
}

// replicaSoak is the replication soak: one shard of a leader and two
// WAL-streaming followers, written to directly, with one planned failover
// mid-workload and every replica read checked against a 600 ms staleness
// bound (short enough that partitions outlive it, so the refusal path is
// exercised). No follower may ever be forced into a resync.
func replicaSoak(kills, partitions int) Cluster {
	return Cluster{
		Kills: kills, Partitions: partitions,
		shards: []string{"node"}, nodes: 3,
		node:   durableNode{segmentBytes: 4096, checkpoint: time.Hour, maxLag: 600 * time.Millisecond},
		apps:   []soakApp{coffeeApp("app-repl", "repl")},
		phones: 4, uploads: 5, minSteps: 600,
		rngSalt: 0x5e91d0de,
		rules: []rule{
			restartDue,
			killNode(anyNode),
			partitionNode(anyNonLeader),
			checkpointNode(anyNode),
			plannedFailovers,
			followerPulls,
			probeStaleness(0.2),
			applyNextOp,
		},
		failovers:  []plannedFailover{{shard: 0, num: 1, den: 2}},
		invariants: []func(*clusterRun) error{logHeadsMatch},
		summary: func(r *ClusterResult) string {
			return fmt.Sprintf(
				"%d ops in %d steps (%d deferred); %d kills, %d partitions, %d checkpoints, %d failover; "+
					"%d pull errors; %d rank probes (%d stale-flagged, %d refused); digest %.12s",
				r.Ops, r.Steps, r.OpRetries, r.Kills, r.Partitions, r.Checkpoints, r.Failovers,
				r.PullErrors, r.Probes, r.StaleServed, r.StaleRefused, r.Digests[world.CategoryCoffee])
		},
	}
}

// clusterSoak is the scale-out soak: two shards of two nodes behind a
// router, one category each, one planned failover per shard — the first
// reconciled into the registry by the operator, the second left for the
// router's probes to discover — and shard 0's follower orphaned past
// compaction, rejoining via snapshot-ship. Segments are tiny so a
// checkpoint truncates past the orphan within a handful of ops.
func clusterSoak(kills, partitions int) Cluster {
	return Cluster{
		Kills: kills, Partitions: partitions,
		shards: []string{"shard-a", "shard-b"}, nodes: 2, routed: true,
		node: durableNode{segmentBytes: 512, checkpoint: time.Hour},
		apps: []soakApp{
			coffeeApp("app-coffee", "app-coffee"),
			{id: "app-trail", prefix: "app-trail", category: world.CategoryTrail,
				place: world.GreenLakeTrail, lat: 43.4512, lon: -76.3105},
		},
		phones: 3, uploads: 5, minSteps: 600,
		rngSalt: 0x0c1a57e4,
		rules: []rule{
			restartDue,
			killNode(shardThenNode),
			partitionNode(shardFollower),
			checkpointNode(shardThenNode),
			plannedFailovers,
			resyncScript,
			routerHeartbeat(0.05),
			followerPulls,
			probeRoutedRank(0.1),
			applyNextOp,
		},
		failovers: []plannedFailover{
			{shard: 0, num: 1, den: 3, reconcile: true},
			{shard: 1, num: 2, den: 3},
		},
		resync:     &plannedResync{shard: 0, num: 1, den: 2},
		invariants: []func(*clusterRun) error{routerFoundFailovers},
		summary: func(r *ClusterResult) string {
			return fmt.Sprintf(
				"%d ops in %d steps (%d deferred); %d kills, %d partitions, %d checkpoints; "+
					"%d planned failovers (%d router-discovered), %d snapshot-ship resyncs; "+
					"%d pull errors, %d rank probes",
				r.Ops, r.Steps, r.OpRetries, r.Kills, r.Partitions, r.Checkpoints,
				r.Failovers, r.RouterFailovers, r.Resyncs, r.PullErrors, r.Probes)
		},
	}
}
