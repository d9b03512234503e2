# SOR reproduction — convenience targets.

GO ?= go

.PHONY: all build test test-short race ckpt-race wal-race recover-race resync-race vet bench bench-smoke bench-test fuzz-smoke obs-smoke chaos chaos-short crash-soak replica-soak replica-soak-short cluster-soak cluster-soak-short fleet-soak fleet-soak-short session-soak session-soak-short ci experiments fieldtest fieldtest-golden fleet-rank sim clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# The checkpoint cut under the race detector, at full size: every image a
# checkpoint installs while ingest, feature, schedule and participation
# writers race it is an exact cut, and three concurrent checkpoints over
# 4 KB segments lose no acked upload across a crash (50 iterations).
ckpt-race:
	$(GO) test -race -count=1 -run 'TestCheckpointIsExactCut|TestConcurrentCheckpointsLoseNothing' ./internal/store/

# The WAL's cursor reader under the race detector: the differential test
# against the whole-file walk (random segment and record sizes, acks
# moving up and down, truncation between pulls, the torn-tail shapes at
# every chunk edge) and concurrent Enqueue + segment rolls + truncation
# + two pulling followers.
wal-race:
	$(GO) test -race -count=1 -run 'TestReadFromMatchesOracle|TestTornTailClassification|TestTornBoundarySegmentPair|TestReadAfterRacingAppendsAndTruncation' ./internal/wal/

# Recovery under the race detector, against a never-restarted twin at
# GOMAXPROCS 1, 2 and 8 (18 apps, seven sensors plus GPS bursts, reports
# that cross a budget): feature rows bit for bit, ledgers, executed
# instants and plans must match. Also the two ordering rules recovery
# relies on: a short budget pays for a report's earliest instants, and
# the same uploads log the same WAL bytes.
recover-race:
	$(GO) test -race -count=1 -run 'TestRecoveryMatchesNeverRestartedTwin|TestChargesTheEarliestInstantsOfAReport|TestSameUploadsLogTheSameRecords' ./internal/server/

# Snapshot-ship resync under the race detector, three times over: the
# leader serves its installed checkpoint through an open fd (two
# checkpoints landing mid-transfer change no byte), holds no image on
# its heap, and frees an abandoned session's fd; the follower streams to
# disk without reassembling the image, refuses a flipped byte with its
# old snapshot and WAL untouched, and rejoins byte-identical.
resync-race:
	$(GO) test -race -count=3 -run 'TestSnapshotShipResync|TestResyncShipsCheckpointChunked|TestSnapPullRefusedWithoutCheckpoint|TestAbandonedResyncSessionsAreFreed|TestResyncSessionsUnderConcurrentDrops|TestResyncValidatesBeforeInstalling|TestResyncServesTheCheckpointAsOpened|TestResyncLeaderHoldsNoImage|TestResyncFollowerHoldsNoImage' ./internal/replica/
	$(GO) test -race -count=3 -run 'TestSnapshotDamageIsRefused' ./internal/store/
	$(GO) test -race -count=3 -run 'TestStartNodeReplicaFollowsAndResyncs' .

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark (catches bit-rot, including the
# 200/2k/10k columnar scaling table) plus the hot-path gates — a
# cached-hit rank query and a 30-member re-plan must stay O(1)
# allocations, and the re-plan inside its gain-evaluation and tree-work
# bounds; the lazy engine returns the eager greedy's plan to the bit;
# concurrent joins and leaves on one app store the latest plan (under
# -race, with the schedule and server packages' short suites); recovery
# decodes each stored upload once; a caught-up follower's pull costs the
# same on a 64 MiB live segment as on a 1 MiB one; an assignment solve
# allocates only its permutation and keeps O(n) scratch. -short
# shrinks the session-fleet and recovery benchmarks; every point of the
# columnar and monolithic scaling tables still runs.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x -short ./...
	$(GO) test -count=1 -run 'TestRankCachedHitAllocs|TestRankTopKBoundsResponse|TestReplanAllocsAndWork|TestJoinCostIndependentOfDeparted|TestFreshCycleAllocs|TestRefreshCostIndependentOfHistory|TestRecoveryAllocsPerUpload' -v ./internal/server/
	$(GO) test -race -count=1 -run 'TestConcurrentOpsStoreTheLatestPlan' -v ./internal/server/
	$(GO) test -count=1 -run 'TestLazyGreedyMatchesEagerExactly' -v ./internal/schedule/
	$(GO) test -race -short ./internal/schedule/ ./internal/server/
	$(GO) test -count=1 -run 'TestReadAfterTailCost' -v ./internal/wal/
	$(GO) test -count=1 -run 'TestSolverSteadyStateAllocs|TestSolverScratchIsLinear' -v ./internal/mcmf/

# The end-to-end benchmark harness (BENCHMARK.json, bench/) is its own
# module, so `go test ./...` at the root never reaches its tests.
bench-test:
	cd bench && $(GO) test ./...

# 10-second fuzz smokes over the decoders that face untrusted bytes: the
# wire decoder (open network), the session frame decoder (open network,
# wraps the wire codec), the WAL record framer (disk after a crash), and
# the store's row codec behind it — WAL ops (disk, and a leader's
# replication stream) and snapshot sections (disk, and a shipped image) —
# plus the assignment solver against brute force on huge, negative and
# tied costs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzSessionFrame -fuzztime 10s ./internal/transport/session/
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime 10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzWALOpDecode -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzAssign -fuzztime 10s ./internal/mcmf/

# Boot a real sord, scrape /debug/metrics via sorctl, assert every
# promised series is present and that traffic moves the counters.
obs-smoke:
	bash scripts/obs_smoke.sh

# Every chaos soak under the race detector — each a row of the scenario
# table in internal/chaos/scenarios.go (DESIGN.md "Soaks: scenarios as
# data"), each required to converge to state byte-identical to its
# fault-free baseline, plus the goldens that pin what every seed replays.
chaos:
	$(GO) test -race -count=1 -v ./internal/chaos/

# Trimmed chaos soak for CI (smaller fleet, shorter partition).
chaos-short:
	$(GO) test -race -short -count=1 ./internal/chaos/

# Crash-restart soak under the race detector: kill a durable server at
# random points under the lossy fault schedule (the "crash" row; also
# "stream-crash", the same over stream sessions), recover from the newest
# snapshot plus the WAL tail, and require converged state bit-identical
# to the same seed never crashing.
crash-soak:
	$(GO) test -race -count=1 -run CrashSoak -v ./internal/chaos/

# Replication chaos soak under the race detector: a 3-node cluster
# (leader + two WAL-streaming followers) on virtual time survives random
# kill -9s, timed partitions, checkpoint/truncation races, and one
# planned failover, and every node's state digest must match a
# never-crashed single-node baseline byte for byte.
replica-soak:
	$(GO) test -race -count=1 -run ReplicaSoak -v ./internal/chaos/

replica-soak-short:
	$(GO) test -race -short -count=1 -run ReplicaSoak ./internal/chaos/

# Scale-out cluster soak under the race detector: two shards of two
# nodes each behind a rendezvous-routing router on virtual time survive
# kills, partitions, checkpoint races, one planned failover per shard
# (one of them discovered by the router, not announced), and a follower
# orphaned past compaction that rejoins via snapshot-ship resync; every
# node's state digest must match a never-crashed single-node baseline
# that applied only its shard's category workload.
cluster-soak:
	$(GO) test -race -count=1 -run ClusterSoak -v ./internal/chaos/

cluster-soak-short:
	$(GO) test -race -short -count=1 -run ClusterSoak ./internal/chaos/

# Discrete-event fleet soak on virtual time: deterministic, fixed-seed,
# race-enabled. The determinism gate runs the same seed twice and diffs
# the end-state digests (a divergence prints the first differing
# canonical line plus a one-line SOR_SOAK_SEED replay command).
fleet-soak:
	$(GO) test -race -count=1 -v ./internal/fleetsim/
	$(GO) run ./cmd/sorsim -fleet -phones 20000 -per-app 50 -verify

fleet-soak-short:
	$(GO) test -race -short -count=1 ./internal/fleetsim/
	$(GO) run ./cmd/sorsim -fleet -phones 1000 -per-app 50 -verify

# Persistent-session transport soak: the stream session tests and the
# exactly-once resume property test under the race detector, then the
# fleetsim determinism gate over the stream transport — handshakes,
# frame envelopes, server push and partition-severed sessions all ride
# virtual time, and the same seed twice must produce byte-identical
# digests.
session-soak:
	$(GO) test -race -count=1 -v ./internal/transport/session/
	$(GO) test -race -count=1 -run 'Session|Stream' -v ./internal/chaos/
	$(GO) test -race -count=1 -run Stream -v ./internal/fleetsim/
	$(GO) run ./cmd/sorsim -fleet -phones 5000 -per-app 50 -transport stream -verify

session-soak-short:
	$(GO) test -race -short -count=1 ./internal/transport/session/
	$(GO) test -race -short -count=1 -run Stream ./internal/fleetsim/
	$(GO) run ./cmd/sorsim -fleet -phones 1000 -per-app 50 -transport stream -verify

# The columnar read path on virtual time: a fleet run with rank queries
# against 2 000 places, same seed twice, digests diffed.
fleet-rank:
	$(GO) run ./cmd/sorsim -fleet -phones 500 -per-app 50 -rank-places 2000 -rank-queries 24 -verify

# The paper gate: Fig. 6/10 feature values and Tables I/II through the
# full pipeline, diffed against the committed golden (the output is
# run-to-run identical). After an intended change, regenerate with
# `go run ./cmd/fieldtest -category both > testdata/fieldtest.golden`.
fieldtest-golden:
	$(GO) run ./cmd/fieldtest -category both | diff -u testdata/fieldtest.golden -

# Everything CI runs (.github/workflows/ci.yml mirrors this).
ci: vet build test
	$(GO) test -race -short ./...
	$(MAKE) ckpt-race
	$(MAKE) wal-race
	$(MAKE) recover-race
	$(MAKE) resync-race
	$(MAKE) bench-smoke
	$(MAKE) bench-test
	$(MAKE) fleet-rank
	$(MAKE) fieldtest-golden
	$(MAKE) fuzz-smoke
	$(MAKE) obs-smoke
	$(MAKE) chaos-short
	$(MAKE) crash-soak
	$(MAKE) replica-soak
	$(MAKE) cluster-soak
	$(MAKE) fleet-soak-short
	$(MAKE) session-soak-short

# Regenerate every paper table and figure.
experiments: fieldtest sim

fieldtest:
	$(GO) run ./cmd/fieldtest -category both

sim:
	$(GO) run ./cmd/sorsim -sweep both -runs 10

clean:
	$(GO) clean ./...
