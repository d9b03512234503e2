package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"sor/internal/cluster"
	"sor/internal/obs"
	"sor/internal/replica"
	"sor/internal/server"
	"sor/internal/store"
	"sor/internal/transport"
	"sor/internal/vclock"
	"sor/internal/wal"
	"sor/internal/wire"
)

// Cluster is one virtual-time scenario: shards of replicated durable
// nodes, optionally behind a router, driven through a scripted workload
// while an ordered list of per-tick rules kills nodes -9, partitions
// followers, checkpoints under the shipper, fails leaders over and
// orphans a follower past compaction. The contract: after convergence
// every node of a shard carries a state digest byte-identical to a
// never-crashed single node that applied only that shard's workload —
// replication, recovery, retention pinning, routing, failover and resync
// must all be invisible in the final state.
//
// The engine is single-threaded and consumes one seeded rand.Rand in a
// fixed order (tick width first, then each rule in list order), so one
// (entry, Seed, Kills, Partitions) is one exact run: a failure's replay
// line reproduces it draw for draw. The exported fields are a run's
// knobs; the unexported ones are the experiment, set by the table
// entries in scenarios.go.
type Cluster struct {
	// Seed drives every random stream: tick widths, chaos placement,
	// checkpoint points, probes, follower backoff.
	Seed int64
	// Kills is how many node kills -9 land across the run, each recovered
	// 200–800 ms (virtual) later; leaders are legitimate targets. Zero
	// means none.
	Kills int
	// Partitions is how many timed follower→leader partitions drop. Zero
	// means none.
	Partitions int
	// BaseDir roots the data directories (every node plus one baseline per
	// app). Required.
	BaseDir string

	// shards names the shards; a node's id is "<shard>-<n>". nodes is the
	// replication factor: node 0 of each shard starts as its leader.
	shards []string
	nodes  int
	// routed puts a rendezvous-routing router in front (each shard then
	// owns exactly one app's category); otherwise ops go straight to the
	// single shard's current leader.
	routed bool
	// node is the store recipe (segment size, staleness bound).
	node durableNode
	// apps, phones, uploads are the workload: per app, phones users join
	// and deliver uploads reports each (see buildOps).
	apps            []soakApp
	phones, uploads int
	// minSteps keeps the run alive past the workload (~30 s virtual at
	// 600), so partitions, checkpoints and staleness windows land on a
	// live cluster instead of racing a sprint.
	minSteps int
	// rngSalt decorrelates the entry's rng from other entries' at one Seed.
	rngSalt int64
	// rules run in order on every tick; failovers and resync are the
	// scripts the plannedFailovers and resyncScript rules execute.
	rules     []rule
	failovers []plannedFailover
	resync    *plannedResync
	// invariants run after convergence, before the baseline comparison.
	invariants []func(*clusterRun) error
	// summary renders the entry's telemetry line.
	summary func(*ClusterResult) string
}

// ClusterResult is a converged cluster run's telemetry.
type ClusterResult struct {
	// Digests maps each app's category to the state digest its shard's
	// nodes AND the never-crashed baseline agreed on.
	Digests map[string]string
	// Ops is how many workload operations were acknowledged, Steps how
	// many virtual-time ticks the run took, OpRetries how many ops were
	// deferred because a shard was unavailable or demoted mid-op.
	Ops, Steps, OpRetries int
	// Kills/Partitions/Checkpoints count the chaos performed.
	Kills, Partitions, Checkpoints int
	// Failovers counts planned Demote/drain/Promote sequences;
	// RouterFailovers the leader changes the router's own probes
	// discovered and reconciled into the registry; Resyncs the
	// snapshot-ship rejoins.
	Failovers, RouterFailovers, Resyncs int
	// PullErrors counts follower pulls that failed (leader down or
	// partitioned) and went through backoff.
	PullErrors int
	// Probes counts mid-chaos rank reads. Of the direct replica reads
	// checked against the staleness bound, StaleServed carried the Stale
	// flag and StaleRefused were refused outright (503 past the bound).
	Probes, StaleServed, StaleRefused int

	summary func(*ClusterResult) string
}

const (
	soakFollowerTTL  = 24 * time.Hour // liveness TTL; retention pins must outlive every partition
	soakPullInterval = 100 * time.Millisecond
)

// node is one cluster member: its durable directory plus the live
// incarnation (server, and either a replication leader or a follower).
type node struct {
	id, dir string
	sh      *shard
	flat    int // index across the whole cluster, shard-major

	backend *store.DurableBackend
	srv     *server.Server
	ld      *replica.Leader   // leader role only
	fol     *replica.Follower // follower role only
	handler transport.Handler // dispatch incl. the member and ReplPull intercepts

	up               bool
	recoverAt        time.Time // virtual; when a killed node restarts (zero: not scheduled)
	partitionedUntil time.Time // virtual; no leader contact before this
	nextPullAt       time.Time
}

// shard is one replication group and which of its nodes currently leads.
type shard struct {
	name      string
	nodes     []*node
	leaderIdx int
	category  string // of the app provisioned here; what direct rank probes ask for
}

func (s *shard) leader() *node    { return s.nodes[s.leaderIdx] }
func (s *shard) successor() *node { return s.nodes[(s.leaderIdx+1)%len(s.nodes)] }

// clusterRun is one execution of a Cluster scenario: the topology, the
// shared virtual clock, and the seeded chaos state.
type clusterRun struct {
	sc     Cluster
	clk    *vclock.Virtual
	rng    *rand.Rand
	shards []*shard
	all    []*node // shard-major: the order every sweep over nodes uses

	reg       *cluster.Registry // routed topologies only
	router    *cluster.Router
	routerReg *obs.Registry
	appShard  []int // app index → owning shard index

	ops            []soakOp
	opIdx          int
	scheds         [][]*wire.Schedule // per app, per phone
	killsLeft      int
	partitionsLeft int
	failedOver     []bool // per planned failover

	// The resync script's state: the deliberately orphaned follower (chaos
	// must neither restart nor wait for it), its applied LSN when it was
	// cut off, and the phase (0 not started, 1 down and forgotten, 2 done).
	orphan        *node
	orphanApplied uint64
	resyncPhase   int

	res ClusterResult
}

// pullSender routes one follower's pulls to its shard's current leader,
// failing them while the leader is down or this follower is partitioned —
// the errors the follower's backoff machinery must absorb.
type pullSender struct {
	c *clusterRun
	n *node
}

func (s pullSender) Send(_ context.Context, m wire.Message) (wire.Message, error) {
	lead := s.n.sh.leader()
	if !lead.up {
		return nil, errors.New("chaos: leader is down")
	}
	if s.c.clk.Now().Before(s.n.partitionedUntil) {
		return nil, errors.New("chaos: partitioned from the leader")
	}
	return codecRoundTrip(lead.handler, m)
}

// memberSender is the router's link to one member (the dialer's address
// space is node ids); it fails while the member is down, like a refused
// TCP connect.
type memberSender struct{ n *node }

func (s memberSender) Send(_ context.Context, m wire.Message) (wire.Message, error) {
	if !s.n.up {
		return nil, fmt.Errorf("chaos: %s is down", s.n.id)
	}
	return codecRoundTrip(s.n.handler, m)
}

// open boots (or recovers) n in the given role from whatever its data
// directory holds — recovering from it is the point.
func (c *clusterRun) open(n *node, asLeader bool) error {
	backend, srv, err := c.sc.node.open(n.dir, asLeader)
	if err != nil {
		return err
	}
	n.backend, n.srv, n.up = backend, srv, true
	if asLeader {
		return c.attachLeader(n)
	}
	c.attachFollower(n)
	return nil
}

// memberHandler wraps a node's dispatch so it answers a router's
// ClusterHello probes with its live role.
func memberHandler(n *node, next transport.Handler) transport.Handler {
	role := func() string {
		if n.srv.IsReplica() {
			return cluster.RoleReplica
		}
		return cluster.RoleLeader
	}
	applied := func() uint64 { return n.srv.DB().AppliedLSN() }
	return cluster.MemberHandler(n.id, role, applied, next)
}

// attachLeader wires the leader role onto an open (or just promoted) node.
func (c *clusterRun) attachLeader(n *node) error {
	ld, err := replica.NewLeader(n.backend.WAL(),
		replica.WithStateDir(n.dir),
		replica.WithLeaderClock(c.clk),
		replica.WithFollowerTTL(soakFollowerTTL),
	)
	if err != nil {
		return err
	}
	n.ld, n.fol = ld, nil
	n.handler = memberHandler(n, replica.Handler(ld, n.srv.Handler()))
	return nil
}

// attachFollower wires the follower role onto an open (or just demoted)
// node: the pull client, the staleness probe, and an immediate first pull
// slot.
func (c *clusterRun) attachFollower(n *node) {
	f := replica.NewFollower(n.id, n.srv.DB(), pullSender{c: c, n: n},
		replica.WithFollowerClock(c.clk),
		replica.WithPullInterval(soakPullInterval),
		replica.WithFollowerBackoff(10*time.Millisecond, 500*time.Millisecond, c.sc.Seed+int64(n.flat)),
	)
	n.srv.SetReplicaLagProbe(f.LagProbe())
	if n.ld != nil {
		n.ld.Close() // a demoted leader's resync sessions end with its role
	}
	n.ld, n.fol = nil, f
	n.handler = memberHandler(n, n.srv.Handler())
	n.nextPullAt = c.clk.Now()
}

func (c *clusterRun) kill(n *node) {
	n.srv.Kill()
	if n.ld != nil {
		n.ld.Close()
	}
	n.up = false
}

// reopen recovers a down node in its shard's current role.
func (c *clusterRun) reopen(n *node) error {
	n.recoverAt = time.Time{}
	return c.open(n, n == n.sh.leader())
}

// closeAll releases every backend the run still holds. Killed incarnations
// are already released; Close after Kill is a no-op.
func (c *clusterRun) closeAll() {
	for _, n := range c.all {
		if n.ld != nil {
			n.ld.Close()
		}
		if n.backend != nil {
			_ = n.backend.Close()
		}
	}
}

// drain pulls follower n up to head.
func drain(n *node, head uint64) error {
	for i := 0; n.srv.DB().AppliedLSN() < head; i++ {
		if i > 10000 {
			return fmt.Errorf("chaos: %s never reached log head %d", n.id, head)
		}
		if _, err := n.fol.PullOnce(context.Background()); err != nil {
			return fmt.Errorf("chaos: draining %s to %d: %w", n.id, head, err)
		}
	}
	return nil
}

// failover is the planned promotion on sh: demote the leader, drain the
// followers to the frozen head, promote the successor, and rejoin the old
// leader as a follower of the new one. When reconcile is true the
// registry learns the new roles from the operator (SetRole); otherwise it
// is left stale, and the router's 503-triggered discovery (or a
// heartbeat) must find the promotion on its own.
func (c *clusterRun) failover(sh *shard, reconcile bool) error {
	// Every node must be reachable for a planned failover; restart any
	// that chaos has down and heal partitions so the drain can finish.
	for _, n := range sh.nodes {
		if !n.up {
			if n == c.orphan {
				return fmt.Errorf("chaos: failover on %s while its follower is mid-resync", sh.name)
			}
			if err := c.reopen(n); err != nil {
				return err
			}
		}
		n.partitionedUntil = time.Time{}
	}
	old, succ := sh.leader(), sh.successor()

	// Freeze the head, then drain every follower to it: acked mutations
	// must survive the promotion, and no lagging follower may be left
	// behind a successor that has compacted its own prefix.
	old.srv.Demote()
	head := old.backend.WAL().LastLSN()
	for _, n := range sh.nodes {
		if n.fol != nil {
			if err := drain(n, head); err != nil {
				return err
			}
		}
	}
	if err := succ.srv.Promote(); err != nil {
		return err
	}
	if err := c.attachLeader(succ); err != nil {
		return err
	}
	sh.leaderIdx = (sh.leaderIdx + 1) % len(sh.nodes)

	// The demoted leader rejoins as a follower, resuming from its own
	// head — its log is a byte-identical prefix of the new leader's.
	c.attachFollower(old)

	// One pull from every follower before anything else: the pulls
	// register their acks with the new leader, which pins its retention
	// so no later checkpoint can compact records they still need.
	for _, n := range sh.nodes {
		if n.fol == nil {
			continue
		}
		if _, err := n.fol.PullOnce(context.Background()); err != nil {
			return fmt.Errorf("chaos: re-homing %s on the new leader: %w", n.id, err)
		}
		n.nextPullAt = c.clk.Now()
	}
	if reconcile {
		if err := c.reg.SetRole(old.id, cluster.RoleReplica); err != nil {
			return err
		}
		if err := c.reg.SetRole(succ.id, cluster.RoleLeader); err != nil {
			return err
		}
	}
	c.res.Failovers++
	return nil
}

// resyncStep advances the scripted orphaning on sh: phase 1 kills the
// follower and drops its pin, then once the leader's log has provably
// compacted past it, phase 2 rejoins it through the snapshot-ship path
// and demands it stream normally again.
func (c *clusterRun) resyncStep(sh *shard) error {
	n := sh.successor()
	switch c.resyncPhase {
	case 0:
		if !n.up || n.fol == nil {
			return nil // wait for a quiet moment on the target
		}
		c.orphan = n
		c.orphanApplied = n.srv.DB().AppliedLSN()
		c.kill(n)
		sh.leader().ld.Forget(n.id)
		c.resyncPhase = 1
	case 1:
		if c.orphan != n {
			return nil // a failover moved leadership; the orphan keeps waiting
		}
		lead := sh.leader()
		if err := lead.backend.Checkpoint(); err != nil {
			return err
		}
		c.res.Checkpoints++
		if _, err := lead.backend.WAL().ReadAfter(c.orphanApplied, 1, 0); !errors.Is(err, wal.ErrCompacted) {
			return nil // the log has not outgrown the orphan yet; keep writing
		}
		// Proof first: a plain rejoin must be refused as unresumable.
		n.partitionedUntil = time.Time{} // a stale window must not mask the refusal
		if err := c.open(n, false); err != nil {
			return err
		}
		if _, err := n.fol.PullOnce(context.Background()); !errors.Is(err, replica.ErrNeedsResync) {
			return fmt.Errorf("chaos: orphaned %s expected ErrNeedsResync, got %v", n.id, err)
		}
		c.kill(n)
		// The real rejoin: stream the leader's checkpoint over the pull
		// link, install it, recover from it, stream the tail.
		if _, err := replica.ResyncDataDir(context.Background(), n.id, pullSender{c: c, n: n}, n.dir); err != nil {
			return fmt.Errorf("chaos: snapshot-ship resync of %s: %w", n.id, err)
		}
		if err := c.open(n, false); err != nil {
			return err
		}
		if _, err := n.fol.PullOnce(context.Background()); err != nil {
			return fmt.Errorf("chaos: %s first pull after resync: %w", n.id, err)
		}
		c.res.Resyncs++
		c.orphan, c.resyncPhase = nil, 2
	}
	return nil
}

// soakOp is one deterministic workload step. The op list is a pure
// function of the scenario, so the cluster run and the baselines apply the
// exact same mutations in the exact same order — only the chaos between
// them differs.
type soakOp struct {
	app    int
	phone  int
	upload int // -1: participate, else the phone's upload number
}

// buildOps interleaves the apps' identical per-app streams evenly, so
// every shard stays busy across every chaos window. Within an app, joins
// come first, then upload rounds; the last phone joins halfway through
// the rounds — past the failover point — so the new leader must mint its
// task ID continuing the old leader's "task-N" sequence, and the digest
// comparison against the baseline proves it did.
func buildOps(apps, phones, uploads int) []soakOp {
	late := phones - 1
	var one []soakOp
	for p := 0; p < late; p++ {
		one = append(one, soakOp{phone: p, upload: -1})
	}
	for u := 0; u < uploads; u++ {
		for p := 0; p < phones; p++ {
			if p == late {
				if u < uploads/2 {
					continue
				}
				if u == uploads/2 {
					one = append(one, soakOp{phone: late, upload: -1})
				}
			}
			one = append(one, soakOp{phone: p, upload: u})
		}
	}
	ops := make([]soakOp, 0, apps*len(one))
	for _, op := range one {
		for a := 0; a < apps; a++ {
			op.app = a
			ops = append(ops, op)
		}
	}
	return ops
}

// applyOp runs one workload op of app against h. done=false means the op
// must be retried later (shard unavailable or refusing writes); a non-nil
// error is a contract violation chaos never excuses. scheds is the app's
// per-phone schedule table.
func applyOp(h transport.Handler, app soakApp, op soakOp, scheds []*wire.Schedule) (done bool, err error) {
	var m wire.Message
	if op.upload < 0 {
		m = &wire.Participate{
			UserID: fmt.Sprintf("%s-user-%d", app.prefix, op.phone),
			Token:  fmt.Sprintf("%s-token-%d", app.prefix, op.phone),
			AppID:  app.id,
			Loc:    wire.Location{Lat: app.lat, Lon: app.lon},
			Budget: 8,
		}
	} else {
		sched := scheds[op.phone]
		if sched == nil {
			return false, fmt.Errorf("chaos: upload before participation for %s phone %d", app.id, op.phone)
		}
		ms := soakEpoch.Add(time.Duration(op.upload+1) * time.Minute).UnixMilli()
		series := make([]wire.SensorSeries, 0, 4)
		for _, sensor := range []string{"temperature", "light", "microphone", "wifi"} {
			series = append(series, wire.SensorSeries{
				Sensor: sensor,
				Samples: []wire.SensorSample{
					{AtUnixMilli: ms, WindowMilli: 5000,
						Readings: []float64{40 + float64(op.phone) + float64(op.upload)/8}},
				},
			})
		}
		m = &wire.DataUpload{
			TaskID: sched.TaskID, AppID: sched.AppID, UserID: sched.UserID,
			ReportID: fmt.Sprintf("%s-%d-%d", app.prefix, op.phone, op.upload),
			Series:   series,
		}
	}
	resp, err := codecRoundTrip(h, m)
	if err != nil {
		return false, nil // leader vanished mid-op: retry
	}
	ack, ok := resp.(*wire.Ack)
	if !ok {
		return false, fmt.Errorf("chaos: op got %s reply", resp.Type())
	}
	if !ack.OK {
		if ack.Code == 503 {
			return false, nil // demoted or replica: retry against the next leader
		}
		return false, fmt.Errorf("chaos: op refused: %d %s", ack.Code, ack.Message)
	}
	if op.upload < 0 {
		inner, err := wire.Decode(ack.Payload)
		if err != nil {
			return false, err
		}
		sched, ok := inner.(*wire.Schedule)
		if !ok {
			return false, fmt.Errorf("chaos: participation ack carried %s", inner.Type())
		}
		scheds[op.phone] = sched
	}
	return true, nil
}

// runBaseline applies one app's exact op stream to a single never-crashed
// node and returns its state digest.
func runBaseline(dir string, app soakApp, phones, uploads int) (string, error) {
	_, srv, err := durableNode{checkpoint: time.Hour}.open(dir, true)
	if err != nil {
		return "", err
	}
	defer srv.Close()
	if err := srv.CreateApp(app.store()); err != nil {
		return "", err
	}
	scheds := make([]*wire.Schedule, phones)
	for _, op := range buildOps(1, phones, uploads) {
		done, err := applyOp(srv.Handler(), app, op, scheds)
		if err != nil {
			return "", fmt.Errorf("chaos: baseline op: %w", err)
		}
		if !done {
			return "", errors.New("chaos: baseline op deferred with no chaos running")
		}
	}
	srv.Processor().Process()
	return StateDigest(srv.DB(), app.category, app.id), nil
}

// front is where an op enters the cluster: the router, or — on a direct
// topology — the owning shard's current leader, unreachable while down.
func (c *clusterRun) front(app int) transport.Handler {
	if c.router != nil {
		return c.router.Handler()
	}
	return func(ctx context.Context, m wire.Message) (wire.Message, error) {
		lead := c.shards[c.appShard[app]].leader()
		if !lead.up {
			return nil, errors.New("chaos: leader is down")
		}
		return lead.handler(ctx, m)
	}
}

// A rule is one per-tick step of a scenario. Rules that draw from c.rng
// own a fixed position in the entry's list: reordering, adding or
// removing one changes every later draw of every seed.
type rule func(c *clusterRun, step int, now time.Time) error

// A picker draws a rule's target node from c.rng (nil: the draw missed).
// How many draws a pick costs and which nodes it can land on are part of
// the experiment, hence per-entry.
type picker func(c *clusterRun) *node

// anyNode draws once over the whole cluster.
func anyNode(c *clusterRun) *node { return c.all[c.rng.Intn(len(c.all))] }

// shardThenNode draws a shard, then a node within it.
func shardThenNode(c *clusterRun) *node {
	sh := c.shards[c.rng.Intn(len(c.shards))]
	return sh.nodes[c.rng.Intn(len(sh.nodes))]
}

// anyNonLeader draws once over the whole cluster; landing on a leader is
// a miss (nil).
func anyNonLeader(c *clusterRun) *node {
	if n := anyNode(c); n != n.sh.leader() {
		return n
	}
	return nil
}

// shardFollower draws a shard and takes its next-in-line follower.
func shardFollower(c *clusterRun) *node {
	return c.shards[c.rng.Intn(len(c.shards))].successor()
}

// restartDue recovers every killed node whose downtime has elapsed, in
// node order: it restarts in its current role and replays its own disk.
func restartDue(c *clusterRun, _ int, now time.Time) error {
	for _, n := range c.all {
		if n.recoverAt.IsZero() || now.Before(n.recoverAt) {
			continue
		}
		if err := c.reopen(n); err != nil {
			return err
		}
	}
	return nil
}

// killNode kills -9 a picked node while kills remain. Near the end of the
// run the remaining kills are forced, so the quota is always spent.
func killNode(pick picker) rule {
	return func(c *clusterRun, step int, now time.Time) error {
		if c.killsLeft > 0 && (c.rng.Float64() < 0.02 || step >= c.sc.minSteps) {
			if n := pick(c); n != nil && n.up {
				c.kill(n)
				n.recoverAt = now.Add(time.Duration(200+c.rng.Intn(600)) * time.Millisecond)
				c.killsLeft--
				c.res.Kills++
			}
		}
		return nil
	}
}

// partitionNode cuts a picked follower's leader link for a window sized to
// overlap the staleness bound.
func partitionNode(pick picker) rule {
	return func(c *clusterRun, _ int, now time.Time) error {
		if c.partitionsLeft > 0 && c.rng.Float64() < 0.015 {
			if n := pick(c); n != nil && n.up {
				n.partitionedUntil = now.Add(time.Duration(300+c.rng.Intn(1200)) * time.Millisecond)
				c.partitionsLeft--
				c.res.Partitions++
			}
		}
		return nil
	}
}

// checkpointNode takes an explicit checkpoint on a picked live node: a
// snapshot plus WAL truncation racing the shipper, with retention pins as
// the only guard.
func checkpointNode(pick picker) rule {
	return func(c *clusterRun, _ int, _ time.Time) error {
		if c.rng.Float64() < 0.03 {
			if n := pick(c); n != nil && n.up {
				if err := n.backend.Checkpoint(); err != nil {
					return fmt.Errorf("chaos: checkpoint on %s: %w", n.id, err)
				}
				c.res.Checkpoints++
			}
		}
		return nil
	}
}

// plannedFailover schedules one failover of a shard: it fires once, when
// num/den of the workload has been acknowledged.
type plannedFailover struct {
	shard, num, den int
	// reconcile announces the new roles to the registry; without it the
	// router has to discover the promotion.
	reconcile bool
}

// plannedFailovers runs the scenario's failovers as they fall due.
func plannedFailovers(c *clusterRun, _ int, _ time.Time) error {
	for i, f := range c.sc.failovers {
		if c.failedOver[i] || c.opIdx < f.num*len(c.ops)/f.den {
			continue
		}
		if err := c.failover(c.shards[f.shard], f.reconcile); err != nil {
			return err
		}
		c.failedOver[i] = true
	}
	return nil
}

// plannedResync schedules the snapshot-ship orphaning of a shard's
// follower: it starts once the scenario's first planned failover has
// settled and num/den of the workload has been acknowledged.
type plannedResync struct{ shard, num, den int }

// resyncScript advances the scenario's resync until it is done.
func resyncScript(c *clusterRun, _ int, _ time.Time) error {
	r := c.sc.resync
	if c.failedOver[0] && c.resyncPhase < 2 && c.opIdx >= r.num*len(c.ops)/r.den {
		return c.resyncStep(c.shards[r.shard])
	}
	return nil
}

// routerHeartbeat runs the router's membership probes on a coarse seeded
// cadence.
func routerHeartbeat(p float64) rule {
	return func(c *clusterRun, _ int, _ time.Time) error {
		if c.rng.Float64() < p {
			c.router.HeartbeatOnce(context.Background())
		}
		return nil
	}
}

// followerPulls lets every live follower pull on its own cadence
// (NextDelay: eager while behind, heartbeat while caught up, backoff while
// cut off).
func followerPulls(c *clusterRun, _ int, now time.Time) error {
	for _, n := range c.all {
		if !n.up || n.fol == nil || now.Before(n.nextPullAt) {
			continue
		}
		if _, err := n.fol.PullOnce(context.Background()); err != nil {
			if errors.Is(err, replica.ErrNeedsResync) {
				return fmt.Errorf("chaos: %s forced into resync (retention guard failed)", n.id)
			}
			c.res.PullErrors++
		}
		delay := n.fol.NextDelay()
		if delay < 10*time.Millisecond {
			delay = 10 * time.Millisecond
		}
		n.nextPullAt = now.Add(delay)
	}
	return nil
}

// probeStaleness issues, with probability p, a rank query straight to a
// random node and — on followers — checks the bounded-staleness contract:
// the gate must refuse exactly when the follower's last leader contact is
// older than the bound (or never happened), and lagging-but-served replies
// must carry the Stale flag.
func probeStaleness(p float64) rule {
	return func(c *clusterRun, _ int, _ time.Time) error {
		if c.rng.Float64() >= p {
			return nil
		}
		n := anyNode(c)
		if !n.up || n.fol == nil {
			return nil
		}
		c.res.Probes++
		bound := c.sc.node.maxLag
		self := n.fol.Status()
		expectRefuse := self.LastContactMS < 0 || self.LastContactMS > bound.Milliseconds()
		resp, err := codecRoundTrip(n.handler, &wire.RankRequest{UserID: "probe", Category: n.sh.category})
		if err != nil {
			return err
		}
		switch r := resp.(type) {
		case *wire.Ack:
			if strings.Contains(r.Message, "staleness") {
				if !expectRefuse {
					return fmt.Errorf("chaos: %s refused rank %dms after leader contact (bound %s)",
						n.id, self.LastContactMS, bound)
				}
				c.res.StaleRefused++
				return nil
			}
			// Any other refusal (no rankable data yet) must still have
			// passed the gate first.
			if expectRefuse {
				return fmt.Errorf("chaos: %s answered rank %dms after leader contact (bound %s): %s",
					n.id, self.LastContactMS, bound, r.Message)
			}
			return nil
		case *wire.RankResponse:
			if expectRefuse {
				return fmt.Errorf("chaos: %s served rank %dms after leader contact (bound %s)",
					n.id, self.LastContactMS, bound)
			}
			if r.Stale {
				c.res.StaleServed++
			} else if self.LagRecords > 0 {
				return fmt.Errorf("chaos: %s lags %d records but served an unflagged rank reply",
					n.id, self.LagRecords)
			}
			return nil
		default:
			return fmt.Errorf("chaos: rank probe got %s reply", resp.Type())
		}
	}
}

// probeRoutedRank sends, with probability p, a rank read for a random
// app's category through the router; any well-formed reply counts.
func probeRoutedRank(p float64) rule {
	return func(c *clusterRun, _ int, _ time.Time) error {
		if c.rng.Float64() >= p {
			return nil
		}
		app := c.sc.apps[c.rng.Intn(len(c.sc.apps))]
		resp, err := codecRoundTrip(c.router.Handler(), &wire.RankRequest{UserID: "probe", Category: app.category})
		if err != nil {
			return nil
		}
		switch resp.(type) {
		case *wire.RankResponse, *wire.Ack:
			c.res.Probes++
			return nil
		default:
			return fmt.Errorf("chaos: rank probe got %s reply", resp.Type())
		}
	}
}

// applyNextOp sends the next workload op, strictly in order: a deferred op
// is retried until the cluster accepts it. Ops are paced out so writes
// keep landing while chaos is in flight.
func applyNextOp(c *clusterRun, step int, _ time.Time) error {
	if c.opIdx >= len(c.ops) || (step%4 != 0 && step < c.sc.minSteps) {
		return nil
	}
	op := c.ops[c.opIdx]
	done, err := applyOp(c.front(op.app), c.sc.apps[op.app], op, c.scheds[op.app])
	if err != nil {
		return err
	}
	if done {
		c.opIdx++
		c.res.Ops++
	} else {
		c.res.OpRetries++
	}
	return nil
}

// logHeadsMatch demands every follower's own log ends exactly where its
// leader's does (true of streamed logs; a snapshot-shipped one restarts
// mid-sequence and is exempt by not listing this invariant).
func logHeadsMatch(c *clusterRun) error {
	for _, n := range c.all {
		head := n.sh.leader().backend.WAL().LastLSN()
		if got := n.backend.WAL().LastLSN(); got != head {
			return fmt.Errorf("chaos: %s log head %d, leader %d", n.id, got, head)
		}
	}
	return nil
}

// routerFoundFailovers demands the router reconciled every unannounced
// failover into the registry (via a 503 retry or a heartbeat).
func routerFoundFailovers(c *clusterRun) error {
	for _, sh := range c.shards {
		want := sh.leader().id
		if got, ok := c.reg.LeaderOf(sh.name); !ok || got.Name != want {
			return fmt.Errorf("chaos: registry says %s leads %s, cluster says %s", got.Name, sh.name, want)
		}
	}
	if c.res.RouterFailovers == 0 {
		return errors.New("chaos: the unannounced failover was never discovered by the router")
	}
	return nil
}

// buildRouter lays out the cluster map — shards, named members, the apps'
// category routing keys — and the router over it. Rendezvous hashing
// places the categories; one landing on an already-owning shard is pinned
// onto a free one, so each shard owns exactly one category (the digest
// comparison depends on it).
func (c *clusterRun) buildRouter() error {
	c.reg = cluster.NewRegistry(
		cluster.WithRegistryClock(c.clk),
		cluster.WithMemberTTL(soakFollowerTTL),
	)
	byID := map[string]*node{}
	for _, sh := range c.shards {
		c.reg.AddShard(sh.name)
		for i, n := range sh.nodes {
			byID[n.id] = n
			role := cluster.RoleReplica
			if i == sh.leaderIdx {
				role = cluster.RoleLeader
			}
			if err := c.reg.AddMember(cluster.Member{Name: n.id, Shard: sh.name, Role: role, Addr: n.id}); err != nil {
				return err
			}
		}
	}
	owned := map[string]bool{}
	for a, app := range c.sc.apps {
		c.reg.RegisterApp(app.id, app.category)
		if owned[c.reg.ShardFor(app.category)] {
			for _, sh := range c.shards {
				if !owned[sh.name] {
					c.reg.PinKey(app.category, sh.name)
					break
				}
			}
		}
		home := c.reg.ShardFor(app.category)
		owned[home] = true
		for si, sh := range c.shards {
			if sh.name == home {
				c.appShard[a] = si
			}
		}
	}
	c.routerReg = obs.NewRegistry()
	var err error
	c.router, err = cluster.NewRouter("router-0", c.reg,
		func(addr string) (cluster.Sender, error) {
			n := byID[addr]
			if n == nil {
				return nil, fmt.Errorf("chaos: no such member %s", addr)
			}
			return memberSender{n}, nil
		},
		cluster.WithRouterClock(c.clk),
		// Base -1: no backoff sleeps — the driver is single-threaded on
		// virtual time, so a real sleep would deadlock the run.
		cluster.WithRouterRetry(transport.Retry{Attempts: 3, Base: -1, Seed: jitterSeed(c.sc.Seed, 7)}),
		cluster.WithRouterMetrics(c.routerReg),
	)
	return err
}

// RunCluster drives one cluster scenario through its seeded chaos schedule
// and returns its telemetry. Every node it opens is closed on every exit.
func RunCluster(sc Cluster) (*ClusterResult, error) {
	if sc.BaseDir == "" {
		return nil, errors.New("chaos: cluster scenario needs a base dir")
	}
	if len(sc.shards) == 0 || len(sc.rules) == 0 {
		return nil, errors.New("chaos: empty cluster scenario (start from a ClusterSoaks entry)")
	}
	c := &clusterRun{
		sc:             sc,
		clk:            vclock.NewVirtual(soakEpoch),
		rng:            rand.New(rand.NewSource(sc.Seed ^ sc.rngSalt)),
		appShard:       make([]int, len(sc.apps)),
		ops:            buildOps(len(sc.apps), sc.phones, sc.uploads),
		scheds:         make([][]*wire.Schedule, len(sc.apps)),
		killsLeft:      sc.Kills,
		partitionsLeft: sc.Partitions,
		failedOver:     make([]bool, len(sc.failovers)),
		res:            ClusterResult{Digests: map[string]string{}, summary: sc.summary},
	}
	for a := range c.scheds {
		c.scheds[a] = make([]*wire.Schedule, sc.phones)
	}
	for _, name := range sc.shards {
		sh := &shard{name: name}
		for i := 0; i < sc.nodes; i++ {
			id := fmt.Sprintf("%s-%d", name, i)
			n := &node{id: id, dir: filepath.Join(sc.BaseDir, id), sh: sh, flat: len(c.all)}
			sh.nodes = append(sh.nodes, n)
			c.all = append(c.all, n)
		}
		c.shards = append(c.shards, sh)
	}
	if sc.routed {
		if err := c.buildRouter(); err != nil {
			return nil, err
		}
	}
	defer c.closeAll()
	for _, n := range c.all {
		if err := c.open(n, n == n.sh.leader()); err != nil {
			return nil, err
		}
	}
	// Each app exists only on its owning shard — apps arrive via operator
	// provisioning, not the phone protocol.
	for a, app := range sc.apps {
		sh := c.shards[c.appShard[a]]
		sh.category = app.category
		if err := sh.leader().srv.CreateApp(app.store()); err != nil {
			return nil, err
		}
	}
	// One pull from every follower before chaos starts: the pulls register
	// acks with their leaders, pinning retention so the first seeded
	// checkpoint cannot compact records a follower still needs.
	for _, n := range c.all {
		if n.fol == nil {
			continue
		}
		if _, err := n.fol.PullOnce(context.Background()); err != nil {
			return nil, fmt.Errorf("chaos: initial pull on %s: %w", n.id, err)
		}
	}

	// pending: the run lasts until the workload is acknowledged, the kill
	// quota spent, every killed node back, and the resync script through.
	pending := func() bool {
		if c.opIdx < len(c.ops) || c.killsLeft > 0 || (sc.resync != nil && c.resyncPhase < 2) {
			return true
		}
		for _, n := range c.all {
			if !n.up && n != c.orphan {
				return true
			}
		}
		return false
	}
	const maxSteps = 200000
	for step := 0; pending() || step < sc.minSteps; step++ {
		if step >= maxSteps {
			return nil, fmt.Errorf("chaos: no convergence after %d steps (op %d/%d, %d kills left, resync phase %d)",
				step, c.opIdx, len(c.ops), c.killsLeft, c.resyncPhase)
		}
		c.res.Steps = step + 1
		c.clk.Advance(time.Duration(10+c.rng.Intn(90)) * time.Millisecond)
		now := c.clk.Now()
		for _, r := range sc.rules {
			if err := r(c, step, now); err != nil {
				return nil, err
			}
		}
	}

	// Convergence: heal everything, fold each leader's features, and drain
	// every follower to its shard's final head.
	for _, sh := range c.shards {
		for _, n := range sh.nodes {
			n.partitionedUntil = time.Time{}
		}
		lead := sh.leader()
		lead.srv.Processor().Process()
		head := lead.backend.WAL().LastLSN()
		for _, n := range sh.nodes {
			if n.fol != nil {
				if err := drain(n, head); err != nil {
					return nil, err
				}
			}
		}
	}
	if c.router != nil {
		c.res.RouterFailovers = int(c.routerReg.Snapshot().Counters["sor_cluster_failovers_total"])
	}
	for _, check := range sc.invariants {
		if err := check(c); err != nil {
			return nil, err
		}
	}
	// The never-crashed baselines: one node per app, the same ops in the
	// same order, one final fold.
	for a, app := range sc.apps {
		want, err := runBaseline(filepath.Join(sc.BaseDir, "baseline-"+app.id), app, sc.phones, sc.uploads)
		if err != nil {
			return nil, err
		}
		for _, n := range c.shards[c.appShard[a]].nodes {
			if got := StateDigest(n.srv.DB(), app.category, app.id); got != want {
				return nil, fmt.Errorf("chaos: %s digest %.12s diverged from %s baseline %.12s", n.id, got, app.id, want)
			}
		}
		c.res.Digests[app.category] = want
	}
	return &c.res, nil
}
