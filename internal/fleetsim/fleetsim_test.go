package fleetsim

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"
)

// soakSeed returns the run seed: SOR_SOAK_SEED when set (replaying a
// printed failure), def otherwise.
func soakSeed(t *testing.T, def int64) int64 {
	t.Helper()
	if v := os.Getenv("SOR_SOAK_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("SOR_SOAK_SEED=%q: %v", v, err)
		}
		if seed == 0 {
			t.Fatal("SOR_SOAK_SEED=0: 0 is not a seed — transport.Retry reads it as \"seed the jitter from the wall clock\", so the run would not replay; use any nonzero value")
		}
		t.Logf("replaying SOR_SOAK_SEED=%d", seed)
		return seed
	}
	return def
}

// repro formats the one-line replay command printed with every soak
// failure, so a red CI run can be reproduced exactly.
func repro(t *testing.T, seed int64) string {
	return fmt.Sprintf("replay: SOR_SOAK_SEED=%d go test ./internal/fleetsim -run %s", seed, t.Name())
}

func chaoticConfig(seed int64, phones int) Config {
	return Config{
		Phones:       phones,
		PhonesPerApp: 50,
		Budget:       2,
		Seed:         seed,
		Period:       24 * time.Hour,
		Step:         5 * time.Minute,
		RequestLoss:  0.10,
		AckLoss:      0.10,
		SpikeProb:    0.05,
		Spike:        time.Second,
		PartitionFor: time.Hour,
	}
}

// TestFleetDeterminism is the core property: two runs of the same seed
// produce byte-identical end state — feature matrix, coverage timeline,
// budget ledger, metrics counters — under full chaos.
func TestFleetDeterminism(t *testing.T) {
	seed := soakSeed(t, 42)
	cfg := chaoticConfig(seed, 150)
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("run A: %v\n%s", err, repro(t, seed))
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("run B: %v\n%s", err, repro(t, seed))
	}
	if a.Digest != b.Digest {
		t.Fatalf("same seed, different digests:\n%s\n%s", FirstDiff(a, b), repro(t, seed))
	}
	cfg.Seed = seed + 1
	c, err := Run(cfg)
	if err != nil {
		t.Fatalf("run C: %v\n%s", err, repro(t, seed+1))
	}
	if c.Digest == a.Digest {
		t.Fatalf("different seeds produced identical digests (digest is not sensitive to the run)")
	}
}

// TestFleetFaultFree checks the clean baseline: every scheduled phone's
// report lands exactly once, first try.
func TestFleetFaultFree(t *testing.T) {
	seed := soakSeed(t, 7)
	r, err := Run(Config{Phones: 120, PhonesPerApp: 40, Seed: seed,
		Period: 6 * time.Hour, Step: 5 * time.Minute})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, repro(t, seed))
	}
	if r.Joined != 120 {
		t.Errorf("joined = %d, want 120\n%s", r.Joined, repro(t, seed))
	}
	if r.Scheduled == 0 {
		t.Fatalf("no phone got a schedule\n%s", repro(t, seed))
	}
	if r.Acked != r.Scheduled {
		t.Errorf("acked = %d, scheduled = %d — fault-free run lost reports\n%s",
			r.Acked, r.Scheduled, repro(t, seed))
	}
	if r.Attempts != r.Acked {
		t.Errorf("attempts = %d, acked = %d — retries in a fault-free run\n%s",
			r.Attempts, r.Acked, repro(t, seed))
	}
	if r.DuplicateAcks != 0 || r.Abandoned != 0 {
		t.Errorf("dup=%d abandoned=%d in a fault-free run\n%s",
			r.DuplicateAcks, r.Abandoned, repro(t, seed))
	}
	if r.State.UploadsStored != r.Acked || r.State.Folded != r.Acked {
		t.Errorf("uploads stored = %d, folded = %d, acked = %d\n%s",
			r.State.UploadsStored, r.State.Folded, r.Acked, repro(t, seed))
	}
	if len(r.State.Features) == 0 {
		t.Errorf("no feature rows after processing\n%s", repro(t, seed))
	}
	if len(r.Coverage) == 0 {
		t.Errorf("empty coverage timeline\n%s", repro(t, seed))
	}
}

// TestFleetAckLossConvergesToClean is the strict exactly-once check: with
// ack loss only, every report still reaches the server on its first
// attempt, so retransmissions are pure duplicates and the converged state
// — executed instants, budget ledger, dedup window, feature matrix down
// to the last IEEE-754 bit — must equal the fault-free run of the same
// seed. (Request loss and partitions legitimately shift schedules: they
// delay deliveries, and the online scheduler re-plans around what has
// actually executed, so those runs are compared by invariants instead —
// see TestFleetChaosExactlyOnce.)
func TestFleetAckLossConvergesToClean(t *testing.T) {
	seed := soakSeed(t, 1234)
	lossy := Config{Phones: 150, PhonesPerApp: 50, Seed: seed,
		Period: 24 * time.Hour, Step: 5 * time.Minute, AckLoss: 0.25}
	clean := lossy
	clean.AckLoss = 0

	cr, err := Run(clean)
	if err != nil {
		t.Fatalf("clean run: %v\n%s", err, repro(t, seed))
	}
	xr, err := Run(lossy)
	if err != nil {
		t.Fatalf("lossy run: %v\n%s", err, repro(t, seed))
	}
	if xr.Fault.ResponsesLost == 0 || xr.DuplicateAcks == 0 {
		t.Fatalf("ack loss never forced a retransmission: %+v\n%s", xr.Fault, repro(t, seed))
	}
	if xr.Abandoned != 0 {
		t.Fatalf("%d reports abandoned\n%s", xr.Abandoned, repro(t, seed))
	}
	if xr.State.UploadsStored != cr.State.UploadsStored {
		t.Errorf("uploads stored: lossy %d vs clean %d — dedup failed\n%s",
			xr.State.UploadsStored, cr.State.UploadsStored, repro(t, seed))
	}
	if got, want := len(xr.State.Apps), len(cr.State.Apps); got != want {
		t.Fatalf("app count %d vs %d\n%s", got, want, repro(t, seed))
	}
	for i := range cr.State.Apps {
		ca, xa := cr.State.Apps[i], xr.State.Apps[i]
		if fmt.Sprint(ca.Executed) != fmt.Sprint(xa.Executed) {
			t.Errorf("app %s executed instants diverge\n%s", ca.ID, repro(t, seed))
		}
		if fmt.Sprint(ca.Ledger) != fmt.Sprint(xa.Ledger) {
			t.Errorf("app %s budget ledger diverges\n%s", ca.ID, repro(t, seed))
		}
		if ca.SeenDigest != xa.SeenDigest || ca.SeenReports != xa.SeenReports {
			t.Errorf("app %s dedup window diverges\n%s", ca.ID, repro(t, seed))
		}
	}
	if got, want := len(xr.State.Features), len(cr.State.Features); got != want {
		t.Fatalf("feature rows %d vs %d\n%s", got, want, repro(t, seed))
	}
	for i := range cr.State.Features {
		cf, xf := cr.State.Features[i], xr.State.Features[i]
		if cf.Place != xf.Place || cf.Feature != xf.Feature ||
			cf.Value != xf.Value || cf.Samples != xf.Samples {
			t.Errorf("feature row %s/%s diverges: clean %v/%d lossy %v/%d\n%s",
				cf.Place, cf.Feature, cf.Value, cf.Samples, xf.Value, xf.Samples,
				repro(t, seed))
		}
	}
}

// TestFleetChaosExactlyOnce runs full chaos — request loss, ack loss,
// spikes, a one-hour partition — and checks the invariants that must
// survive any interleaving: every scheduled report lands exactly once,
// budgets are never overcharged, and the dedup window holds one entry per
// report.
func TestFleetChaosExactlyOnce(t *testing.T) {
	seed := soakSeed(t, 5678)
	r, err := Run(chaoticConfig(seed, 150))
	if err != nil {
		t.Fatalf("run: %v\n%s", err, repro(t, seed))
	}
	if r.Fault.RequestsLost == 0 || r.Fault.ResponsesLost == 0 || r.Fault.Partitioned == 0 {
		t.Fatalf("chaos did not engage: %+v\n%s", r.Fault, repro(t, seed))
	}
	if r.Abandoned != 0 {
		t.Fatalf("%d reports abandoned — partition outlasted the retry budget\n%s",
			r.Abandoned, repro(t, seed))
	}
	if r.Acked != r.Scheduled {
		t.Errorf("acked = %d, scheduled = %d — reports lost for good\n%s",
			r.Acked, r.Scheduled, repro(t, seed))
	}
	if r.State.UploadsStored != r.Scheduled {
		t.Errorf("uploads stored = %d, scheduled = %d — retransmissions stored twice\n%s",
			r.State.UploadsStored, r.Scheduled, repro(t, seed))
	}
	if r.State.Folded != r.Scheduled {
		t.Errorf("folded = %d, scheduled = %d\n%s", r.State.Folded, r.Scheduled, repro(t, seed))
	}
	seen := 0
	for _, a := range r.State.Apps {
		seen += a.SeenReports
		consumed := 0
		for _, e := range a.Ledger {
			if e.Ledger.Consumed > e.Ledger.Budget {
				t.Errorf("app %s user %s overcharged: %d/%d\n%s",
					a.ID, e.User, e.Ledger.Consumed, e.Ledger.Budget, repro(t, seed))
			}
			consumed += e.Ledger.Consumed
		}
		if consumed != len(a.Executed) {
			t.Errorf("app %s consumed %d but executed %d instants\n%s",
				a.ID, consumed, len(a.Executed), repro(t, seed))
		}
	}
	if seen != r.Scheduled {
		t.Errorf("dedup window holds %d ids, want %d\n%s", seen, r.Scheduled, repro(t, seed))
	}
}

// TestFleetPartitionShowsInLatency pins the virtual-time story: a
// partition must push tail latency out by roughly its own duration, which
// only happens if retries genuinely wait on the virtual clock.
func TestFleetPartitionShowsInLatency(t *testing.T) {
	seed := soakSeed(t, 99)
	base := Config{Phones: 100, PhonesPerApp: 50, Seed: seed,
		Period: 8 * time.Hour, Step: 5 * time.Minute}
	calm, err := Run(base)
	if err != nil {
		t.Fatalf("calm run: %v\n%s", err, repro(t, seed))
	}
	cut := base
	cut.PartitionAt = 2 * time.Hour
	cut.PartitionFor = time.Hour
	stormy, err := Run(cut)
	if err != nil {
		t.Fatalf("partitioned run: %v\n%s", err, repro(t, seed))
	}
	if stormy.Fault.Partitioned == 0 {
		t.Skipf("no upload landed inside the partition window (seed %d)", seed)
	}
	if stormy.Latency.Max < 30*time.Minute {
		t.Errorf("max latency %v under a 1h partition — retries are not riding virtual time\n%s",
			stormy.Latency.Max, repro(t, seed))
	}
	if calm.Latency.Max > time.Minute {
		t.Errorf("calm max latency %v — fault-free deliveries should be ~RTT\n%s",
			calm.Latency.Max, repro(t, seed))
	}
}

// TestFleetRankScenario runs the rank read-path soak alongside the
// chaotic ingest fleet: bounded rank queries over a seeded category,
// deterministic ranked orders (same seed ⇒ same digest, including the
// rank lines), and a sane latency curve shape.
func TestFleetRankScenario(t *testing.T) {
	seed := soakSeed(t, 11)
	cfg := chaoticConfig(seed, 100)
	cfg.RankPlaces = 400
	cfg.RankQueries = 24
	cfg.RankTopK = 10
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("run A: %v\n%s", err, repro(t, seed))
	}
	if len(a.Rank) != cfg.RankQueries {
		t.Fatalf("got %d rank samples, want %d", len(a.Rank), cfg.RankQueries)
	}
	hours := map[int]bool{}
	for i, s := range a.Rank {
		if s.Places != cfg.RankTopK {
			t.Fatalf("sample %d returned %d places, want %d", i, s.Places, cfg.RankTopK)
		}
		if len(s.Order) != s.Places {
			t.Fatalf("sample %d order has %d entries, places=%d", i, len(s.Order), s.Places)
		}
		if s.Wall <= 0 {
			t.Fatalf("sample %d has non-positive wall latency %v", i, s.Wall)
		}
		hours[s.Hour] = true
	}
	if len(hours) < 12 {
		t.Fatalf("queries landed in only %d virtual hours — not spread over the day", len(hours))
	}
	// The category is static and the profile rotation is tiny, so the
	// ranked leader must be stable across the day.
	for i := 1; i < len(a.Rank); i++ {
		if a.Rank[i].Order[0] != a.Rank[0].Order[0] {
			t.Fatalf("sample %d leader %s != sample 0 leader %s over a static category",
				i, a.Rank[i].Order[0], a.Rank[0].Order[0])
		}
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("run B: %v\n%s", err, repro(t, seed))
	}
	if a.Digest != b.Digest {
		t.Fatalf("same seed, different digests with rank scenario:\n%s\n%s",
			FirstDiff(a, b), repro(t, seed))
	}
	if a.RankTable() == "" {
		t.Fatal("empty rank table")
	}
}
