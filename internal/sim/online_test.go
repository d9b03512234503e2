package sim

import (
	"testing"
	"time"
)

func TestRunOnlineValidation(t *testing.T) {
	if _, err := RunOnline(Config{}); err == nil {
		t.Fatal("invalid config must error")
	}
}

func TestOnlineTracksOfflineClosely(t *testing.T) {
	cfg := fastConfig()
	cfg.Users = 10
	cfg.Budget = 6
	o, err := RunOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.OnlineMean <= 0 || o.OfflineMean <= 0 {
		t.Fatalf("outcome = %+v", o)
	}
	// The online scheduler cannot beat the clairvoyant offline greedy by
	// much (tiny wins are possible since greedy itself is approximate),
	// and empirically stays close to it.
	ratio := o.CompetitiveRatio()
	if ratio < 0.6 || ratio > 1.1 {
		t.Fatalf("competitive ratio = %v (online %v, offline %v)",
			ratio, o.OnlineMean, o.OfflineMean)
	}
	// One re-plan per arrival.
	if o.Replans < float64(cfg.Users) {
		t.Fatalf("replans = %v, want >= %d (one per join)", o.Replans, cfg.Users)
	}
}

func TestOnlineDeterministicForSeed(t *testing.T) {
	cfg := fastConfig()
	cfg.Users = 6
	cfg.Budget = 4
	a, err := RunOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different outcomes: %+v vs %+v", a, b)
	}
}

func TestOnlineRespectsAllBudgets(t *testing.T) {
	// Indirectly: replayOnline calls RecordExecution, which errors on any
	// budget overflow, so a clean run is itself the assertion; use a
	// scenario with many overlapping users to stress re-planning.
	cfg := Config{
		Users: 15, Budget: 5, Runs: 2, Seed: 9,
		Period: 40 * time.Minute,
	}
	if _, err := RunOnline(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCompetitiveRatioZeroOffline(t *testing.T) {
	if (OnlineOutcome{}).CompetitiveRatio() != 0 {
		t.Fatal("zero offline should give zero ratio")
	}
}

// TestOnlinePaperScale runs the §V-C operating point through the online
// replay (skipped with -short).
func TestOnlinePaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale scenario")
	}
	o, err := RunOnline(Config{Users: 40, Budget: 17, Runs: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if o.CompetitiveRatio() < 0.75 {
		t.Fatalf("online lost too much to offline: %+v", o)
	}
}
