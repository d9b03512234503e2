package sim

import (
	"testing"
	"time"
)

// fastConfig shrinks the scenario so unit tests stay quick while keeping
// the paper's proportions (period : step : sigma).
func fastConfig() Config {
	return Config{
		Period: 30 * time.Minute,
		Step:   10 * time.Second,
		Sigma:  10,
		Runs:   3,
		Seed:   42,
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Budget: 1}); err == nil {
		t.Fatal("zero users must error")
	}
	if _, err := Run(Config{Users: 1}); err == nil {
		t.Fatal("zero budget must error")
	}
}

func TestGreedyBeatsBaselineSubstantially(t *testing.T) {
	cfg := fastConfig()
	cfg.Users = 10
	cfg.Budget = 8
	o, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.GreedyMean <= o.BaselineMean {
		t.Fatalf("greedy %v <= baseline %v", o.GreedyMean, o.BaselineMean)
	}
	if o.Improvement() < 0.15 {
		t.Fatalf("improvement = %.1f%%, expected a clear gap", o.Improvement()*100)
	}
	if o.GreedyMean <= 0 || o.GreedyMean > 1 || o.BaselineMean <= 0 || o.BaselineMean > 1 {
		t.Fatalf("coverage out of range: %+v", o)
	}
}

func TestGreedyLowerVarianceAtPaperScale(t *testing.T) {
	// §V-C: "the variance of the coverage probability given by our
	// scheduling algorithm is always less than that given by the
	// baseline". In this reproduction the claim holds at the paper's
	// operating point (40 users, budget 17) but not at very small user
	// counts, where greedy coverage tracks the random window sizes more
	// closely — see EXPERIMENTS.md.
	if testing.Short() {
		t.Skip("full-scale scenario")
	}
	o, err := Run(Config{Users: 40, Budget: 17, Runs: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if o.GreedyStd > o.BaselineStd {
		t.Fatalf("greedy std %v > baseline std %v", o.GreedyStd, o.BaselineStd)
	}
}

func TestCoverageMonotoneInUsers(t *testing.T) {
	cfg := fastConfig()
	points, err := SweepUsers([]int{4, 10, 20}, 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].GreedyMean <= points[i-1].GreedyMean {
			t.Fatalf("greedy coverage not increasing in users: %+v", points)
		}
	}
}

func TestCoverageMonotoneInBudget(t *testing.T) {
	cfg := fastConfig()
	points, err := SweepBudget([]int{2, 6, 12}, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].GreedyMean <= points[i-1].GreedyMean {
			t.Fatalf("greedy coverage not increasing in budget: %+v", points)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	cfg := fastConfig()
	cfg.Users = 8
	cfg.Budget = 5
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different outcomes: %+v vs %+v", a, b)
	}
	cfg.Seed++
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seed produced identical outcome (suspicious)")
	}
}

func TestImprovementZeroBaseline(t *testing.T) {
	if (Outcome{}).Improvement() != 0 {
		t.Fatal("zero baseline should give zero improvement")
	}
}

func TestPaperAxes(t *testing.T) {
	users := Fig14aUsers()
	if users[0] != 10 || users[len(users)-1] != 55 {
		t.Fatalf("Fig14a axis = %v", users)
	}
	budgets := Fig14bBudgets()
	if budgets[0] != 15 || budgets[len(budgets)-1] != 25 {
		t.Fatalf("Fig14b axis = %v", budgets)
	}
}

// TestPaperScaleScenario runs one full-size instance (1080 instants, 40
// users, budget 17) and checks the paper's qualitative claims: greedy near
// or above 80%, baseline far below, improvement large.
func TestPaperScaleScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale scenario")
	}
	o, err := Run(Config{Users: 40, Budget: 17, Runs: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if o.GreedyMean < 0.7 {
		t.Fatalf("greedy coverage %v, paper shows ~0.8 at 40 users / budget 17", o.GreedyMean)
	}
	if o.BaselineMean > o.GreedyMean-0.15 {
		t.Fatalf("baseline %v too close to greedy %v", o.BaselineMean, o.GreedyMean)
	}
	if o.Improvement() < 0.3 {
		t.Fatalf("improvement %.0f%%, paper reports ~65%% on average", o.Improvement()*100)
	}
}
