// Package sim reproduces the paper's §V-C scheduling simulation (Fig. 14):
// a 3-hour scheduling period divided into 1080 instants (10 s step), a
// Gaussian coverage kernel with σ = 10 s, mobile users whose arrival times
// are uniform in [0, 10800 s] and departure times uniform in [arrival,
// 10800 s], and two schedulers — the greedy coverage maximizer and the
// baseline that senses every 10 s from arrival. The metric is the average
// coverage probability (total coverage / number of instants), averaged
// over multiple runs.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"sor/internal/coverage"
	"sor/internal/schedule"
	"sor/internal/stats"
)

// Config parameterizes one simulation scenario.
type Config struct {
	// Users is the number of participating mobile users.
	Users int
	// Budget is every user's NBk.
	Budget int
	// Runs averages the metric over this many random instances (the
	// paper uses 10).
	Runs int
	// Seed drives all randomness.
	Seed int64
	// Period is the scheduling period (default 3 h).
	Period time.Duration
	// Step is the instant spacing (default 10 s).
	Step time.Duration
	// Sigma is the Gaussian kernel parameter (default 10 s).
	Sigma float64
	// BaselineInterval is the baseline's sensing period (default 10 s).
	BaselineInterval time.Duration
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = 3 * time.Hour
	}
	if c.Step <= 0 {
		c.Step = 10 * time.Second
	}
	if c.Sigma <= 0 {
		c.Sigma = 10
	}
	if c.BaselineInterval <= 0 {
		c.BaselineInterval = 10 * time.Second
	}
	if c.Runs <= 0 {
		c.Runs = 10
	}
	return c
}

// Validate checks the scenario.
func (c Config) Validate() error {
	if c.Users <= 0 {
		return errors.New("sim: need users > 0")
	}
	if c.Budget <= 0 {
		return errors.New("sim: need budget > 0")
	}
	return nil
}

// Outcome is the metric pair for one scenario.
type Outcome struct {
	// GreedyMean/BaselineMean are average coverage probabilities in
	// [0, 1], averaged over runs; the Std fields are across-run standard
	// deviations (the paper highlights greedy's lower variance).
	GreedyMean, GreedyStd     float64
	BaselineMean, BaselineStd float64
}

// Improvement is (greedy − baseline)/baseline.
func (o Outcome) Improvement() float64 {
	if o.BaselineMean == 0 {
		return 0
	}
	return (o.GreedyMean - o.BaselineMean) / o.BaselineMean
}

// Run simulates one scenario.
func Run(cfg Config) (Outcome, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Outcome{}, err
	}
	start := time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC)
	n := int(cfg.Period / cfg.Step)
	tl, err := coverage.NewTimeline(start, cfg.Step, n)
	if err != nil {
		return Outcome{}, err
	}
	sched, err := schedule.NewScheduler(tl, coverage.GaussianKernel{Sigma: cfg.Sigma})
	if err != nil {
		return Outcome{}, err
	}
	rng := stats.NewRand(cfg.Seed)
	var greedy, baseline stats.Welford
	for run := 0; run < cfg.Runs; run++ {
		runRng := stats.Split(rng)
		parts := drawParticipants(runRng, cfg, start)
		g, err := sched.Greedy(parts, nil)
		if err != nil {
			return Outcome{}, fmt.Errorf("sim: greedy run %d: %w", run, err)
		}
		if err := sched.Verify(parts, g); err != nil {
			return Outcome{}, fmt.Errorf("sim: greedy plan invalid in run %d: %w", run, err)
		}
		b, err := sched.Baseline(parts, cfg.BaselineInterval)
		if err != nil {
			return Outcome{}, fmt.Errorf("sim: baseline run %d: %w", run, err)
		}
		greedy.Add(g.AverageCoverage)
		baseline.Add(b.AverageCoverage)
	}
	return Outcome{
		GreedyMean:   greedy.Mean(),
		GreedyStd:    greedy.StdDev(),
		BaselineMean: baseline.Mean(),
		BaselineStd:  baseline.StdDev(),
	}, nil
}

// drawParticipants draws the §V-C workload: arrivals uniform over the
// period, departures uniform between arrival and the period end.
func drawParticipants(rng *rand.Rand, cfg Config, start time.Time) []schedule.Participant {
	totalSec := int64(cfg.Period / time.Second)
	parts := make([]schedule.Participant, 0, cfg.Users)
	for i := 0; i < cfg.Users; i++ {
		arriveSec := rng.Int63n(totalSec)
		leaveSec := arriveSec + rng.Int63n(totalSec-arriveSec+1)
		parts = append(parts, schedule.Participant{
			UserID: fmt.Sprintf("user-%03d", i),
			Arrive: start.Add(time.Duration(arriveSec) * time.Second),
			Leave:  start.Add(time.Duration(leaveSec) * time.Second),
			Budget: cfg.Budget,
		})
	}
	return parts
}

// SeriesPoint is one x-position of a sweep.
type SeriesPoint struct {
	X int
	Outcome
}

// SweepUsers reproduces Fig. 14(a): vary the number of users, fixed
// budget.
func SweepUsers(users []int, budget int, base Config) ([]SeriesPoint, error) {
	out := make([]SeriesPoint, 0, len(users))
	for i, u := range users {
		cfg := base
		cfg.Users = u
		cfg.Budget = budget
		cfg.Seed = base.Seed + int64(i)*7919
		o, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, SeriesPoint{X: u, Outcome: o})
	}
	return out, nil
}

// SweepBudget reproduces Fig. 14(b): vary the budget, fixed user count.
func SweepBudget(budgets []int, users int, base Config) ([]SeriesPoint, error) {
	out := make([]SeriesPoint, 0, len(budgets))
	for i, b := range budgets {
		cfg := base
		cfg.Users = users
		cfg.Budget = b
		cfg.Seed = base.Seed + int64(i)*104729
		o, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, SeriesPoint{X: b, Outcome: o})
	}
	return out, nil
}

// Fig14aUsers is the paper's x-axis for Fig. 14(a) (§V-C text also cites
// the 55-user point where greedy nears 100% coverage).
func Fig14aUsers() []int { return []int{10, 15, 20, 25, 30, 35, 40, 45, 50, 55} }

// Fig14bBudgets is the paper's x-axis for Fig. 14(b).
func Fig14bBudgets() []int { return []int{15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25} }
