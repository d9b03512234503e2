// Package sor is the public API of this reproduction of "SOR: An Objective
// Ranking System Based on Mobile Phone Sensing" (Sheng, Tang, Wang, Gao,
// Xue — IEEE ICDCS 2014). SOR ranks target places (coffee shops, hiking
// trails, …) from objective sensor data collected by participating
// smartphones instead of subjective star ratings.
//
// The package re-exports the two algorithmic contributions —
//
//   - coverage-maximizing sensing scheduling (§III): monotone submodular
//     maximization over a partition matroid, greedy 1/2-approximation,
//     with an event-driven online variant;
//   - personalizable ranking (§IV): per-feature preference distances,
//     per-feature rankings, and weighted-footrule rank aggregation solved
//     exactly as a min-cost perfect matching (a 2-approximation of the
//     NP-hard weighted Kemeny aggregation);
//
// plus the system substrate: the sensing server, the simulated mobile
// frontend, the binary wire protocol, and the §V experiment harnesses.
// See README.md for a tour and EXPERIMENTS.md for paper-vs-measured
// results.
package sor

import (
	"fmt"
	"time"

	"sor/internal/coverage"
	"sor/internal/fieldtest"
	"sor/internal/ranking"
	"sor/internal/schedule"
	"sor/internal/sim"
)

// ---- Scheduling (§III) ----

// Participant is one mobile user's availability: presence window and
// sensing budget NBk.
type Participant = schedule.Participant

// Assignment is one user's sensing schedule Φk.
type Assignment = schedule.Assignment

// Plan is a complete sensing schedule with its coverage value.
type Plan = schedule.Plan

// Online is the event-driven scheduler (join/leave/execution re-plans).
type Online = schedule.Online

// EnergyModel prices one measurement for a user (energy-aware scheduling).
type EnergyModel = schedule.EnergyModel

// UniformEnergy charges the same price for every measurement.
type UniformEnergy = schedule.UniformEnergy

// PerUserEnergy prices users individually.
type PerUserEnergy = schedule.PerUserEnergy

// EnergyPlan is the result of energy-aware scheduling.
type EnergyPlan = schedule.EnergyPlan

// SensingRequest parameterizes ScheduleSensing and ScheduleEnergyAware.
type SensingRequest struct {
	// Start and Period bound the scheduling window [tS, tE].
	Start  time.Time
	Period time.Duration
	// Step is the instant spacing (N = Period/Step); default 10 s.
	Step time.Duration
	// Sigma is the Gaussian kernel σ in seconds; default 10. Use a large
	// σ for slowly varying features and a small one for fast ones (§III).
	Sigma float64
	// Kernel overrides the Gaussian entirely when non-nil.
	Kernel Kernel
	// Participants are the mobile users.
	Participants []Participant
	// Lazy is ignored: there is one greedy, whose plan is the printed
	// Algorithm 1's to the bit. The field stays so callers that set it
	// still build.
	Lazy bool
}

// SensingPlan bundles the greedy plan, the baseline and the timeline.
type SensingPlan struct {
	// Plan is the greedy schedule.
	Plan *Plan
	// Baseline is the §V-C comparison schedule (sense every Step from
	// arrival).
	Baseline *Plan
	// Timeline exposes instant-to-time translation.
	Timeline *Timeline
}

// Kernel models the probability that a measurement taken at one instant
// still covers another (Eq. 1).
type Kernel = coverage.Kernel

// GaussianKernel is the paper's bell-shaped coverage model.
type GaussianKernel = coverage.GaussianKernel

// Timeline is the discretization of a scheduling period into instants.
type Timeline = coverage.Timeline

// newScheduler builds the scheduler for one period. A zero step defaults
// to 10 s, and a nil kernel to the Gaussian with σ = sigma, itself 10 s
// when zero.
func newScheduler(start time.Time, period, step time.Duration, kernel Kernel, sigma float64) (*schedule.Scheduler, error) {
	if step <= 0 {
		step = 10 * time.Second
	}
	if kernel == nil {
		if sigma <= 0 {
			sigma = 10
		}
		kernel = GaussianKernel{Sigma: sigma}
	}
	n := int(period / step)
	if n < 1 {
		return nil, fmt.Errorf("sor: period %v shorter than step %v", period, step)
	}
	tl, err := coverage.NewTimeline(start, step, n)
	if err != nil {
		return nil, err
	}
	return schedule.NewScheduler(tl, kernel)
}

// ScheduleSensing computes the greedy 1/2-approximate coverage-maximizing
// schedule (Algorithm 1) plus the paper's baseline for comparison.
func ScheduleSensing(req SensingRequest) (*SensingPlan, error) {
	sched, err := newScheduler(req.Start, req.Period, req.Step, req.Kernel, req.Sigma)
	if err != nil {
		return nil, err
	}
	plan, err := sched.Greedy(req.Participants, nil)
	if err != nil {
		return nil, err
	}
	if err := sched.Verify(req.Participants, plan); err != nil {
		return nil, fmt.Errorf("sor: greedy plan failed verification: %w", err)
	}
	tl := sched.Timeline()
	baseline, err := sched.Baseline(req.Participants, tl.Step())
	if err != nil {
		return nil, err
	}
	return &SensingPlan{Plan: plan, Baseline: baseline, Timeline: tl}, nil
}

// ScheduleEnergyAware reaches a target average coverage at greedily
// minimized device energy (the dual problem from the paper's companion
// work, its ref. [25]).
func ScheduleEnergyAware(req SensingRequest, targetAvgCoverage float64, model EnergyModel) (*EnergyPlan, error) {
	sched, err := newScheduler(req.Start, req.Period, req.Step, req.Kernel, req.Sigma)
	if err != nil {
		return nil, err
	}
	return sched.EnergyAware(req.Participants, targetAvgCoverage, model)
}

// NewOnlineScheduler builds the event-driven scheduler the sensing server
// runs. A nil kernel defaults to the Gaussian with σ = 10 s; a zero step
// defaults to 10 s.
func NewOnlineScheduler(start time.Time, period, step time.Duration, kernel Kernel) (*Online, *Timeline, error) {
	sched, err := newScheduler(start, period, step, kernel, 0)
	if err != nil {
		return nil, nil, err
	}
	online, err := schedule.NewOnline(sched)
	if err != nil {
		return nil, nil, err
	}
	return online, sched.Timeline(), nil
}

// ---- Ranking (§IV) ----

// Matrix is the feature matrix H (N places × M features).
type Matrix = ranking.Matrix

// Feature describes one column of H with its default preference.
type Feature = ranking.Feature

// Preference is a user's stance on one feature (target value or MIN/MAX,
// plus a weight in 0..5).
type Preference = ranking.Preference

// Profile is a named user's preference vector.
type Profile = ranking.Profile

// RankResult is the output of one personalized ranking run.
type RankResult = ranking.Result

// Preference kinds.
const (
	PrefValue   = ranking.PrefValue
	PrefMin     = ranking.PrefMin
	PrefMax     = ranking.PrefMax
	PrefDefault = ranking.PrefDefault
)

// MaxWeight is the top of the paper's 0..5 preference-weight scale.
const MaxWeight = ranking.MaxWeight

// RankPlaces runs Algorithm 2 (personalizable ranking) for one profile.
func RankPlaces(m *Matrix, profile Profile) (*RankResult, error) {
	r, err := ranking.NewRanker(m)
	if err != nil {
		return nil, err
	}
	return r.Rank(profile)
}

// RankAll ranks several profiles over one matrix, validating it once.
func RankAll(m *Matrix, profiles []Profile) (map[string]*RankResult, error) {
	r, err := ranking.NewRanker(m)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*RankResult, len(profiles))
	for _, p := range profiles {
		res, err := r.Rank(p)
		if err != nil {
			return nil, fmt.Errorf("sor: ranking for %q: %w", p.Name, err)
		}
		out[p.Name] = res
	}
	return out, nil
}

// RankHybrid blends objective feature rankings with an existing subjective
// rating (e.g. Yelp stars, higher = better) entering as one more weighted
// individual ranking — the integration with subjective recommendation
// systems the paper's introduction motivates.
func RankHybrid(m *Matrix, profile Profile, subjective []float64, subjectiveWeight int) (*RankResult, error) {
	r, err := ranking.NewRanker(m)
	if err != nil {
		return nil, err
	}
	return r.RankHybrid(profile, subjective, subjectiveWeight)
}

// SubjectiveFeatureName labels the star-rating pseudo-feature in hybrid
// results.
const SubjectiveFeatureName = ranking.SubjectiveFeatureName

// ---- Experiments (§V) ----

// SimConfig parameterizes the §V-C scheduling simulation.
type SimConfig = sim.Config

// SimOutcome is the greedy-vs-baseline coverage metric pair.
type SimOutcome = sim.Outcome

// SimPoint is one x-position of a Fig. 14 sweep.
type SimPoint = sim.SeriesPoint

// RunSim simulates one §V-C scenario.
func RunSim(cfg SimConfig) (SimOutcome, error) { return sim.Run(cfg) }

// OnlineOutcome compares the event-driven scheduler to clairvoyant
// offline greedy on identical workloads.
type OnlineOutcome = sim.OnlineOutcome

// RunOnlineSim replays arrivals through the online scheduler and measures
// the realized coverage against offline greedy (an extension experiment —
// the paper's deployment is inherently online).
func RunOnlineSim(cfg SimConfig) (OnlineOutcome, error) { return sim.RunOnline(cfg) }

// SweepUsers reproduces Fig. 14(a).
func SweepUsers(users []int, budget int, base SimConfig) ([]SimPoint, error) {
	return sim.SweepUsers(users, budget, base)
}

// SweepBudget reproduces Fig. 14(b).
func SweepBudget(budgets []int, users int, base SimConfig) ([]SimPoint, error) {
	return sim.SweepBudget(budgets, users, base)
}

// FieldTestConfig parameterizes a §V-A/§V-B end-to-end field test.
type FieldTestConfig = fieldtest.Config

// FieldTestResult carries the reproduced figures and tables.
type FieldTestResult = fieldtest.Result

// RunFieldTest executes a simulated field test end to end (real HTTP
// server, simulated phones, Lua scripts, binary protocol).
func RunFieldTest(cfg FieldTestConfig) (*FieldTestResult, error) {
	return fieldtest.Run(cfg)
}
