package sor_test

import (
	"strings"
	"testing"
	"time"

	"sor"
	"sor/internal/coverage"
	"sor/internal/fieldtest"
	"sor/internal/world"
)

var apiStart = time.Date(2013, time.November, 15, 11, 0, 0, 0, time.UTC)

func TestPublicScheduleSensing(t *testing.T) {
	plan, err := sor.ScheduleSensing(sor.SensingRequest{
		Start:  apiStart,
		Period: time.Hour,
		Participants: []sor.Participant{
			{UserID: "u1", Arrive: apiStart, Leave: apiStart.Add(time.Hour), Budget: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Plan.Assignments["u1"].Instants) != 5 {
		t.Fatalf("assignments = %+v", plan.Plan.Assignments)
	}
	if plan.Plan.AverageCoverage < plan.Baseline.AverageCoverage {
		t.Fatal("greedy below baseline")
	}
}

func TestPublicOnlineScheduler(t *testing.T) {
	online, tl, err := sor.NewOnlineScheduler(apiStart, time.Hour, 0, sor.GaussianKernel{Sigma: 10})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := online.Join(apiStart, sor.Participant{
		UserID: "u", Arrive: apiStart, Leave: tl.End(), Budget: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Assignments["u"].Instants) != 4 {
		t.Fatalf("plan = %+v", plan.Assignments)
	}
}

func TestPublicRanking(t *testing.T) {
	m := &sor.Matrix{
		Places: []string{"a", "b"},
		Features: []sor.Feature{
			{Name: "x", Default: sor.Preference{Kind: sor.PrefMin}},
		},
		Values: [][]float64{{2}, {1}},
	}
	res, err := sor.RankPlaces(m, sor.Profile{Name: "p", Prefs: map[string]sor.Preference{
		"x": {Kind: sor.PrefMin, Weight: sor.MaxWeight},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Order[0] != "b" {
		t.Fatalf("order = %v", res.Order)
	}
	all, err := sor.RankAll(m, []sor.Profile{{Name: "p"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("RankAll = %v", all)
	}
}

func TestPublicSim(t *testing.T) {
	o, err := sor.RunSim(sor.SimConfig{
		Users: 6, Budget: 4, Runs: 2, Seed: 1,
		Period: 20 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.GreedyMean <= 0 || o.GreedyMean > 1 {
		t.Fatalf("outcome = %+v", o)
	}
	up, err := sor.SweepUsers([]int{3, 6}, 4, sor.SimConfig{Runs: 1, Seed: 1, Period: 20 * time.Minute})
	if err != nil || len(up) != 2 {
		t.Fatalf("sweep = %v, %v", up, err)
	}
	bp, err := sor.SweepBudget([]int{2, 4}, 5, sor.SimConfig{Runs: 1, Seed: 1, Period: 20 * time.Minute})
	if err != nil || len(bp) != 2 {
		t.Fatalf("sweep = %v, %v", bp, err)
	}
}

// TestPublicFieldTestSmall is a fast smoke of the end-to-end pipeline via
// the public API (full-size runs live in internal/fieldtest tests).
func TestPublicFieldTestSmall(t *testing.T) {
	res, err := sor.RunFieldTest(sor.FieldTestConfig{
		Category:       world.CategoryCoffee,
		PhonesPerPlace: 2,
		Budget:         6,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phones != 6 || res.Uploads != 6 {
		t.Fatalf("phones=%d uploads=%d", res.Phones, res.Uploads)
	}
	for _, shop := range []string{world.TimHortons, world.BNCafe, world.Starbucks} {
		if _, ok := res.Features[shop]; !ok {
			t.Fatalf("no features for %s", shop)
		}
	}
	for _, prof := range []string{"David", "Emma"} {
		if len(res.Rankings[prof]) != 3 {
			t.Fatalf("%s ranking = %v", prof, res.Rankings[prof])
		}
	}
}

func TestExpectedRankingsShape(t *testing.T) {
	for _, cat := range []string{world.CategoryTrail, world.CategoryCoffee} {
		for prof, order := range fieldtest.ExpectedRankings(cat) {
			if len(order) != 3 {
				t.Fatalf("%s/%s ranking rows = %v", cat, prof, order)
			}
			if strings.TrimSpace(prof) == "" {
				t.Fatal("empty profile name")
			}
		}
	}
}

func TestScheduleSensingValidation(t *testing.T) {
	if _, err := sor.ScheduleSensing(sor.SensingRequest{}); err == nil {
		t.Fatal("zero period must error")
	}
	if _, err := sor.ScheduleSensing(sor.SensingRequest{
		Start: apiStart, Period: time.Second, Step: time.Minute,
	}); err == nil {
		t.Fatal("period < step must error")
	}
}

func TestScheduleSensingDefaults(t *testing.T) {
	parts := []sor.Participant{
		{UserID: "u1", Arrive: apiStart, Leave: apiStart.Add(time.Hour), Budget: 6},
		{UserID: "u2", Arrive: apiStart.Add(20 * time.Minute), Leave: apiStart.Add(time.Hour), Budget: 6},
	}
	plan, err := sor.ScheduleSensing(sor.SensingRequest{
		Start: apiStart, Period: time.Hour, Participants: parts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Timeline.Step() != 10*time.Second {
		t.Fatalf("default step = %v", plan.Timeline.Step())
	}
	if got := len(plan.Plan.Assignments["u1"].Instants); got != 6 {
		t.Fatalf("u1 scheduled %d times", got)
	}
	if plan.Plan.AverageCoverage <= plan.Baseline.AverageCoverage {
		t.Fatalf("greedy %v <= baseline %v",
			plan.Plan.AverageCoverage, plan.Baseline.AverageCoverage)
	}
}

func TestScheduleSensingCustomKernel(t *testing.T) {
	parts := []sor.Participant{
		{UserID: "u", Arrive: apiStart, Leave: apiStart.Add(30 * time.Minute), Budget: 4},
	}
	plan, err := sor.ScheduleSensing(sor.SensingRequest{
		Start: apiStart, Period: 30 * time.Minute,
		Kernel:       coverage.TriangularKernel{Width: 30},
		Participants: parts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Plan.TotalCoverage <= 0 {
		t.Fatal("no coverage")
	}
}

func TestNewOnlineScheduler(t *testing.T) {
	online, tl, err := sor.NewOnlineScheduler(apiStart, time.Hour, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Step() != 10*time.Second {
		t.Fatalf("default step = %v", tl.Step())
	}
	plan, err := online.Join(apiStart, sor.Participant{
		UserID: "u", Arrive: apiStart, Leave: tl.End(), Budget: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Assignments["u"].Instants) != 3 {
		t.Fatalf("scheduled %v", plan.Assignments["u"].Instants)
	}
	if _, _, err := sor.NewOnlineScheduler(apiStart, time.Second, time.Minute, nil); err == nil {
		t.Fatal("period < step must error")
	}
}

func TestScheduleEnergyAware(t *testing.T) {
	parts := []sor.Participant{
		{UserID: "u1", Arrive: apiStart, Leave: apiStart.Add(time.Hour), Budget: 40},
		{UserID: "u2", Arrive: apiStart, Leave: apiStart.Add(time.Hour), Budget: 40},
	}
	plan, err := sor.ScheduleEnergyAware(sor.SensingRequest{
		Start: apiStart, Period: time.Hour, Participants: parts,
	}, 0.4, sor.UniformEnergy{MilliJ: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.TargetReached || plan.AverageCoverage < 0.4 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.EnergyMilliJ <= 0 {
		t.Fatal("no energy accounted")
	}
	if _, err := sor.ScheduleEnergyAware(sor.SensingRequest{}, 0.4, sor.UniformEnergy{MilliJ: 1}); err == nil {
		t.Fatal("zero period must error")
	}
	if _, err := sor.ScheduleEnergyAware(sor.SensingRequest{
		Start: apiStart, Period: time.Second, Step: time.Minute,
	}, 0.4, sor.UniformEnergy{MilliJ: 1}); err == nil {
		t.Fatal("period < step must error")
	}
}

func rankingMatrix() *sor.Matrix {
	return &sor.Matrix{
		Places: []string{"a", "b", "c"},
		Features: []sor.Feature{
			{Name: "noise", Default: sor.Preference{Kind: sor.PrefMin}},
			{Name: "wifi", Default: sor.Preference{Kind: sor.PrefMax}},
		},
		Values: [][]float64{{0.2, -70}, {0.1, -50}, {0.3, -60}},
	}
}

func TestRankPlaces(t *testing.T) {
	res, err := sor.RankPlaces(rankingMatrix(), sor.Profile{
		Name: "quiet-seeker",
		Prefs: map[string]sor.Preference{
			"noise": {Kind: sor.PrefMin, Weight: 5},
			"wifi":  {Kind: sor.PrefDefault, Weight: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Order[0] != "b" {
		t.Fatalf("order = %v", res.Order)
	}
	if _, err := sor.RankPlaces(&sor.Matrix{}, sor.Profile{}); err == nil {
		t.Fatal("invalid matrix must error")
	}
}

func TestRankAll(t *testing.T) {
	profiles := []sor.Profile{
		{Name: "p1", Prefs: map[string]sor.Preference{
			"noise": {Kind: sor.PrefMin, Weight: 5},
		}},
		{Name: "p2", Prefs: map[string]sor.Preference{
			"wifi": {Kind: sor.PrefMax, Weight: 5},
		}},
	}
	out, err := sor.RankAll(rankingMatrix(), profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("results = %d", len(out))
	}
	if out["p1"].Order[0] != "b" || out["p2"].Order[0] != "b" {
		t.Fatalf("p1=%v p2=%v", out["p1"].Order, out["p2"].Order)
	}
	bad := []sor.Profile{{Name: "broken", Prefs: map[string]sor.Preference{
		"noise": {Kind: sor.PrefMin, Weight: 99},
	}}}
	if _, err := sor.RankAll(rankingMatrix(), bad); err == nil {
		t.Fatal("invalid profile must error")
	}
}
