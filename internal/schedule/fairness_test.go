package schedule

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUtilizationAndJain(t *testing.T) {
	parts := []Participant{
		{UserID: "a", Budget: 4},
		{UserID: "b", Budget: 4},
		{UserID: "c", Budget: 0},
	}
	plan := &Plan{Assignments: map[string]Assignment{
		"a": {UserID: "a", Instants: []int{1, 2, 3, 4}},
		"b": {UserID: "b", Instants: []int{5, 6}},
		"c": {UserID: "c"},
	}}
	util, err := plan.Utilization(parts)
	if err != nil {
		t.Fatal(err)
	}
	if util["a"] != 1 || util["b"] != 0.5 || util["c"] != 0 {
		t.Fatalf("utilization = %v", util)
	}
	jain, err := plan.JainIndex(parts)
	if err != nil {
		t.Fatal(err)
	}
	// Jain over {1, 0.5}: (1.5)^2 / (2 * 1.25) = 0.9.
	if math.Abs(jain-0.9) > 1e-12 {
		t.Fatalf("jain = %v, want 0.9", jain)
	}
}

func TestJainEdgeCases(t *testing.T) {
	if _, err := (*Plan)(nil).Utilization(nil); err == nil {
		t.Fatal("nil plan must error")
	}
	empty := &Plan{Assignments: map[string]Assignment{}}
	j, err := empty.JainIndex(nil)
	if err != nil || j != 1 {
		t.Fatalf("empty population jain = %v, %v", j, err)
	}
	// All-zero utilization.
	j, err = empty.JainIndex([]Participant{{UserID: "x", Budget: 3}})
	if err != nil || j != 1 {
		t.Fatalf("all-zero jain = %v, %v", j, err)
	}
	// Negative budget.
	if _, err := empty.Utilization([]Participant{{UserID: "x", Budget: -1}}); err == nil {
		t.Fatal("negative budget must error")
	}
	// Zero-budget user that got scheduled anyway is a constraint bug.
	bad := &Plan{Assignments: map[string]Assignment{
		"x": {UserID: "x", Instants: []int{1}},
	}}
	if _, err := bad.Utilization([]Participant{{UserID: "x", Budget: 0}}); err == nil {
		t.Fatal("scheduled zero-budget user must error")
	}
}

func TestPerfectFairnessIsOne(t *testing.T) {
	parts := []Participant{
		{UserID: "a", Budget: 2}, {UserID: "b", Budget: 4},
	}
	plan := &Plan{Assignments: map[string]Assignment{
		"a": {UserID: "a", Instants: []int{0, 1}},
		"b": {UserID: "b", Instants: []int{2, 3, 4, 5}},
	}}
	j, err := plan.JainIndex(parts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j-1) > 1e-12 {
		t.Fatalf("jain = %v, want 1 (both at 100%% utilization)", j)
	}
}

// Property: Jain's index is in (0, 1] for any plan/participants pair, and
// the greedy scheduler treats statistically identical users fairly (index
// close to 1 when everyone shares the same window and budget).
func TestGreedyFairnessProperty(t *testing.T) {
	tl := smallTimeline(t, 240)
	s := mustScheduler(t, tl)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		users := 2 + rng.Intn(6)
		budget := 1 + rng.Intn(5)
		var parts []Participant
		for k := 0; k < users; k++ {
			parts = append(parts, Participant{
				UserID: fmtUser(k),
				Arrive: periodStart,
				Leave:  tl.End(),
				Budget: budget,
			})
		}
		plan, err := s.Greedy(parts, nil)
		if err != nil {
			return false
		}
		j, err := plan.JainIndex(parts)
		if err != nil {
			return false
		}
		if j <= 0 || j > 1+1e-12 {
			return false
		}
		// Identical users with ample room: everyone is fully scheduled.
		return j > 0.99
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFairnessAtPaperScaleWorkload(t *testing.T) {
	// Random §V-C-style windows: fairness stays high because the budget
	// caps each user's load.
	tl := paperTimeline(t)
	s := mustScheduler(t, tl)
	rng := rand.New(rand.NewSource(10))
	parts := randomPaperParticipants(rng, 40, 17)
	plan, err := s.Greedy(parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := plan.JainIndex(parts)
	if err != nil {
		t.Fatal(err)
	}
	if j < 0.8 {
		t.Fatalf("greedy fairness = %v, expected >= 0.8 on the paper workload", j)
	}
}

// Utilization reports each user's scheduled-measurements / budget ratio.
// §III motivates the per-user budget constraint with fairness: the
// scheduler must "ensure fairness by preventing certain mobile users from
// being abused"; utilization makes that observable.
func (p *Plan) Utilization(parts []Participant) (map[string]float64, error) {
	if p == nil {
		return nil, errors.New("schedule: nil plan")
	}
	out := make(map[string]float64, len(parts))
	for _, part := range parts {
		if part.Budget < 0 {
			return nil, fmt.Errorf("schedule: user %s has negative budget", part.UserID)
		}
		a, ok := p.Assignments[part.UserID]
		if !ok {
			out[part.UserID] = 0
			continue
		}
		if part.Budget == 0 {
			if len(a.Instants) > 0 {
				return nil, fmt.Errorf("schedule: user %s scheduled with zero budget", part.UserID)
			}
			out[part.UserID] = 0
			continue
		}
		out[part.UserID] = float64(len(a.Instants)) / float64(part.Budget)
	}
	return out, nil
}

// JainIndex computes Jain's fairness index over the users' utilizations:
// (Σx)² / (n·Σx²), in (0, 1], 1 = perfectly even. Users with zero budget
// are excluded (they cannot be "abused"). Returns 1 for an empty or
// all-zero population.
func (p *Plan) JainIndex(parts []Participant) (float64, error) {
	util, err := p.Utilization(parts)
	if err != nil {
		return 0, err
	}
	var sum, sumSq float64
	n := 0
	for _, part := range parts {
		if part.Budget == 0 {
			continue
		}
		x := util[part.UserID]
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1, nil
	}
	return sum * sum / (float64(n) * sumSq), nil
}
