package schedule

import (
	"errors"
	"fmt"
	"sort"
)

// Energy-aware scheduling: the paper's companion work (its reference [25],
// "Energy-efficient collaborative sensing with mobile phones") asks the
// dual question — reach a target coverage while spending as little device
// energy as possible. This extension implements the classic cost-benefit
// greedy for that problem: repeatedly pick the feasible (user, instant)
// pair with the best marginal-coverage-per-joule ratio until the target is
// met or no measurement can add coverage.

// EnergyModel prices one measurement for a user.
type EnergyModel interface {
	// CostMilliJ returns the energy price of user k sensing once.
	CostMilliJ(userID string) float64
}

// UniformEnergy charges the same price for every measurement.
type UniformEnergy struct {
	MilliJ float64
}

var _ EnergyModel = UniformEnergy{}

// CostMilliJ implements EnergyModel.
func (u UniformEnergy) CostMilliJ(string) float64 { return u.MilliJ }

// PerUserEnergy prices users individually (e.g. external Sensordrone
// sensors cost more than embedded ones); missing users fall back to
// Default.
type PerUserEnergy struct {
	MilliJ  map[string]float64
	Default float64
}

var _ EnergyModel = PerUserEnergy{}

// CostMilliJ implements EnergyModel.
func (p PerUserEnergy) CostMilliJ(userID string) float64 {
	if c, ok := p.MilliJ[userID]; ok {
		return c
	}
	return p.Default
}

// EnergyPlan reports an energy-aware schedule.
type EnergyPlan struct {
	*Plan
	// EnergyMilliJ is the total energy the plan spends.
	EnergyMilliJ float64
	// TargetReached reports whether the coverage target was met (false
	// when budgets/windows make it unreachable).
	TargetReached bool
}

// EnergyAware computes a schedule reaching targetAvgCoverage (average
// coverage probability in (0, 1]) with greedily minimized energy. Budgets
// and windows are respected exactly as in Greedy.
func (s *Scheduler) EnergyAware(parts []Participant, targetAvgCoverage float64, energy EnergyModel) (*EnergyPlan, error) {
	if targetAvgCoverage <= 0 || targetAvgCoverage > 1 {
		return nil, fmt.Errorf("schedule: coverage target %v outside (0, 1]", targetAvgCoverage)
	}
	if energy == nil {
		return nil, errors.New("schedule: nil energy model")
	}
	elems, err := s.buildGround(parts)
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		if energy.CostMilliJ(p.UserID) <= 0 {
			return nil, fmt.Errorf("schedule: non-positive energy cost for user %s", p.UserID)
		}
	}
	acc := s.table.NewAccumulator()
	plan := &EnergyPlan{Plan: &Plan{Assignments: make(map[string]Assignment, len(parts))}}
	for _, p := range parts {
		plan.Assignments[p.UserID] = Assignment{UserID: p.UserID}
	}
	targetTotal := targetAvgCoverage * float64(s.tl.N())
	used := make([]int, len(parts))
	taken := make([]bool, len(elems))

	for acc.Total() < targetTotal {
		best, bestRatio := -1, 0.0
		for e, el := range elems {
			if taken[e] || used[el.user] >= parts[el.user].Budget {
				continue
			}
			gain := acc.Gain(el.instant)
			if gain <= minGain {
				continue
			}
			ratio := gain / energy.CostMilliJ(parts[el.user].UserID)
			if ratio > bestRatio {
				best, bestRatio = e, ratio
			}
		}
		if best < 0 {
			break // nothing can add coverage
		}
		el := elems[best]
		taken[best] = true
		used[el.user]++
		acc.Add(el.instant)
		plan.EnergyMilliJ += energy.CostMilliJ(parts[el.user].UserID)
		a := plan.Assignments[parts[el.user].UserID]
		a.Instants = append(a.Instants, el.instant)
		plan.Assignments[parts[el.user].UserID] = a
		plan.OracleCalls += len(elems)
	}
	for id, a := range plan.Assignments {
		sort.Ints(a.Instants)
		plan.Assignments[id] = a
	}
	plan.TotalCoverage = acc.Total()
	plan.AverageCoverage = acc.Average()
	plan.TargetReached = acc.Total() >= targetTotal-1e-9
	return plan, nil
}
