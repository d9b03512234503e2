// Package schedule implements SOR's sensing scheduler (§III). Given a
// scheduling period discretized into N instants, a set of participating
// mobile users — each present over a window [tSk, tEk] with a sensing
// budget NBk — and a coverage kernel, it assigns each user the time
// instants at which to sense so that total coverage (Eq. 2) is maximized.
//
// The problem is monotone submodular maximization over a partition matroid
// (one part per user, capacity = budget), solved by the greedy Algorithm 1
// with its 1/2-approximation guarantee. The package also implements the
// paper's §V-C baseline (sense every baseline interval from arrival) and an
// online scheduler that re-plans as users arrive and leave.
package schedule

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"sor/internal/coverage"
)

// Participant describes one mobile user's availability for a scheduling
// period.
type Participant struct {
	// UserID identifies the mobile user.
	UserID string
	// Arrive and Leave bound the user's presence in the target place
	// (the paper's [tSk, tEk]).
	Arrive time.Time
	Leave  time.Time
	// Budget is NBk — the maximum number of measurements the user is
	// willing to take during the period.
	Budget int
}

// Validate checks the participant's fields.
func (p Participant) Validate() error {
	if p.UserID == "" {
		return errors.New("schedule: participant needs a user id")
	}
	if p.Leave.Before(p.Arrive) {
		return fmt.Errorf("schedule: participant %s leaves before arriving", p.UserID)
	}
	if p.Budget < 0 {
		return fmt.Errorf("schedule: participant %s has negative budget", p.UserID)
	}
	return nil
}

// Assignment is one user's sensing schedule Φk: the instants (by timeline
// index) at which the user must sense.
type Assignment struct {
	UserID   string
	Instants []int
}

// Times materializes the assignment's instants on the timeline.
func (a Assignment) Times(tl *coverage.Timeline) []time.Time {
	out := make([]time.Time, len(a.Instants))
	for i, idx := range a.Instants {
		out[i] = tl.Time(idx)
	}
	return out
}

// Plan is a complete schedule for one period.
type Plan struct {
	// Assignments maps user id to that user's schedule. Users that could
	// not be scheduled (empty window, zero budget) map to an empty
	// assignment.
	Assignments map[string]Assignment
	// TotalCoverage is Σ_j p(tj, Φ) over the whole timeline (Eq. 2).
	TotalCoverage float64
	// AverageCoverage is TotalCoverage / N — §V-C's metric.
	AverageCoverage float64
	// OracleCalls counts marginal-gain evaluations (ablation metric).
	OracleCalls int
}

// Scheduler computes sensing schedules over a fixed timeline and kernel.
type Scheduler struct {
	tl     *coverage.Timeline
	kernel coverage.Kernel
	// table is the kernel tabulated once, for every plan's accumulator.
	table *coverage.Table
}

// NewScheduler builds a scheduler for one scheduling period.
func NewScheduler(tl *coverage.Timeline, kernel coverage.Kernel) (*Scheduler, error) {
	if tl == nil {
		return nil, errors.New("schedule: nil timeline")
	}
	if kernel == nil {
		return nil, errors.New("schedule: nil kernel")
	}
	table, err := coverage.NewTable(tl, kernel)
	if err != nil {
		return nil, err
	}
	return &Scheduler{tl: tl, kernel: kernel, table: table}, nil
}

// Timeline returns the scheduler's timeline.
func (s *Scheduler) Timeline() *coverage.Timeline { return s.tl }

// element is a ground-set element: user k sensing at instant t ∈ Tk.
type element struct {
	user    int // index into participants
	instant int // timeline index
}

// buildGround validates the participants and enumerates the ground set of
// feasible (user, instant) pairs, user by user, instant by instant.
func (s *Scheduler) buildGround(parts []Participant) ([]element, error) {
	var elems []element
	for k, p := range parts {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		lo, hi, ok := s.tl.IndexRange(p.Arrive, p.Leave)
		if !ok || p.Budget == 0 {
			continue
		}
		for i := lo; i <= hi; i++ {
			elems = append(elems, element{user: k, instant: i})
		}
	}
	return elems, nil
}

// minGain stops the greedy once no measurement adds more than rounding
// noise.
const minGain = 1e-12

// Greedy computes a schedule with the paper's Algorithm 1, run lazily
// (see lazyGreedy): the plan is the printed scan's to the bit, for fewer
// gain evaluations. Seed measurements already committed (e.g. taken
// earlier in the period by departed users) can be supplied via prior; they
// contribute coverage but consume no budget.
func (s *Scheduler) Greedy(parts []Participant, prior []int) (*Plan, error) {
	for _, p := range parts {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	acc := s.table.NewAccumulator()
	for _, i := range prior {
		if i < 0 || i >= s.tl.N() {
			return nil, fmt.Errorf("schedule: prior instant %d out of range", i)
		}
		acc.Add(i)
	}
	plan := &Plan{Assignments: make(map[string]Assignment, len(parts))}
	for _, p := range parts {
		plan.Assignments[p.UserID] = Assignment{UserID: p.UserID}
	}
	s.lazyGreedy(parts, acc, plan)
	plan.TotalCoverage = acc.Total()
	plan.AverageCoverage = acc.Average()
	return plan, nil
}

// assign files the picks under their users, each user's instants sorted
// and all of them carved from one array.
func (p *Plan) assign(parts []Participant, picks []element) {
	if len(picks) == 0 {
		return
	}
	end := make([]int, len(parts)+1) // end[k]: where user k's next instant goes
	for _, pk := range picks {
		end[pk.user+1]++
	}
	for k := range parts {
		end[k+1] += end[k]
	}
	all := make([]int, len(picks))
	for _, pk := range picks {
		all[end[pk.user]] = pk.instant
		end[pk.user]++
	}
	start := 0
	for k, part := range parts {
		if end[k] > start {
			a := p.Assignments[part.UserID]
			if a.Instants == nil {
				a.Instants = all[start:end[k]:end[k]]
			} else { // two participants under one user ID share an assignment
				a.Instants = append(a.Instants, all[start:end[k]]...)
			}
			slices.Sort(a.Instants)
			p.Assignments[part.UserID] = a
		}
		start = end[k]
	}
}

// Baseline computes the §V-C baseline schedule: each user senses every
// interval seconds starting at arrival, for budget times (clipped to the
// user's window and the period).
func (s *Scheduler) Baseline(parts []Participant, interval time.Duration) (*Plan, error) {
	if interval <= 0 {
		return nil, errors.New("schedule: baseline interval must be positive")
	}
	acc := s.table.NewAccumulator()
	plan := &Plan{Assignments: make(map[string]Assignment, len(parts))}
	for _, p := range parts {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		a := Assignment{UserID: p.UserID}
		// Constrain to the same feasible instants the greedy sees (Tk), so
		// the two schedulers are compared on identical ground sets.
		lo, hi, ok := s.tl.IndexRange(p.Arrive, p.Leave)
		if ok {
			for n := 0; n < p.Budget; n++ {
				at := p.Arrive.Add(time.Duration(n) * interval)
				if at.After(p.Leave) || at.After(s.tl.End()) {
					break
				}
				if at.Before(s.tl.Start()) {
					continue
				}
				idx := s.tl.Index(at)
				if idx < lo || idx > hi {
					continue
				}
				a.Instants = append(a.Instants, idx)
				acc.Add(idx)
			}
		}
		plan.Assignments[p.UserID] = a
	}
	plan.TotalCoverage = acc.Total()
	plan.AverageCoverage = acc.Average()
	return plan, nil
}

// Verify checks a plan against the constraints: every assignment belongs
// to a known participant, stays within that participant's budget and
// window, and names no instant twice. It does not recompute coverage (see
// Coverage for that).
func (s *Scheduler) Verify(parts []Participant, plan *Plan) error {
	if plan == nil {
		return errors.New("schedule: nil plan")
	}
	byID := make(map[string]Participant, len(parts))
	for _, p := range parts {
		byID[p.UserID] = p
	}
	for id, a := range plan.Assignments {
		p, ok := byID[id]
		if !ok {
			return fmt.Errorf("schedule: plan references unknown user %s", id)
		}
		if len(a.Instants) > p.Budget {
			return fmt.Errorf("schedule: user %s scheduled %d > budget %d",
				id, len(a.Instants), p.Budget)
		}
		lo, hi, ok := s.tl.IndexRange(p.Arrive, p.Leave)
		for _, i := range a.Instants {
			if !ok || i < lo || i > hi {
				return fmt.Errorf("schedule: user %s scheduled outside window at instant %d", id, i)
			}
		}
		seen := make(map[int]bool, len(a.Instants))
		for _, i := range a.Instants {
			if seen[i] {
				return fmt.Errorf("schedule: user %s scheduled twice at instant %d", id, i)
			}
			seen[i] = true
		}
	}
	return nil
}
