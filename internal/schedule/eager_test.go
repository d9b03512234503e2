package schedule

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"sor/internal/coverage"
)

// eagerReference is Algorithm 1 as printed, the reference Greedy is held
// to: every round scans every feasible (user, instant) pair, numbered user
// by user and instant by instant, evaluates its gain (one oracle call per
// pair scanned) and takes the first pair with the largest gain above
// minGain, until no feasible pair gains anything.
func (s *Scheduler) eagerReference(parts []Participant, prior []int) (*Plan, error) {
	elems, err := s.buildGround(parts)
	if err != nil {
		return nil, err
	}
	acc := s.table.NewAccumulator()
	for _, i := range prior {
		acc.Add(i)
	}
	plan := &Plan{Assignments: make(map[string]Assignment, len(parts))}
	for _, p := range parts {
		plan.Assignments[p.UserID] = Assignment{UserID: p.UserID}
	}
	used := make([]int, len(parts))
	taken := make([]bool, len(elems))
	var picks []element
	for {
		best, bestGain := -1, minGain
		for e, el := range elems {
			if taken[e] || used[el.user] >= parts[el.user].Budget {
				continue
			}
			plan.OracleCalls++
			if g := acc.Gain(el.instant); g > bestGain {
				best, bestGain = e, g
			}
		}
		if best < 0 {
			break
		}
		el := elems[best]
		taken[best] = true
		used[el.user]++
		acc.Add(el.instant)
		picks = append(picks, el)
	}
	plan.assign(parts, picks)
	plan.TotalCoverage = acc.Total()
	plan.AverageCoverage = acc.Average()
	return plan, nil
}

// checkAxioms verifies by enumeration that the sets over a ground set of
// n ≤ 16 elements that indep accepts are the independent sets of a
// matroid: the empty set is independent, every subset of an independent
// set is, and a smaller independent set Y can always be grown by some
// element of a larger one X.
func checkAxioms(n int, indep func(set uint32) bool) error {
	if n > 16 {
		return fmt.Errorf("checkAxioms enumerates 4^n pairs; n = %d is too large", n)
	}
	total := uint32(1) << n
	ok := make([]bool, total)
	for s := range total {
		ok[s] = indep(s)
	}
	if !ok[0] {
		return fmt.Errorf("the empty set is not independent")
	}
	for s := range total {
		for e := 0; e < n && ok[s]; e++ {
			if s&(1<<e) != 0 && !ok[s&^(1<<e)] {
				return fmt.Errorf("independent %b has the dependent subset %b", s, s&^(1<<e))
			}
		}
	}
	for x := range total {
		for y := range total {
			if !ok[x] || !ok[y] || bits.OnesCount32(x) <= bits.OnesCount32(y) {
				continue
			}
			grows := false
			for d := x &^ y; d != 0 && !grows; d &= d - 1 {
				grows = ok[y|d&-d]
			}
			if !grows {
				return fmt.Errorf("no element of X=%b grows Y=%b", x, y)
			}
		}
	}
	return nil
}

// Property (Theorem 1): the (user, instant) pairs the greedy chooses from,
// under the feasibility rule a plan is held to — at most Budget of each
// user's pairs, as Verify checks it — form a partition matroid, so
// Algorithm 1's ½-approximation applies. The bound itself is checked
// against brute force in TestGreedyHalfOptimalProperty.
func TestPartitionAxiomsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s *Scheduler
		var parts []Participant
		var elems []element
		for len(elems) < 4 || len(elems) > 10 {
			n := 2 + rng.Intn(4)
			tl := smallTimeline(t, n)
			s = mustScheduler(t, tl)
			parts = parts[:0]
			for k, users := 0, 1+rng.Intn(3); k < users; k++ {
				lo := rng.Intn(n)
				hi := lo + rng.Intn(n-lo)
				parts = append(parts, Participant{UserID: fmt.Sprintf("u%d", k),
					Arrive: tl.Time(lo), Leave: tl.Time(hi), Budget: rng.Intn(3)})
			}
			var err error
			if elems, err = s.buildGround(parts); err != nil {
				t.Fatal(err)
			}
		}
		err := checkAxioms(len(elems), func(set uint32) bool {
			plan := &Plan{Assignments: make(map[string]Assignment)}
			for e, el := range elems {
				if set&(1<<e) != 0 {
					id := parts[el.user].UserID
					plan.Assignments[id] = Assignment{UserID: id, Instants: append(plan.Assignments[id].Instants, el.instant)}
				}
			}
			return s.Verify(parts, plan) == nil
		})
		if err != nil {
			t.Logf("seed %d, %d pairs: %v", seed, len(elems), err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// A fixed instance of Theorem 1: three users with three, two and one
// feasible instants and budgets 2, 1 and 1 (the partition {0,0,0,1,1,2}
// with capacities {2,1,1}) give a matroid under Verify's budget rule.
func TestCheckAxiomsPartition(t *testing.T) {
	tl := smallTimeline(t, 3)
	s := mustScheduler(t, tl)
	parts := []Participant{
		{UserID: "a", Arrive: tl.Time(0), Leave: tl.Time(2), Budget: 2},
		{UserID: "b", Arrive: tl.Time(1), Leave: tl.Time(2), Budget: 1},
		{UserID: "c", Arrive: tl.Time(2), Leave: tl.Time(2), Budget: 1},
	}
	elems, err := s.buildGround(parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 6 {
		t.Fatalf("ground set has %d pairs, want 6", len(elems))
	}
	err = checkAxioms(len(elems), func(set uint32) bool {
		plan := &Plan{Assignments: make(map[string]Assignment)}
		for e, el := range elems {
			if set&(1<<e) != 0 {
				id := parts[el.user].UserID
				plan.Assignments[id] = Assignment{UserID: id, Instants: append(plan.Assignments[id].Instants, el.instant)}
			}
		}
		return s.Verify(parts, plan) == nil
	})
	if err != nil {
		t.Fatalf("partition matroid violates axioms: %v", err)
	}
}

// The axiom check is not vacuous: over {0, 1, 2}, the system whose
// independent sets are {}, {0}, {1}, {0,1} and {2} breaks the exchange
// axiom (X = {0,1} cannot grow Y = {2}), and a system missing a subset of
// an independent set breaks heredity.
func TestCheckAxiomsDetectsViolation(t *testing.T) {
	noExchange := func(set uint32) bool { return set&4 == 0 || set == 4 }
	if err := checkAxioms(3, noExchange); err == nil {
		t.Fatal("checkAxioms accepted a system without exchange")
	}
	notHereditary := func(set uint32) bool { return set != 1 }
	if err := checkAxioms(3, notHereditary); err == nil {
		t.Fatal("checkAxioms accepted a system that is not hereditary")
	}
}

// checkAxioms refuses a ground set too large to enumerate rather than
// running for 4^n steps.
func TestCheckAxiomsRejectsLargeGroundSet(t *testing.T) {
	if err := checkAxioms(17, func(uint32) bool { return true }); err == nil {
		t.Fatal("checkAxioms accepted a ground set it cannot enumerate")
	}
}

// Property: Algorithm 1 as printed (the eager reference) reaches at least
// half the brute-force optimum on random instances of up to three users,
// budgets 0 to 2 and at most ten (user, instant) pairs. The production
// lazy greedy is held to the same bound in TestGreedyHalfOptimalProperty.
func TestGreedyHalfApproximationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tl *coverage.Timeline
		var kernel coverage.Kernel
		var s *Scheduler
		var parts []Participant
		var elems []element
		for len(elems) < 2 || len(elems) > 10 {
			n := 2 + rng.Intn(5)
			tl = smallTimeline(t, n)
			kernel = coverage.GaussianKernel{Sigma: 5 + rng.Float64()*15}
			var err error
			if s, err = NewScheduler(tl, kernel); err != nil {
				t.Fatal(err)
			}
			parts = parts[:0]
			for k, users := 0, 1+rng.Intn(3); k < users; k++ {
				lo := rng.Intn(n)
				hi := lo + rng.Intn(n-lo)
				parts = append(parts, Participant{UserID: fmt.Sprintf("u%d", k),
					Arrive: tl.Time(lo), Leave: tl.Time(hi), Budget: rng.Intn(3)})
			}
			if elems, err = s.buildGround(parts); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := s.eagerReference(parts, nil)
		if err != nil {
			t.Fatal(err)
		}
		opt := bruteForceBest(tl, kernel, parts)
		if plan.TotalCoverage < opt/2-1e-9 {
			t.Logf("seed %d: greedy %v < half of optimum %v", seed, plan.TotalCoverage, opt)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
