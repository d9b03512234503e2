package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sor/internal/coverage"
)

// cauchyKernel has no compact support: Support() == 0 makes every Gain and
// Add span the whole timeline, and every Add stale every live instant.
type cauchyKernel struct{ scale float64 }

func (k cauchyKernel) Prob(d float64) float64 { return 1 / (1 + (d/k.scale)*(d/k.scale)) }
func (k cauchyKernel) Support() float64       { return 0 }
func (k cauchyKernel) String() string         { return fmt.Sprintf("cauchy(scale=%gs)", k.scale) }

// lazyCase is one instance of the lazy-vs-eager property.
type lazyCase struct {
	n      int
	kernel coverage.Kernel
	parts  []Participant
	prior  []int
}

const testStep = 10 * time.Second

// randomLazyCase draws an instance whose eager run stays affordable: the
// eager scan costs selections × elements × window, so wide kernels get
// short timelines and many members get small budgets.
func randomLazyCase(rng *rand.Rand, kind int) lazyCase {
	step := testStep.Seconds()
	c := lazyCase{n: 20 + rng.Intn(1081)}
	minUsers, maxUsers, maxBudget := 1, 40, 18
	switch kind {
	case 0:
		c.kernel = coverage.GaussianKernel{Sigma: step * (0.5 + 3*rng.Float64())}
	case 1:
		c.kernel = coverage.TriangularKernel{Width: step * (1 + 9*rng.Float64())}
	case 2:
		c.kernel = coverage.ExponentialKernel{Tau: step * (0.3 + 1.2*rng.Float64())}
	case 3:
		c.kernel = cauchyKernel{scale: step * (0.5 + 2*rng.Float64())}
		c.n, maxUsers = 20+rng.Intn(101), 12
	case 4:
		// Zero width: p is 1 at d = 0 and 0 elsewhere, so every untouched
		// instant gains exactly 1 and only the tie-break picks.
		c.kernel = coverage.GaussianKernel{}
		c.n, maxUsers = 20+rng.Intn(101), 12
	case 5:
		// More members than one mask word holds, often more than two.
		c.kernel = coverage.TriangularKernel{Width: step * (1 + 4*rng.Float64())}
		c.n, minUsers, maxUsers, maxBudget = 20+rng.Intn(181), 65, 200, 4
		if rng.Intn(3) == 0 { // and unbounded support: every Add stales the whole horizon
			c.kernel = cauchyKernel{scale: step * (0.5 + 2*rng.Float64())}
			c.n, maxBudget = 20+rng.Intn(41), 3
		}
	default:
		return joinShapedCase(rng)
	}
	at := func(i int) time.Time { return periodStart.Add(time.Duration(i) * testStep) }
	lo, hi := 0, c.n-1
	for k, users := 0, minUsers+rng.Intn(maxUsers-minUsers+1); k < users; k++ {
		p := Participant{UserID: fmt.Sprintf("u%03d", k), Budget: rng.Intn(maxBudget)}
		switch mode := rng.Intn(7); {
		case mode == 0 && k > 0: // shared: the previous user's window again
		case mode == 1 && k > 0: // nested inside the previous user's window
			lo += rng.Intn(hi - lo + 1)
			hi -= rng.Intn(hi - lo + 1)
		case mode == 2: // empty: falls between two grid points
			p.Arrive = at(rng.Intn(c.n)).Add(time.Second)
			p.Leave = p.Arrive.Add(2 * time.Second)
		case mode == 3: // the whole period and beyond
			lo, hi = 0, c.n-1
			p.Arrive, p.Leave = at(-5), at(c.n+5)
		case mode == 4 && k > 0: // an earlier user's ID again, for a window of its own
			p.UserID = c.parts[rng.Intn(k)].UserID
			fallthrough
		default:
			lo = rng.Intn(c.n)
			hi = lo + rng.Intn(c.n-lo)
		}
		if p.Arrive.IsZero() {
			p.Arrive, p.Leave = at(lo), at(hi)
		}
		c.parts = append(c.parts, p)
	}
	for i, priors := 0, rng.Intn(12); i < priors; i++ {
		c.prior = append(c.prior, rng.Intn(c.n))
	}
	return c
}

// joinStays draws what is left of the stays of the members present at a
// busy place. The join trace's dwell is truncated Pareto (α = 1.5 on
// [60 s, 3 h]). A member found present is length-biased — a dwell shows
// up in proportion to its length, which makes it Pareto with α = 0.5 on
// the same range — and is a uniform share of the way through it.
func joinStays(rng *rand.Rand, members int) []time.Duration {
	lo, hi := math.Sqrt(60), math.Sqrt(3*3600)
	out := make([]time.Duration, members)
	for i := range out {
		root := lo + rng.Float64()*(hi-lo)
		out[i] = time.Duration(max(10, rng.Float64()*root*root) * float64(time.Second))
	}
	return out
}

// joinShapedCase draws the instance a join replans at a busy place: every
// window opens at the same instant (the replan's now), a budget of 17
// outlasts most windows, and a few members stay to the period end. Some
// members have no budget left and some instants were already sensed.
func joinShapedCase(rng *rand.Rand) lazyCase {
	c := lazyCase{n: 100 + rng.Intn(982), kernel: coverage.GaussianKernel{Sigma: 10}}
	members := 20 + rng.Intn(80)
	if rng.Intn(4) == 0 {
		c.kernel = cauchyKernel{scale: 10 * (0.5 + 2*rng.Float64())}
		c.n, members = 30+rng.Intn(91), 10+rng.Intn(30)
	}
	now := periodStart.Add(time.Duration(rng.Intn(c.n/4)) * testStep)
	end := periodStart.Add(time.Duration(c.n-1) * testStep)
	for k, stay := range joinStays(rng, members) {
		p := Participant{UserID: fmt.Sprintf("m%03d", k), Arrive: now, Leave: now.Add(stay), Budget: 17}
		switch rng.Intn(12) {
		case 0:
			p.Leave = end
		case 1:
			p.Budget = 0
		}
		c.parts = append(c.parts, p)
	}
	for i, priors := 0, rng.Intn(20); i < priors; i++ {
		c.prior = append(c.prior, rng.Intn(c.n))
	}
	return c
}

// check runs both variants and requires the same plan to the bit. It
// returns the selections made and whether lazy evaluated strictly fewer
// gains.
func (c lazyCase) check(t *testing.T) (selections int, fewer bool) {
	t.Helper()
	tl := smallTimeline(t, c.n)
	run := func(opts ...Option) *Plan {
		s, err := NewScheduler(tl, c.kernel, opts...)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := s.Greedy(c.parts, c.prior)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	eager, lazy := run(), run(WithLazyGreedy())
	if !reflect.DeepEqual(lazy.Assignments, eager.Assignments) {
		t.Fatalf("%v, %d instants: assignments differ\n lazy  %v\n eager %v", c.kernel, c.n, lazy.Assignments, eager.Assignments)
	}
	if math.Float64bits(lazy.TotalCoverage) != math.Float64bits(eager.TotalCoverage) {
		t.Fatalf("%v: total coverage lazy %x eager %x", c.kernel,
			math.Float64bits(lazy.TotalCoverage), math.Float64bits(eager.TotalCoverage))
	}
	if lazy.OracleCalls > eager.OracleCalls {
		t.Fatalf("%v: lazy made more oracle calls (%d > %d)", c.kernel, lazy.OracleCalls, eager.OracleCalls)
	}
	for _, a := range lazy.Assignments {
		selections += len(a.Instants)
	}
	// Every Add stales at most 4r+1 entries and a stale entry is
	// recomputed at most once, on top of one evaluation per instant.
	radius := c.n
	if sup := c.kernel.Support(); sup > 0 {
		radius = int(math.Ceil(sup / testStep.Seconds()))
	}
	if bound := c.n + min(4*radius+1, c.n)*selections; lazy.OracleCalls > bound {
		t.Fatalf("%v: %d oracle calls, bound %d", c.kernel, lazy.OracleCalls, bound)
	}
	return selections, lazy.OracleCalls < eager.OracleCalls
}

// sharesInstant reports whether two users with budget can sense at one
// instant. Then eager's first scan evaluates that instant twice and lazy
// once, and no later round costs lazy more, so lazy must come out
// strictly ahead.
func (c lazyCase) sharesInstant(t *testing.T) bool {
	tl := smallTimeline(t, c.n)
	seen := make([]bool, c.n)
	for _, p := range c.parts {
		lo, hi, ok := tl.IndexRange(p.Arrive, p.Leave)
		if !ok || p.Budget == 0 {
			continue
		}
		for i := lo; i <= hi; i++ {
			if seen[i] {
				return true
			}
			seen[i] = true
		}
	}
	return false
}

// Property: WithLazyGreedy returns eager Greedy's plan exactly —
// assignments, coverage bits, ties included — for fewer gain evaluations,
// on every kernel shape, on more members than one or two mask words hold,
// and on the instances a join replans.
func TestLazyGreedyMatchesEagerExactly(t *testing.T) {
	perKernel := 60
	if testing.Short() {
		perKernel = 12
	}
	rng := rand.New(rand.NewSource(16))
	var shared, tied, wide int
	for kind := 0; kind < 7; kind++ {
		for trial := 0; trial < perKernel; trial++ {
			c := randomLazyCase(rng, kind)
			selections, fewer := c.check(t)
			if c.sharesInstant(t) && selections > 0 {
				shared++
				if !fewer {
					t.Fatalf("%v, %d users: lazy saved no oracle call", c.kernel, len(c.parts))
				}
			}
			if kind == 4 && selections > 1 {
				tied++
			}
			if len(c.parts) > 128 && selections > 0 {
				wide++
			}
		}
	}
	if shared < perKernel || tied < perKernel/4 || wide < perKernel/4 {
		t.Fatalf("generator too tame: %d instances with shared instants, %d all-ties, %d over two mask words",
			shared, tied, wide)
	}
}

// The instances the generic lazy greedy used to be pinned on, now exact.
func TestLazyGreedyFixedCases(t *testing.T) {
	whole := func(n, budget int) []Participant {
		return []Participant{{UserID: "u", Arrive: periodStart, Leave: periodStart.Add(time.Duration(n) * testStep), Budget: budget}}
	}
	rng := rand.New(rand.NewSource(3))
	cases := map[string]lazyCase{
		// One user over the whole period is a uniform matroid over instants.
		"uniform 40 of 300":      {n: 300, kernel: coverage.GaussianKernel{Sigma: 10}, parts: whole(300, 40)},
		"budget beyond instants": {n: 25, kernel: coverage.GaussianKernel{Sigma: 10}, parts: whole(25, 60)},
		"ten random users": {n: 400, kernel: coverage.GaussianKernel{Sigma: 10},
			parts: randomParticipants(rng, smallTimeline(t, 400), 10, 8)},
		"same id twice": {n: 60, kernel: coverage.TriangularKernel{Width: 30}, parts: []Participant{
			{UserID: "u", Arrive: periodStart, Leave: periodStart.Add(5 * time.Minute), Budget: 3},
			{UserID: "u", Arrive: periodStart.Add(2 * time.Minute), Leave: periodStart.Add(9 * time.Minute), Budget: 4},
		}},
		"nobody": {n: 30, kernel: coverage.GaussianKernel{Sigma: 10}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			if _, fewer := c.check(t); !fewer && len(c.parts) > 0 {
				t.Fatal("lazy saved no oracle call")
			}
		})
	}
}

// BenchmarkReplanHotPlace times one replan of the place a join run keeps
// busiest: 60 present members on the default 3-hour period in 10 s steps,
// every window opening now with a budget of 17 and a stay drawn from the
// join trace's dwell law, three of them to the period end.
func BenchmarkReplanHotPlace(b *testing.B) {
	tl, err := coverage.NewTimeline(periodStart, testStep, 1081)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewScheduler(tl, coverage.GaussianKernel{Sigma: 10}, WithLazyGreedy())
	if err != nil {
		b.Fatal(err)
	}
	online, err := NewOnline(s)
	if err != nil {
		b.Fatal(err)
	}
	for k, stay := range joinStays(rand.New(rand.NewSource(60)), 60) {
		p := Participant{UserID: fmt.Sprintf("m%02d", k), Arrive: periodStart, Leave: periodStart.Add(stay), Budget: 17}
		if k%20 == 0 {
			p.Leave = tl.End()
		}
		if _, err := online.Join(periodStart, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := online.Replan(periodStart); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	plan := online.Plan()
	selections := 0
	for _, a := range plan.Assignments {
		selections += len(a.Instants)
	}
	b.ReportMetric(float64(selections), "picks/op")
}
